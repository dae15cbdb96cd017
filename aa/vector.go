package aa

import "repro/internal/harness"

// VectorOutcome is the checked result of a d-dimensional execution. Each
// coordinate is judged like a scalar Outcome: a non-faulty party that
// never decided fails Valid, and both checks allow the float slack
// 1e-9·max(1, |lo|, |hi|) of that coordinate's input hull [lo, hi].
type VectorOutcome struct {
	// Points maps party index to its output point.
	Points map[int][]float64
	// MaxSpread is the largest per-coordinate diameter over the
	// non-faulty outputs (the max-norm disagreement).
	MaxSpread float64
	// Agreed reports that every coordinate's spread is at most Epsilon.
	Agreed bool
	// Valid reports box validity: every non-faulty party decided, and
	// every output coordinate lies inside that coordinate's
	// non-Byzantine input hull.
	Valid bool
	// Messages and Bytes count all traffic.
	Messages, Bytes int
	// Err carries a liveness failure, if any.
	Err error
}

// OK reports full success.
func (o *VectorOutcome) OK() bool { return o.Err == nil && o.Agreed && o.Valid }

// SimulateVector runs d-dimensional approximate agreement (coordinate-wise
// composition; see internal/vector for the exact guarantees — per-
// coordinate ε-agreement and box validity). The configuration's Lo and Hi
// must bound every coordinate of every honest input. inputs[i] is party
// i's point; all points must have equal dimension.
func SimulateVector(c Config, inputs [][]float64, opts ...SimOption) (*VectorOutcome, error) {
	base, err := c.params()
	if err != nil {
		return nil, err
	}
	settings, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	spec, err := settings.lower(c, base, nil)
	if err != nil {
		return nil, err
	}
	rep, err := harness.RunVector(spec, inputs)
	if err != nil {
		return nil, err
	}
	out := &VectorOutcome{
		Points:    make(map[int][]float64, len(rep.Points)),
		MaxSpread: rep.FinalSpread,
		Agreed:    rep.AgreementOK,
		Valid:     rep.ValidityOK,
		Messages:  rep.Result.Stats.MessagesSent,
		Bytes:     rep.Result.Stats.BytesSent,
		Err:       rep.RunErr,
	}
	if out.Err == nil && len(rep.ProtoErrs) > 0 {
		out.Err = rep.ProtoErrs[0]
	}
	for id, pt := range rep.Points {
		out.Points[int(id)] = pt
	}
	return out, nil
}
