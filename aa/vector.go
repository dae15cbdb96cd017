package aa

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/vector"
	"repro/internal/wire"
)

// VectorOutcome is the checked result of a d-dimensional execution.
type VectorOutcome struct {
	// Points maps party index to its output point.
	Points map[int][]float64
	// MaxSpread is the largest per-coordinate diameter over the
	// non-faulty outputs (the max-norm disagreement).
	MaxSpread float64
	// Agreed reports MaxSpread <= Epsilon.
	Agreed bool
	// Valid reports box validity: every output coordinate inside that
	// coordinate's non-Byzantine input hull.
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
	if c.Model == ModelSynchronous {
		return nil, fmt.Errorf("aa: vector agreement supports the asynchronous models")
	}
	base, err := c.params()
	if err != nil {
		return nil, err
	}
	if len(inputs) != c.N {
		return nil, fmt.Errorf("aa: %d input points for %d parties", len(inputs), c.N)
	}
	dim := 0
	for _, pt := range inputs {
		if pt != nil {
			dim = len(pt)
			break
		}
	}
	vp := vector.Params{Base: base, Dim: dim}
	if err := vp.Validate(); err != nil {
		return nil, err
	}
	settings, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	if settings.reliable {
		return nil, fmt.Errorf("aa: vector agreement does not support WithReliable")
	}
	spec, err := settings.lower(c, base, nil)
	if err != nil {
		return nil, err
	}
	if len(spec.Restarts) > 0 {
		return nil, fmt.Errorf("aa: vector agreement does not support restart axes")
	}
	if len(spec.Crashes)+len(spec.Byz) > c.T {
		return nil, fmt.Errorf("aa: fault assignments exceed T")
	}
	cfg := sim.Config{
		N:         c.N,
		Scheduler: spec.Scheduler.Scheduler,
		Seed:      spec.Seed,
		Crashes:   spec.Crashes,
		MaxEvents: spec.MaxEvents,
	}
	rounds, err := base.FixedRounds()
	if err != nil {
		return nil, err
	}
	if len(spec.Byz) > 0 {
		cfg.Byzantine = make(map[sim.PartyID]sim.Process, len(spec.Byz))
		env := fault.Env{N: c.N, Rounds: rounds * dim, Lo: c.Lo, Hi: c.Hi}
		for id, b := range spec.Byz {
			cfg.Byzantine[id] = wrapEachDim{inner: b, dim: dim}.New(env)
		}
	}
	net, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	procs := map[sim.PartyID]*vector.AA{}
	for i := 0; i < c.N; i++ {
		id := sim.PartyID(i)
		if _, isByz := spec.Byz[id]; isByz {
			continue
		}
		if len(inputs[i]) != dim {
			return nil, fmt.Errorf("aa: party %d point has %d coordinates, want %d", i, len(inputs[i]), dim)
		}
		proc, err := vector.New(vp, inputs[i])
		if err != nil {
			return nil, fmt.Errorf("aa: party %d: %w", i, err)
		}
		procs[id] = proc
		if err := net.SetProcess(id, proc); err != nil {
			return nil, err
		}
	}
	res, runErr := net.Run()
	out := &VectorOutcome{
		Points:   map[int][]float64{},
		Messages: res.Stats.MessagesSent,
		Bytes:    res.Stats.BytesSent,
		Err:      runErr,
	}
	for id, proc := range procs {
		if err := proc.Err(); err != nil && out.Err == nil {
			out.Err = err
		}
		if pt, ok := proc.Outputs(); ok {
			out.Points[int(id)] = pt
		}
	}
	out.check(c, inputs, spec, dim)
	return out, nil
}

// check computes box validity and max-norm agreement over non-faulty
// parties.
func (o *VectorOutcome) check(c Config, inputs [][]float64, spec harness.Spec, dim int) {
	crashed := map[int]bool{}
	for _, cp := range spec.Crashes {
		crashed[int(cp.Party)] = true
	}
	o.Valid = true
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, pt := range inputs {
			if _, isByz := spec.Byz[sim.PartyID(i)]; isByz {
				continue
			}
			lo = math.Min(lo, pt[d])
			hi = math.Max(hi, pt[d])
		}
		tol := 1e-9 * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
		outLo, outHi := math.Inf(1), math.Inf(-1)
		seen := false
		for id, pt := range o.Points {
			if crashed[id] {
				continue
			}
			seen = true
			if pt[d] < lo-tol || pt[d] > hi+tol {
				o.Valid = false
			}
			outLo = math.Min(outLo, pt[d])
			outHi = math.Max(outHi, pt[d])
		}
		if seen {
			o.MaxSpread = math.Max(o.MaxSpread, outHi-outLo)
		}
	}
	o.Agreed = o.MaxSpread <= c.Epsilon+1e-9
}

// wrapEachDim adapts a scalar Byzantine behavior to the vector wire
// format: the adversary's traffic is replayed on every coordinate.
type wrapEachDim struct {
	inner fault.Behavior
	dim   int
}

func (w wrapEachDim) Name() string { return w.inner.Name() + "/vector" }

func (w wrapEachDim) New(env fault.Env) sim.Process {
	return &wrapProc{inner: w.inner.New(env), dim: w.dim}
}

type wrapProc struct {
	inner sim.Process
	dim   int
}

func (w *wrapProc) Init(api sim.API) { w.inner.Init(&wrapAPI{API: api, dim: w.dim}) }

func (w *wrapProc) Deliver(from sim.PartyID, data []byte) {
	w.inner.Deliver(from, data)
}

// wrapAPI fans every adversarial send out across all coordinate tags.
type wrapAPI struct {
	sim.API
	dim int
}

func (w *wrapAPI) Send(to sim.PartyID, data []byte) {
	for d := 0; d < w.dim; d++ {
		w.API.Send(to, wire.MarshalWrapped(uint16(d), data))
	}
}

func (w *wrapAPI) Multicast(data []byte) {
	for d := 0; d < w.dim; d++ {
		w.API.Multicast(wire.MarshalWrapped(uint16(d), data))
	}
}
