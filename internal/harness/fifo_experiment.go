package harness

import (
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// E11FIFO checks a model assumption: some classical presentations assume
// FIFO channels, but the round-tagged protocols here must be agnostic to
// per-link ordering. The experiment runs each protocol under maximally
// reordered delivery ("unordered") and under the same scheduler wrapped
// with per-link FIFO ("fifo"), and compares invariants and costs. The
// scenario layer resolves a fresh scheduler per spec, which is what makes
// the stateful FIFO wrapper safe to fan across engine workers.
func E11FIFO(e *Engine) (*trace.Table, error) {
	tbl := trace.NewTable("E11: FIFO vs unordered channels (linear inputs over [0,1], eps=1e-3)",
		"protocol", "n", "t", "channels", "rounds", "msgs", "final-spread", "ok")
	cases := []struct {
		proto core.Protocol
		n, t  int
	}{
		{core.ProtoCrash, 9, 4},
		{core.ProtoByzTrim, 15, 2},
		{core.ProtoWitness, 7, 2},
	}
	var specs []Spec
	for _, c := range cases {
		for _, channels := range []string{"unordered", "fifo"} {
			p := core.Params{Protocol: c.proto, N: c.n, T: c.t, Eps: 1e-3, Lo: 0, Hi: 1}
			spec, err := SpecFrom(p, LinearInputs(c.n, 0, 1),
				scenario.Spec{Sched: channels, N: c.n, T: c.t}, 31)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	reps, err := e.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		p, rep := spec.Params, reps[i]
		tbl.AddRow(p.Protocol.String(), trace.I(p.N), trace.I(p.T), spec.Scheduler.Name,
			trace.F(rep.Result.Rounds()), trace.I(rep.Result.Stats.MessagesSent),
			trace.F(rep.FinalSpread), trace.B(rep.OK()))
	}
	return tbl, nil
}
