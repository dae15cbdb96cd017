package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// E10Vector measures the multidimensional extension: message and byte cost
// must scale linearly in the dimension d (d independent coordinate
// instances), with per-coordinate ε-agreement and box validity intact. The
// vector runs are not Spec-based batches (RunVector drives the simulator
// directly), so they fan out through the engine's ordered map rather than
// RunAll.
func E10Vector(e *Engine) (*trace.Table, error) {
	tbl := trace.NewTable("E10: coordinate-wise agreement in R^d (crash-aa base, n=7 t=3, eps=1e-3)",
		"d", "msgs", "bytes", "msgs/d", "max-spread", "ok")
	base := core.Params{Protocol: core.ProtoCrash, N: 7, T: 3, Eps: 1e-3, Lo: -1, Hi: 1}
	dims := []int{1, 2, 4, 8}
	reps, err := mapOrdered(e.workers(), len(dims), func(i int) (*VectorReport, error) {
		spec, err := SpecFrom(base, nil, scenario.Spec{Sched: "splitviews", N: base.N}, 21)
		if err != nil {
			return nil, err
		}
		// Every coordinate spans [-1, 1], in an order of its own, so
		// different coordinates have different extreme holders.
		points := make([][]float64, base.N)
		for k := range points {
			points[k] = make([]float64, dims[i])
			for d := range points[k] {
				points[k][d] = -1 + 2*float64((k+d)%base.N)/float64(base.N-1)
			}
		}
		rep, err := e.RunVector(spec, points)
		if err == nil && rep.RunErr != nil {
			err = fmt.Errorf("vector run: %w", rep.RunErr)
		}
		return rep, err
	})
	if err != nil {
		return nil, err
	}
	for i, dim := range dims {
		r := reps[i]
		msgs, bytes := r.Result.Stats.MessagesSent, r.Result.Stats.BytesSent
		tbl.AddRow(trace.I(dim), trace.I(msgs), trace.I(bytes),
			trace.F(float64(msgs)/float64(dim)), trace.F(r.FinalSpread), trace.B(r.OK()))
	}
	return tbl, nil
}
