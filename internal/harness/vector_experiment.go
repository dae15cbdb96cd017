package harness

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vector"
)

// E10Vector measures the multidimensional extension: message and byte cost
// must scale linearly in the dimension d (d independent coordinate
// instances), with per-coordinate ε-agreement and box validity intact. The
// vector runs are not Spec-based (they drive the simulator directly), so
// they fan out through the engine's ordered map rather than RunAll.
func E10Vector(e *Engine) (*trace.Table, error) {
	tbl := trace.NewTable("E10: coordinate-wise agreement in R^d (crash-aa base, n=7 t=3, eps=1e-3)",
		"d", "msgs", "bytes", "msgs/d", "max-spread", "ok")
	base := core.Params{Protocol: core.ProtoCrash, N: 7, T: 3, Eps: 1e-3, Lo: -1, Hi: 1}
	dims := []int{1, 2, 4, 8}
	type vecResult struct {
		msgs, bytes int
		spread      float64
		ok          bool
	}
	results, err := mapOrdered(e.workers(), len(dims), func(i int) (vecResult, error) {
		msgs, bytes, spread, ok, err := runVectorOnce(e, base, dims[i], 21)
		return vecResult{msgs: msgs, bytes: bytes, spread: spread, ok: ok}, err
	})
	if err != nil {
		return nil, err
	}
	for i, dim := range dims {
		r := results[i]
		tbl.AddRow(trace.I(dim), trace.I(r.msgs), trace.I(r.bytes),
			trace.F(float64(r.msgs)/float64(dim)), trace.F(r.spread), trace.B(r.ok))
	}
	return tbl, nil
}

// runVectorOnce executes one d-dimensional crash-model run under the
// split-views scheduler and verifies the vector invariants.
func runVectorOnce(e *Engine, base core.Params, dim int, seed int64) (msgs, bytes int, spread float64, ok bool, err error) {
	vp := vector.Params{Base: base, Dim: dim}
	if err := vp.Validate(); err != nil {
		return 0, 0, 0, false, err
	}
	inputs := make([][]float64, base.N)
	for i := range inputs {
		pt := make([]float64, dim)
		for d := range pt {
			// Spread every coordinate across [-1, 1] with varying order so
			// different coordinates have different extreme holders.
			pt[d] = -1 + 2*float64((i+d)%base.N)/float64(base.N-1)
		}
		inputs[i] = pt
	}
	scen, err := scenario.Spec{Sched: "splitviews", N: base.N, T: base.T}.Resolve()
	if err != nil {
		return 0, 0, 0, false, err
	}
	net, err := sim.New(sim.Config{
		N:         base.N,
		Scheduler: scen.Scheduler.Scheduler,
		Seed:      seed,
		Reference: e.Reference,
	})
	if err != nil {
		return 0, 0, 0, false, err
	}
	procs := make([]*vector.AA, base.N)
	for i := 0; i < base.N; i++ {
		proc, err := vector.New(vp, inputs[i])
		if err != nil {
			return 0, 0, 0, false, err
		}
		procs[i] = proc
		if err := net.SetProcess(sim.PartyID(i), proc); err != nil {
			return 0, 0, 0, false, err
		}
	}
	res, runErr := net.Run()
	if runErr != nil {
		return res.Stats.MessagesSent, res.Stats.BytesSent, 0, false,
			fmt.Errorf("vector run: %w", runErr)
	}
	e.count(res.Stats)
	ok = true
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, in := range inputs {
			lo = math.Min(lo, in[d])
			hi = math.Max(hi, in[d])
		}
		outLo, outHi := math.Inf(1), math.Inf(-1)
		for _, proc := range procs {
			pt, decided := proc.Outputs()
			if !decided {
				ok = false
				continue
			}
			if pt[d] < lo-1e-9 || pt[d] > hi+1e-9 {
				ok = false
			}
			outLo = math.Min(outLo, pt[d])
			outHi = math.Max(outHi, pt[d])
		}
		spread = math.Max(spread, outHi-outLo)
	}
	if spread > base.Eps+1e-9 {
		ok = false
	}
	return res.Stats.MessagesSent, res.Stats.BytesSent, spread, ok, nil
}
