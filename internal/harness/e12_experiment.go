package harness

import (
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// E12LargeN is the large-n scenario sweep: the full six-scheduler suite ×
// {fault-free, crash-storm} cross-product at n ∈ {64, 128, 256} on the
// crash protocol, plus a block of composite scenarios (mixed fault kinds,
// skewed delivery against the equivocators' victims) on the trim protocol.
// The sweep is the first workload that is only practical on the calendar-
// queue event core: at n = 256 a single run pushes ~650k messages through
// the queue, where the binary heap's log M pops dominated the wall clock.
//
// Every row is one scenario.Spec, printed in its canonical string form —
// the same strings aarun -scenario accepts, so any row can be re-run (or
// varied) from the command line verbatim.
func E12LargeN(e *Engine) (*trace.Table, error) {
	return E12LargeNSizes(e, []int{64, 128, 256})
}

// E12LargeNSizes is E12LargeN with a custom size sweep (the benchmark
// suite and the equivalence test use smaller sizes to keep iteration
// time sane). One seed per scenario: the point is scale and composition
// coverage, not seed statistics — E1–E9 own those.
func E12LargeNSizes(e *Engine, sizes []int) (*trace.Table, error) {
	tbl := trace.NewTable("E12: large-n scenario sweep (crash-aa at (n-1)/2 + composite scenarios on byztrim-aa, eps=1e-3, bimodal inputs over [0,1])",
		"scenario", "protocol", "virt-rounds", "msgs", "deliveries", "final-spread", "ok")

	crashT := func(n int) int { return (n - 1) / 2 }
	scale := scenario.Cross(scenario.SuiteSchedulers(), [][]string{nil, {"crash"}}, sizes, crashT)

	// Composite scenarios: mixed fault kinds in one spec, and schedulers
	// aimed at the faulty slots. One line each — this enumeration is the
	// whole point of the scenario layer.
	composites := []scenario.Spec{
		scenario.MustParse("splitviews+equivocate/n=64,t=9"),
		scenario.MustParse("skew+equivocate/n=64,t=9"),
		scenario.MustParse("splitviews+crash+equivocate/n=64,t=9"),
		scenario.MustParse("random+silent+extreme+spam/n=64,t=9"),
	}

	type row struct {
		scen  scenario.Spec
		proto core.Protocol
	}
	rows := make([]row, 0, len(scale)+len(composites))
	specs := make([]Spec, 0, cap(rows))
	for _, scen := range scale {
		p := core.Params{Protocol: core.ProtoCrash, N: scen.N, T: scen.T, Eps: 1e-3, Lo: 0, Hi: 1}
		spec, err := SpecFrom(p, BimodalInputs(scen.N, 0, 1), scen, 17)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{scen: scen, proto: p.Protocol})
		specs = append(specs, spec)
	}
	for _, scen := range composites {
		p := core.Params{Protocol: core.ProtoByzTrim, N: scen.N, T: scen.T, Eps: 1e-3, Lo: 0, Hi: 1}
		spec, err := SpecFrom(p, BimodalInputs(scen.N, 0, 1), scen, 17)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{scen: scen, proto: p.Protocol})
		specs = append(specs, spec)
	}

	reps, err := e.RunAllLabeled(specs, func(i int) string { return "E12 " + rows[i].scen.String() })
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		rep := reps[i]
		tbl.AddRow(r.scen.String(), r.proto.String(),
			trace.F(rep.Result.Rounds()), trace.I(rep.Result.Stats.MessagesSent),
			trace.I(rep.Result.Stats.MessagesDelivered), trace.F(rep.FinalSpread),
			trace.B(rep.OK()))
	}
	return tbl, nil
}

// E12XL is the extra-large-n slice: n ∈ {1024, 4096}. It is not part of the
// default Experiments() registry — a single n=4096 run pushes ~170M
// messages, far past the CI and equivalence-matrix budgets — and is reached
// through aabench -xl (BENCH_8.json keeps a frozen entry for it) and
// the reduced `make e12-xl` CI slice, which runs E12XLSizes([]int{1024}).
func E12XL(e *Engine) (*trace.Table, error) {
	return E12XLSizes(e, []int{1024, 4096})
}

// E12XLSizes is E12XL with a custom size sweep. The scenario slice is
// deliberately thin — one fault-free and one crash-storm row per size on
// two schedulers — because at these sizes each row is minutes of sequential
// work; breadth lives in E12LargeN, this sweep measures scale.
func E12XLSizes(e *Engine, sizes []int) (*trace.Table, error) {
	rows, specs, err := e12XLSpecs(sizes)
	if err != nil {
		return nil, err
	}
	reps, err := e.RunAllLabeled(specs, func(i int) string { return "E12-XL " + rows[i].String() })
	if err != nil {
		return nil, err
	}
	return e12XLTable(rows, reps), nil
}

// e12XLSpecs returns E12-XL's scenario rows at the given sizes and the run
// spec of each.
func e12XLSpecs(sizes []int) ([]scenario.Spec, []Spec, error) {
	crashT := func(n int) int { return (n - 1) / 2 }
	scale := scenario.Cross([]string{"random", "splitviews"}, [][]string{nil, {"crash"}}, sizes, crashT)

	rows := make([]scenario.Spec, 0, len(scale))
	specs := make([]Spec, 0, len(scale))
	for _, scen := range scale {
		p := core.Params{Protocol: core.ProtoCrash, N: scen.N, T: scen.T, Eps: 1e-3, Lo: 0, Hi: 1}
		spec, err := SpecFrom(p, BimodalInputs(scen.N, 0, 1), scen, 17)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, scen)
		specs = append(specs, spec)
	}
	return rows, specs, nil
}

// e12XLTable renders E12-XL's rows from their reports.
func e12XLTable(rows []scenario.Spec, reps []*Report) *trace.Table {
	tbl := trace.NewTable("E12-XL: large-n scaling slice (crash-aa at (n-1)/2, eps=1e-3, bimodal inputs over [0,1])",
		"scenario", "protocol", "virt-rounds", "msgs", "deliveries", "final-spread", "ok")
	for i, scen := range rows {
		rep := reps[i]
		tbl.AddRow(scen.String(), core.ProtoCrash.String(),
			trace.F(rep.Result.Rounds()), trace.I(rep.Result.Stats.MessagesSent),
			trace.I(rep.Result.Stats.MessagesDelivered), trace.F(rep.FinalSpread),
			trace.B(rep.OK()))
	}
	return tbl
}
