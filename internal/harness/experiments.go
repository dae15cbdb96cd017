package harness

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/multiset"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Experiment is a named driver that produces one reproduction table.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*trace.Table, error)
}

// Experiments returns every experiment in DESIGN.md order, each bound to
// the engine e. Seeds is the number of seeds per configuration (the
// benchmark suite uses a smaller count than cmd/aabench).
func Experiments(e *Engine, seeds int) []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Resilience thresholds", Run: func() (*trace.Table, error) { return E1Resilience(e, seeds) }},
		{ID: "E2", Title: "Per-round convergence rate", Run: func() (*trace.Table, error) { return E2Convergence(e, seeds) }},
		{ID: "E3", Title: "Round complexity vs initial spread", Run: func() (*trace.Table, error) { return E3Rounds(e) }},
		{ID: "E4", Title: "Message and bit complexity", Run: func() (*trace.Table, error) { return E4Messages(e) }},
		{ID: "E5", Title: "Diameter trajectories under attack", Run: func() (*trace.Table, error) { return E5Trajectories(e) }},
		{ID: "E6", Title: "Scaling with n", Run: func() (*trace.Table, error) { return E6Scaling(e) }},
		{ID: "E7", Title: "Approximation-function ablation", Run: func() (*trace.Table, error) { return E7Functions(e, seeds) }},
		{ID: "E8", Title: "Adaptive vs fixed-range termination", Run: func() (*trace.Table, error) { return E8Adaptive(e, seeds) }},
		{ID: "E9", Title: "Byzantine strategy effectiveness", Run: func() (*trace.Table, error) { return E9Attacks(e, seeds) }},
		{ID: "E10", Title: "Coordinate-wise agreement in R^d", Run: func() (*trace.Table, error) { return E10Vector(e) }},
		{ID: "E11", Title: "FIFO vs unordered channels", Run: func() (*trace.Table, error) { return E11FIFO(e) }},
		{ID: "E12", Title: "Large-n scenario sweep", Run: func() (*trace.Table, error) { return E12LargeN(e) }},
		{ID: "E13", Title: "Lossy-network resilience", Run: func() (*trace.Table, error) { return E13Resilience(e) }},
		{ID: "E14", Title: "Crash-recovery sweep", Run: func() (*trace.Table, error) { return E14Recovery(e) }},
	}
}

// sweepOutcome is the aggregate of one sweep across the scheduler suite and
// seed range: the worst observed final spread and effective contraction,
// and whether every run satisfied all invariants.
type sweepOutcome struct {
	worstSpread   float64
	worstGammaEff float64
	allOK         bool
	firstFailure  string
	runs          int
}

// sweepJob is one sweep, enumerated as engine specs. Experiments build one
// job per table configuration and submit every job's specs to the engine as
// a single batch (runSweeps), so the whole table fans out across workers.
type sweepJob struct {
	rounds int
	specs  []Spec
	labels []string // "<scheduler>/seed<k>", for failure attribution
}

// newSweepJob enumerates the (scenario, seed) grid for one configuration:
// the standard six-scheduler suite, each carrying the given fault
// composition (scenario registry keys; empty means fault-free).
func newSweepJob(p core.Params, inputs []float64, seeds int, faultKeys ...string) (*sweepJob, error) {
	rounds, err := p.FixedRounds()
	if err != nil {
		return nil, err
	}
	j := &sweepJob{rounds: rounds}
	for _, scen := range scenario.Suite(p.N, p.T, faultKeys...) {
		if p.Protocol == core.ProtoSync && scen.Sched != "sync" {
			continue // the baseline is only defined under synchrony
		}
		for seed := int64(0); seed < int64(seeds); seed++ {
			spec, err := SpecFrom(p, inputs, scen, seed*7919+1)
			if err != nil {
				return nil, err
			}
			j.specs = append(j.specs, spec)
			j.labels = append(j.labels, fmt.Sprintf("%s/seed%d", scen.Sched, seed))
		}
	}
	return j, nil
}

// aggregate folds the job's reports, in spec order, into the outcome. Index
// order matters only for firstFailure; the numeric aggregates are maxima
// and therefore order-independent.
func (j *sweepJob) aggregate(reps []*Report) sweepOutcome {
	out := sweepOutcome{allOK: true}
	for i, rep := range reps {
		out.runs++
		if rep.FinalSpread > out.worstSpread {
			out.worstSpread = rep.FinalSpread
		}
		if g := gammaEff(rep, j.rounds); g > out.worstGammaEff {
			out.worstGammaEff = g
		}
		if !rep.OK() && out.allOK {
			out.allOK = false
			out.firstFailure = fmt.Sprintf("%s: %s", j.labels[i], rep.Failure())
		}
	}
	return out
}

// runSweeps flattens the jobs into one engine batch and hands each job its
// slice of the ordered reports.
func runSweeps(e *Engine, jobs []*sweepJob) ([]sweepOutcome, error) {
	var all []Spec
	var labels []string
	for _, j := range jobs {
		all = append(all, j.specs...)
		labels = append(labels, j.labels...)
	}
	reps, err := e.RunAllLabeled(all, func(i int) string { return "sweep " + labels[i] })
	if err != nil {
		return nil, err
	}
	outs := make([]sweepOutcome, len(jobs))
	off := 0
	for i, j := range jobs {
		outs[i] = j.aggregate(reps[off : off+len(j.specs)])
		off += len(j.specs)
	}
	return outs, nil
}

// gammaEff computes the effective per-round contraction of a finished run.
func gammaEff(rep *Report, rounds int) float64 {
	if rounds == 0 || rep.InitialSpread == 0 || rep.FinalSpread == 0 {
		return 0
	}
	return math.Pow(rep.FinalSpread/rep.InitialSpread, 1/float64(rounds))
}

// stdScenario returns the scenario used when an experiment needs a single
// deterministic adversarial schedule, optionally with faults.
func stdScenario(n, t int, faultKeys ...string) scenario.Spec {
	return scenario.Spec{Sched: "splitviews", Faults: faultKeys, N: n, T: t}
}

// stdSchedule is stdScenario's resolved scheduler, for tests and non-Spec
// drivers that assemble sim configurations directly.
func stdSchedule(n int) sched.Named {
	res, err := stdScenario(n, 0).Resolve()
	if err != nil {
		panic(err)
	}
	return res.Scheduler
}

// --- E1: resilience thresholds ---

// E1Resilience demonstrates each protocol at its fault bound and the loss of
// liveness or safety one fault past it (the protocol is configured for its
// bound t, and the adversary injects t+1 faults).
func E1Resilience(e *Engine, seeds int) (*trace.Table, error) {
	tbl := trace.NewTable("E1: resilience thresholds (protocol at bound t, then overloaded with t+1 faults)",
		"protocol", "n", "t", "faults", "bound", "live", "valid", "eps-agreed", "note")
	type cfg struct {
		proto  core.Protocol
		n, t   int
		isCash bool
	}
	cases := []cfg{
		{core.ProtoCrash, 9, 4, true},
		{core.ProtoByzTrim, 15, 2, false},
		{core.ProtoWitness, 10, 3, false},
	}
	// Enumerate everything up front — the at-bound sweeps as one engine
	// batch, the overload demonstrations (which may legitimately fail at
	// spec level) as a second.
	jobs := make([]*sweepJob, len(cases))
	overloads := make([]Spec, 0, len(cases)+1)
	params := make([]core.Params, len(cases))
	for i, c := range cases {
		p := core.Params{Protocol: c.proto, N: c.n, T: c.t, Eps: 1e-3, Lo: 0, Hi: 100}
		params[i] = p
		inputs := BimodalInputs(c.n, 0, 100)
		faultKey := "equivocate"
		if c.isCash {
			faultKey = "crash"
		}
		job, err := newSweepJob(p, inputs, seeds, faultKey)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
		over, err := overloadSpec(p, inputs, c.isCash)
		if err != nil {
			return nil, err
		}
		overloads = append(overloads, over)
	}
	// The trim protocol at the classical n = 5t+1 resilience: the
	// equivocation attack parks the two halves of the network on different
	// trimmed medians and the diameter never contracts. This run is why
	// ProtoByzTrim claims n >= 7t+1 and why the witness technique exists.
	p5 := core.Params{Protocol: core.ProtoByzTrim, N: 11, T: 2, Eps: 1e-3, Lo: 0, Hi: 100,
		AllowBelowBound: true}
	under, err := uncheckedSpec(p5, BimodalInputs(11, 0, 100),
		stdScenario(11, 2, "equivocate"), 99)
	if err != nil {
		return nil, err
	}
	overloads = append(overloads, under)

	outs, err := runSweeps(e, jobs)
	if err != nil {
		return nil, err
	}
	overloadOuts := e.runAllOutcomes(overloads)

	for i, c := range cases {
		p, out := params[i], outs[i]
		tbl.AddRow(p.Protocol.String(), trace.I(c.n), trace.I(c.t), trace.I(c.t),
			trace.Sprintf("t<=%d", core.MaxT(c.proto, c.n)), trace.B(out.allOK),
			trace.B(out.allOK), trace.B(out.allOK), "at bound: all invariants hold")

		// One past the bound.
		live, valid, agreed, note := overloadVerdict(overloadOuts[i])
		tbl.AddRow(p.Protocol.String(), trace.I(c.n), trace.I(c.t), trace.I(c.t+1),
			"exceeded", trace.B(live), trace.B(valid), trace.B(agreed), note)
	}
	o5 := overloadOuts[len(cases)]
	if o5.err != nil {
		return nil, o5.err
	}
	tbl.AddRow(p5.Protocol.String()+"@5t+1", "11", "2", "2", "below proven bound",
		trace.B(o5.rep.RunErr == nil), trace.B(o5.rep.ValidityOK), trace.B(o5.rep.AgreementOK),
		"equivocation stalls contraction at classical resilience")
	return tbl, nil
}

// overloadSpec builds the spec that injects t+1 faults against a protocol
// configured for t: the standard scenario with one extra fault slot.
func overloadSpec(p core.Params, inputs []float64, crash bool) (Spec, error) {
	faultKey := "equivocate"
	if crash {
		faultKey = "crashinit"
	}
	return uncheckedSpec(p, inputs, stdScenario(p.N, p.T+1, faultKey), 99)
}

// overloadVerdict reports which property an overload run broke.
func overloadVerdict(o runOutcome) (live, valid, agreed bool, note string) {
	if o.err != nil {
		return false, false, false, o.err.Error()
	}
	rep := o.rep
	live = rep.RunErr == nil
	valid = rep.ValidityOK
	agreed = rep.AgreementOK
	switch {
	case !live:
		note = "liveness lost (quorum unreachable)"
	case !valid:
		note = "validity violated"
	case !agreed:
		note = "agreement violated"
	default:
		note = "survived this adversary (bound is worst-case)"
	}
	return live, valid, agreed, note
}

// uncheckedSpec builds a spec bypassing the fault-count guard (used only by
// the overload demonstrations of E1, whose scenarios deliberately assign
// more fault slots than the protocol's bound).
func uncheckedSpec(p core.Params, inputs []float64, scen scenario.Spec, seed int64) (Spec, error) {
	spec, err := SpecFrom(p, inputs, scen, seed)
	if err != nil {
		return Spec{}, err
	}
	spec.MaxEvents = 2_000_000
	spec.allowOverfault = true
	return spec, nil
}

// --- E2: convergence rate ---

// E2Convergence reports, per protocol and (n,t), the provable contraction
// bound, the single-round adversarial-search contraction (multiset layer),
// and the worst end-to-end effective rate across the scheduler and fault
// suite.
func E2Convergence(e *Engine, seeds int) (*trace.Table, error) {
	tbl := trace.NewTable("E2: per-round convergence rate gamma (lower is faster; budget is what the round count assumes)",
		"protocol", "n", "t", "bound", "search-1round", "measured-e2e", "all-ok")
	type cfg struct {
		proto core.Protocol
		n, t  int
		bound string
	}
	cases := []cfg{
		{core.ProtoCrash, 5, 2, "0.5 (proven)"},
		{core.ProtoCrash, 9, 4, "0.5 (proven)"},
		{core.ProtoCrash, 13, 6, "0.5 (proven)"},
		{core.ProtoByzTrim, 8, 1, "0.5 (proven)"},
		{core.ProtoByzTrim, 15, 2, "0.5 (proven)"},
		{core.ProtoByzTrim, 22, 3, "0.5 (proven)"},
		{core.ProtoWitness, 4, 1, "0.5 (proven)"},
		{core.ProtoWitness, 7, 2, "0.5 (proven)"},
		{core.ProtoWitness, 10, 3, "0.5 (proven)"},
	}
	jobs := make([]*sweepJob, len(cases))
	params := make([]core.Params, len(cases))
	for i, c := range cases {
		p := core.Params{Protocol: c.proto, N: c.n, T: c.t, Eps: 1e-4, Lo: 0, Hi: 1}
		params[i] = p
		inputs := BimodalInputs(c.n, 0, 1)
		faultKey := "equivocate"
		if c.proto == core.ProtoCrash {
			faultKey = "crash"
		}
		job, err := newSweepJob(p, inputs, seeds, faultKey)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	outs, err := runSweeps(e, jobs)
	if err != nil {
		return nil, err
	}
	// The single-round adversarial searches are engine work too: one per
	// non-witness case, fanned across the workers.
	searches, err := mapOrdered(e.workers(), len(cases), func(i int) (string, error) {
		c := cases[i]
		if c.proto == core.ProtoWitness {
			return "-", nil
		}
		repSearch, err := multiset.WorstContraction(params[i].DefaultFunc(),
			multiset.ViewModel{N: c.n, T: c.t, Byzantine: c.proto == core.ProtoByzTrim},
			4000, 11)
		if err != nil {
			return "", err
		}
		return trace.F(repSearch.Gamma), nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		tbl.AddRow(params[i].Protocol.String(), trace.I(c.n), trace.I(c.t), c.bound,
			searches[i], trace.F(outs[i].worstGammaEff), trace.B(outs[i].allOK))
	}
	return tbl, nil
}

// --- E3: round complexity vs spread ---

// E3Rounds shows the logarithmic dependence of the round count on the
// initial spread, and the measured asynchronous rounds of real executions.
func E3Rounds(e *Engine) (*trace.Table, error) {
	tbl := trace.NewTable("E3: rounds to eps-agreement vs initial spread (crash-aa, n=10 t=4, eps=1e-3)",
		"spread", "log2(S/eps)", "budget-R", "measured-rounds", "final-spread", "ok")
	spreads := []float64{1e1, 1e2, 1e3, 1e4, 1e5, 1e6}
	specs := make([]Spec, 0, len(spreads))
	budgets := make([]int, 0, len(spreads))
	// Lock-step delay 5 with the standard staggered crash schedule, as a
	// scenario: the scheduler argument carries the one non-suite knob.
	scen := scenario.MustParse("sync:5+crash/n=10,t=4")
	for _, s := range spreads {
		p := core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: s}
		budget, err := p.FixedRounds()
		if err != nil {
			return nil, err
		}
		budgets = append(budgets, budget)
		spec, err := SpecFrom(p, BimodalInputs(10, 0, s), scen, 3)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	reps, err := e.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for i, s := range spreads {
		rep := reps[i]
		tbl.AddRow(trace.F(s), trace.F(math.Log2(s/specs[i].Params.Eps)), trace.I(budgets[i]),
			trace.F(rep.Result.Rounds()), trace.F(rep.FinalSpread), trace.B(rep.OK()))
	}
	return tbl, nil
}

// --- E4: message and bit complexity ---

// E4Case is one protocol's size sweep in the message-complexity table.
type E4Case struct {
	Proto core.Protocol
	Sizes []int
}

// E4Messages measures total and per-round message/byte counts, and
// normalizes by n² to expose the quadratic (crash, trim) versus cubic
// (witness) scaling.
func E4Messages(e *Engine) (*trace.Table, error) {
	return E4MessagesFor(e, []E4Case{
		{core.ProtoCrash, []int{5, 9, 17, 33}},
		{core.ProtoByzTrim, []int{8, 15, 29, 43}},
		{core.ProtoWitness, []int{4, 7, 13, 25}},
	})
}

// E4MessagesFor is E4Messages restricted to the given protocol sweeps; the
// witness determinism test uses it to pin the cubic-message protocol's
// table at several engine parallelism levels.
func E4MessagesFor(e *Engine, cases []E4Case) (*trace.Table, error) {
	tbl := trace.NewTable("E4: message and bit complexity (bimodal inputs over [0,1], eps=1e-3, splitviews scheduler)",
		"protocol", "n", "t", "R", "msgs", "msgs/round", "msgs/round/n^2", "bytes", "ok")
	var specs []Spec
	var rounds []int
	for _, c := range cases {
		for _, n := range c.Sizes {
			t := core.MaxT(c.Proto, n)
			p := core.Params{Protocol: c.Proto, N: n, T: t, Eps: 1e-3, Lo: 0, Hi: 1}
			r, err := p.FixedRounds()
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, r)
			spec, err := SpecFrom(p, BimodalInputs(n, 0, 1), stdScenario(n, t), 5)
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
		p, rep, r := spec.Params, reps[i], rounds[i]
		msgs := rep.Result.Stats.MessagesSent
		perRound := float64(msgs) / float64(r)
		tbl.AddRow(p.Protocol.String(), trace.I(p.N), trace.I(p.T), trace.I(r),
			trace.I(msgs), trace.F(perRound), trace.F(perRound/float64(p.N*p.N)),
			trace.I(rep.Result.Stats.BytesSent), trace.B(rep.OK()))
	}
	return tbl, nil
}

// --- E5: trajectories ---

// E5Trajectories samples the honest diameter at round boundaries under each
// Byzantine behavior. It uses the trim protocol, whose views stay maximally
// divergent under the split-views scheduler, so the geometric halving is
// visible round by round (the witness protocol's views are near-identical
// once its reports align, so it collapses in about one round — E2 covers
// it).
func E5Trajectories(e *Engine) (*trace.Table, error) {
	n, t := 15, 2
	p := core.Params{Protocol: core.ProtoByzTrim, N: n, T: t, Eps: 1e-3, Lo: 0, Hi: 1}
	rounds, err := p.FixedRounds()
	if err != nil {
		return nil, err
	}
	behaviors := scenario.ByzSuite()
	cols := []string{"round"}
	cols = append(cols, behaviors...)
	tbl := trace.NewTable("E5: honest diameter by round under each Byzantine behavior (byztrim-aa, n=15 t=2, splitviews scheduler)", cols...)
	specs := make([]Spec, len(behaviors))
	for i, b := range behaviors {
		spec, err := SpecFrom(p, BimodalInputs(n, 0, 1), stdScenario(n, t, b), 9)
		if err != nil {
			return nil, err
		}
		spec.RecordTrajectory = true
		specs[i] = spec
	}
	reps, err := e.RunAllLabeled(specs, func(i int) string { return "E5 " + behaviors[i] })
	if err != nil {
		return nil, err
	}
	series := make([][]float64, len(behaviors))
	for i, b := range behaviors {
		if !reps[i].OK() {
			return nil, fmt.Errorf("E5 %s: %s", b, reps[i].Failure())
		}
		series[i] = sampleTrajectory(reps[i], rounds)
	}
	for r := 0; r <= rounds; r++ {
		row := []string{trace.I(r)}
		for i := range behaviors {
			row = append(row, trace.F(series[i][r]))
		}
		tbl.AddRow(row...)
	}
	// Figure form: each column as a decay sparkline.
	figure := []string{"figure"}
	for i := range behaviors {
		figure = append(figure, trace.Sparkline(series[i]))
	}
	tbl.AddRow(figure...)
	return tbl, nil
}

// sampleTrajectory resamples a trajectory at uniform round marks using the
// run's measured max honest delay as the round unit.
func sampleTrajectory(rep *Report, rounds int) []float64 {
	out := make([]float64, rounds+1)
	delta := rep.Result.MaxHonestDelay
	if delta == 0 {
		delta = 1
	}
	// The witness protocol needs several delays per protocol round (RBC is
	// multi-phase); scale time so the final sample lands on the last round.
	total := rep.Result.FinishTime
	cur := rep.InitialSpread
	j := 0
	for r := 0; r <= rounds; r++ {
		limit := sim.Time(float64(total) * float64(r) / float64(rounds))
		for j < len(rep.Trajectory) && rep.Trajectory[j].Time <= limit {
			cur = rep.Trajectory[j].Diameter
			j++
		}
		out[r] = cur
	}
	return out
}

// --- E6: scaling ---

// E6Scaling sweeps n at the maximum witness fault ratio and reports
// virtual-time, message, and byte scaling for all three protocols.
func E6Scaling(e *Engine) (*trace.Table, error) {
	return E6ScalingSizes(e, []int{8, 16, 32, 64})
}

// E6ScalingSizes is E6Scaling with a custom size sweep (the benchmark suite
// uses smaller sizes to keep iteration time sane).
func E6ScalingSizes(e *Engine, sizes []int) (*trace.Table, error) {
	return E6ScalingFor(e, []core.Protocol{core.ProtoCrash, core.ProtoByzTrim, core.ProtoWitness}, sizes)
}

// E6ScalingFor is the scaling sweep restricted to the given protocols and
// sizes; the witness determinism test pins the witness rows on their own.
func E6ScalingFor(e *Engine, protos []core.Protocol, sizes []int) (*trace.Table, error) {
	tbl := trace.NewTable("E6: scaling with n (eps=1e-3, inputs linear over [0,1], random scheduler)",
		"protocol", "n", "t", "virt-rounds", "msgs", "bytes", "deliveries", "ok")
	var specs []Spec
	for _, proto := range protos {
		for _, n := range sizes {
			t := core.MaxT(proto, n)
			p := core.Params{Protocol: proto, N: n, T: t, Eps: 1e-3, Lo: 0, Hi: 1}
			spec, err := SpecFrom(p, LinearInputs(n, 0, 1), scenario.Spec{Sched: "random", N: n, T: t}, 13)
			if err != nil {
				return nil, err
			}
			spec.MaxEvents = 20_000_000
			specs = append(specs, spec)
		}
	}
	reps, err := e.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		p, rep := spec.Params, reps[i]
		tbl.AddRow(p.Protocol.String(), trace.I(p.N), trace.I(p.T),
			trace.F(rep.Result.Rounds()), trace.I(rep.Result.Stats.MessagesSent),
			trace.I(rep.Result.Stats.BytesSent), trace.I(rep.Result.Stats.MessagesDelivered),
			trace.B(rep.OK()))
	}
	return tbl, nil
}

// --- E7: approximation-function ablation ---

// E7Functions compares approximation functions in the crash protocol: the
// single-round adversarial-search contraction and whether end-to-end runs
// meet the eps deadline within the default (halving) round budget.
func E7Functions(e *Engine, seeds int) (*trace.Table, error) {
	n, t := 10, 4
	tbl := trace.NewTable("E7: approximation-function ablation (crash-aa, n=10 t=4, round budget assumes gamma=0.5)",
		"function", "search-1round", "measured-e2e", "eps-met", "note")
	funcs := []struct {
		fn   multiset.Func
		note string
	}{
		{multiset.MidExtremes{}, "default; provable halving"},
		{multiset.MidExtremes{Trim: 2}, "trimmed midpoint"},
		{multiset.TrimmedMean{Trim: 0}, "plain mean of quorum"},
		{multiset.TrimmedMean{Trim: 2}, "mean of 2-trimmed quorum"},
		{multiset.Median{}, "no contraction guarantee"},
		{multiset.SelectDouble{Trim: 1, K: 2}, "DLPSW select family"},
	}
	jobs := make([]*sweepJob, len(funcs))
	for i, fc := range funcs {
		p := core.Params{Protocol: core.ProtoCrash, N: n, T: t, Eps: 1e-3, Lo: 0, Hi: 1,
			Func: fc.fn, Gamma: 0.5}
		job, err := newSweepJob(p, BimodalInputs(n, 0, 1), seeds, "crash")
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	outs, err := runSweeps(e, jobs)
	if err != nil {
		return nil, err
	}
	searches, err := mapOrdered(e.workers(), len(funcs), func(i int) (multiset.ContractionReport, error) {
		return multiset.WorstContraction(funcs[i].fn, multiset.ViewModel{N: n, T: t}, 4000, 11)
	})
	if err != nil {
		return nil, err
	}
	for i, fc := range funcs {
		tbl.AddRow(fc.fn.Name(), trace.F(searches[i].Gamma), trace.F(outs[i].worstGammaEff),
			trace.B(outs[i].allOK), fc.note)
	}
	return tbl, nil
}

// --- E8: adaptive vs fixed termination ---

// E8Adaptive compares fixed-range and adaptive termination on a workload
// whose true spread (10) is far below the promised range (1e6): adaptive
// mode should finish in a fraction of the rounds. It also stresses adaptive
// mode with crash-truncated multicasts and skewed scheduling, where its
// guarantee is only conditional.
func E8Adaptive(e *Engine, seeds int) (*trace.Table, error) {
	n, t := 10, 4
	tbl := trace.NewTable("E8: adaptive vs fixed-range termination (crash-aa, n=10 t=4, eps=1e-3, range [0,1e6], true spread 10)",
		"mode", "scheduler", "rounds", "msgs", "final-spread", "eps-met")
	inputs := LinearInputs(n, 0, 10)
	// Enumerate the full (mode, scheduler, seed) grid; each (mode,
	// scheduler) group is a contiguous block of `seeds` specs, so the
	// aggregation below walks the ordered reports block by block.
	type group struct {
		mode string
		sc   string
	}
	var specs []Spec
	var groups []group
	for _, adaptive := range []bool{false, true} {
		for _, scen := range scenario.Suite(n, t, "crash") {
			mode := "fixed"
			if adaptive {
				mode = "adaptive"
			}
			groups = append(groups, group{mode: mode, sc: scen.Sched})
			for seed := int64(0); seed < int64(seeds); seed++ {
				p := core.Params{Protocol: core.ProtoCrash, N: n, T: t, Eps: 1e-3,
					Lo: 0, Hi: 1e6, Adaptive: adaptive}
				spec, err := SpecFrom(p, inputs, scen, seed*104729+7)
				if err != nil {
					return nil, err
				}
				specs = append(specs, spec)
			}
		}
	}
	reps, err := e.RunAll(specs)
	if err != nil {
		return nil, err
	}
	for gi, g := range groups {
		worstRounds, worstMsgs, worstSpread := 0.0, 0, 0.0
		ok := true
		for _, rep := range reps[gi*seeds : (gi+1)*seeds] {
			worstRounds = math.Max(worstRounds, rep.Result.Rounds())
			if rep.Result.Stats.MessagesSent > worstMsgs {
				worstMsgs = rep.Result.Stats.MessagesSent
			}
			worstSpread = math.Max(worstSpread, rep.FinalSpread)
			ok = ok && rep.OK()
		}
		tbl.AddRow(g.mode, g.sc, trace.F(worstRounds), trace.I(worstMsgs),
			trace.F(worstSpread), trace.B(ok))
	}
	return tbl, nil
}

// --- E9: attack effectiveness ---

// E9Attacks measures what each Byzantine behavior costs the two Byzantine
// protocols: the worst final spread and whether all invariants held.
func E9Attacks(e *Engine, seeds int) (*trace.Table, error) {
	tbl := trace.NewTable("E9: Byzantine strategy effectiveness (bimodal inputs over [0,1], eps=1e-3)",
		"behavior", "protocol", "n", "t", "worst-final-spread", "all-ok", "first-failure")
	cases := []struct {
		proto core.Protocol
		n, t  int
	}{
		{core.ProtoByzTrim, 15, 2},
		{core.ProtoWitness, 10, 3},
	}
	type rowMeta struct {
		behavior string
		proto    core.Protocol
		n, t     int
	}
	var jobs []*sweepJob
	var metas []rowMeta
	for _, b := range scenario.ByzSuite() {
		for _, c := range cases {
			p := core.Params{Protocol: c.proto, N: c.n, T: c.t, Eps: 1e-3, Lo: 0, Hi: 1}
			job, err := newSweepJob(p, BimodalInputs(c.n, 0, 1), seeds, b)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job)
			metas = append(metas, rowMeta{behavior: b, proto: c.proto, n: c.n, t: c.t})
		}
	}
	outs, err := runSweeps(e, jobs)
	if err != nil {
		return nil, err
	}
	for i, meta := range metas {
		out := outs[i]
		fail := "-"
		if !out.allOK {
			fail = out.firstFailure
		}
		tbl.AddRow(meta.behavior, meta.proto.String(), trace.I(meta.n), trace.I(meta.t),
			trace.F(out.worstSpread), trace.B(out.allOK), fail)
	}
	return tbl, nil
}
