package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/aa"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/relnet"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The traced pass. It runs apart from the timed pass, with the seams on,
// and attributes each workload's cost to the layers. Every traced run is
// paired with an untraced run of the same op, so the cost of tracing is
// itself a metric (trace.overhead_share) and the traced outputs are
// checked against the untraced ones.

// layerResult is what one workload's traced pass produced.
type layerResult struct {
	values   map[string]float64
	samples  map[string]int // how many ops or calls a value rests on
	notes    []string       // lines for the text report
	problems []string       // checks that failed
}

func newLayerResult() *layerResult {
	return &layerResult{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *layerResult) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *layerResult) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// newParty builds one protocol party, as the harness and the live entry
// points do.
func newParty(p core.Params, input float64) (sim.Process, error) {
	if p.Protocol == core.ProtoWitness {
		return core.NewWitnessAA(p, input)
	}
	return core.NewAsyncAA(p, input)
}

// simRun is one simulator run assembled at sim.New level the way harness
// assembles it: scenario resolved to scheduler and crash plans, one party
// per input, relnet around each party when reliable. With traced set, a
// seam sits between sim and whatever it drives, and, under relnet, a
// second one between relnet and the protocol.
type simRun struct {
	result    *sim.Result
	began     time.Time // assembly starts
	started   time.Time // Network.Run is called
	ended     time.Time // Network.Run returns
	outer     seamCounts
	inner     seamCounts
	transport relnet.Stats
}

func (r *simRun) wall() time.Duration { return r.ended.Sub(r.started) }

func assembleRun(p core.Params, scen string, inputs []float64, seed int64, reliable, traced bool) (*simRun, error) {
	run := &simRun{began: time.Now()}
	parsed, err := scenario.Parse(scen)
	if err != nil {
		return nil, err
	}
	resolved, err := parsed.WithT(p.T).Resolve()
	if err != nil {
		return nil, err
	}
	if len(resolved.Byz) > 0 || len(resolved.Restarts) > 0 {
		return nil, fmt.Errorf("%s: Byzantine and restart scenarios are assembled by harness only", scen)
	}
	net, err := sim.New(sim.Config{N: p.N, Scheduler: resolved.Scheduler.Scheduler, Seed: seed, Crashes: resolved.Crashes})
	if err != nil {
		return nil, err
	}
	var (
		protos       = make([]sim.Process, p.N)
		rels         []*relnet.Proc
		outer, inner []seamCounter
	)
	for i, input := range inputs {
		if protos[i], err = newParty(p, input); err != nil {
			return nil, err
		}
		proc := protos[i]
		if reliable {
			if traced {
				s := newSeam(proc)
				inner, proc = append(inner, s), s
			}
			rel := relnet.Wrap(proc)
			rels, proc = append(rels, rel), rel
		}
		if traced {
			s := newSeam(proc)
			outer, proc = append(outer, s), s
		}
		if err := net.SetProcess(sim.PartyID(i), proc); err != nil {
			return nil, err
		}
	}
	run.started = time.Now()
	run.result, err = net.Run()
	run.ended = time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", scen, seed, err)
	}
	for i, proto := range protos {
		if perr := proto.(interface{ Err() error }).Err(); perr != nil {
			return nil, fmt.Errorf("%s seed %d: party %d: %w", scen, seed, i, perr)
		}
	}
	for _, s := range outer {
		run.outer.add(s.counts())
	}
	for _, s := range inner {
		run.inner.add(s.counts())
	}
	for _, rel := range rels {
		ts := rel.TransportStats()
		run.transport.Retransmits += ts.Retransmits
		run.transport.GiveUps += ts.GiveUps
	}
	return run, nil
}

// sameOutput compares a traced run with the untraced run of the same op:
// every decision and every count must be identical.
func sameOutput(run *simRun, out *aa.Outcome) error {
	st := run.result.Stats
	if st.MessagesSent != out.Messages || st.BytesSent != out.Bytes {
		return fmt.Errorf("traced run sent %d messages, %d bytes; untraced %d, %d", st.MessagesSent, st.BytesSent, out.Messages, out.Bytes)
	}
	if len(run.result.Decisions) != len(out.Values) {
		return fmt.Errorf("traced run decided %d parties, untraced %d", len(run.result.Decisions), len(out.Values))
	}
	for id, v := range run.result.Decisions {
		if out.Values[int(id)] != v {
			return fmt.Errorf("party %d decided %v traced, %v untraced", id, v, out.Values[int(id)])
		}
	}
	return nil
}

// split is the attribution of Network.Run's wall over a slice of runs. The
// four parts add up to the wall: run at GOMAXPROCS(1), busy times are
// serial, so nothing overlaps and nothing is counted twice.
type split struct {
	runs                   int
	wall                   time.Duration
	simLoop, simAPI        int64 // sim's own time outside and inside API calls
	coreBusy, relnetSelf   int64
	msgs, delivered, calls int64
	timers                 int64
	retransmits, giveups   int64
}

func (s *split) add(run *simRun, reliable bool) {
	s.runs++
	s.wall += run.wall()
	proto := run.outer // the seam the protocol sits behind
	if reliable {
		proto = run.inner
		// relnet's time is what is spent under the outer seam that is
		// neither the protocol's nor sim's.
		s.relnetSelf += run.outer.procNS - (run.inner.procNS - run.inner.apiNS) - run.outer.apiNS
	}
	s.simLoop += int64(run.wall()) - run.outer.procNS
	s.simAPI += run.outer.apiNS
	s.coreBusy += proto.procNS - proto.apiNS
	s.msgs += int64(run.result.Stats.MessagesSent)
	s.delivered += int64(run.result.Stats.MessagesDelivered)
	s.calls += run.outer.procCalls
	s.timers += run.outer.timerFires
	s.retransmits += run.transport.Retransmits
	s.giveups += run.transport.GiveUps
}

// tracer binds trace to a workload name and to whether the multi-core
// slice runs.
func (c simCase) tracer(name string, speedup bool) func(*recorder, int64, time.Duration) (*layerResult, error) {
	return func(rec *recorder, seed int64, d time.Duration) (*layerResult, error) {
		return c.trace(rec, name, seed, d, speedup)
	}
}

// trace is the traced pass of a simulated workload. The attribution
// slice runs under GOMAXPROCS(1): shard workers would otherwise overlap
// and busy times would add up to more than the wall. When speedup is set
// and the machine has more than one core, the same runs are then repeated
// untraced at every core, which feeds sim.multicore_speedup only.
func (c simCase) trace(rec *recorder, name string, seed int64, d time.Duration, speedup bool) (*layerResult, error) {
	res := newLayerResult()
	nproc := runtime.GOMAXPROCS(0)
	speedup = speedup && nproc > 1
	if speedup {
		d = d * 2 / 3
	}
	p := params(c.cfg)
	var (
		sp       split
		untraced time.Duration // same runs, untraced, one core
		traced   time.Duration
	)
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(nproc)
	if _, err := c.simulate(seed, 0); err != nil { // fills the run-context pool
		return nil, err
	}
	began := time.Now()
	for j := 0; time.Since(began) < d; j++ {
		root := rec.start(name, -1, j)
		id := rec.start("aa.Simulate", root, j)
		out, err := c.simulate(seed, j)
		untraced += rec.finish(id, nil)
		if err != nil {
			return nil, err
		}
		scen, inputs, s := c.plan(seed, j)
		run, err := assembleRun(p, scen, inputs, s, c.reliable, true)
		if err != nil {
			return nil, err
		}
		rec.add("assemble", root, j, run.began, run.started, nil)
		rec.add("sim.Network.Run", root, j, run.started, run.ended, map[string]int64{
			"sim_proc_calls": run.outer.procCalls, "sim_proc_ns": run.outer.procNS,
			"sim_api_calls": run.outer.apiCalls, "sim_api_ns": run.outer.apiNS,
			"proto_proc_ns": run.inner.procNS, "proto_api_ns": run.inner.apiNS,
			"msgs": int64(run.result.Stats.MessagesSent),
		})
		rec.finish(root, nil)
		traced += run.ended.Sub(run.began)
		if err := sameOutput(run, out); err != nil {
			res.problemf("%s run %d: %v", name, j, err)
		}
		if !out.OK() {
			res.problemf("%s run %d: outcome not OK", name, j)
		}
		sp.add(run, c.reliable)
	}

	msgs := float64(sp.msgs)
	res.set("sim.self_ns_per_msg", float64(sp.simLoop+sp.simAPI)/msgs, sp.runs)
	res.set("sim.api_ns_per_send", float64(sp.simAPI)/msgs, sp.runs)
	res.set("sim.deliveries_per_call", float64(sp.delivered)/float64(sp.calls), sp.runs)
	res.set("sim.events_per_msg", float64(sp.delivered+sp.timers)/msgs, sp.runs)
	res.set("core.busy_ns_per_msg", float64(sp.coreBusy)/msgs, sp.runs)
	res.set("trace.overhead_share", float64(traced-untraced)/float64(untraced), sp.runs)
	if c.reliable {
		res.set("relnet.self_ns_per_msg", float64(sp.relnetSelf)/msgs, sp.runs)
		res.set("relnet.retransmit_ratio", float64(sp.retransmits)/msgs, sp.runs)
		res.set("relnet.giveups", float64(sp.giveups), sp.runs)
	}
	for _, part := range []struct {
		name string
		ns   int64
	}{{"sim loop", sp.simLoop}, {"sim API", sp.simAPI}, {"core busy", sp.coreBusy}, {"relnet self", sp.relnetSelf}} {
		if part.ns < 0 {
			res.problemf("%s: negative self time for %s: %d ns", name, part.name, part.ns)
		}
	}
	wall := float64(sp.wall)
	res.notes = append(res.notes, fmt.Sprintf(
		"%s: Network.Run wall over %d traced runs at GOMAXPROCS(1) splits into sim.self %.1f%% (event loop) + sim.api %.1f%% + core.busy %.1f%% + relnet.self %.1f%%; the traced op took %+.1f%% against the untraced one",
		name, sp.runs, 100*float64(sp.simLoop)/wall, 100*float64(sp.simAPI)/wall, 100*float64(sp.coreBusy)/wall,
		100*float64(sp.relnetSelf)/wall, 100*float64(traced-untraced)/float64(untraced)))

	if speedup {
		runtime.GOMAXPROCS(nproc)
		if _, err := c.simulate(seed, 0); err != nil { // starts the shard fleet
			return nil, err
		}
		var all time.Duration
		for j := 0; j < sp.runs; j++ {
			id := rec.start("aa.Simulate@nproc", -1, j)
			_, err := c.simulate(seed, j)
			all += rec.finish(id, nil)
			if err != nil {
				return nil, err
			}
		}
		res.set("sim.multicore_speedup", float64(untraced)/float64(all), sp.runs)
	}
	return res, nil
}

// sweepSelfSpecs is how many specs of the first batch the per-run harness
// share is measured on.
const sweepSelfSpecs = 36

// minOf is the shortest of three executions: the least disturbed one.
func minOf(f func() (time.Duration, error)) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for range 3 {
		d, err := f()
		if err != nil {
			return 0, err
		}
		best = min(best, d)
	}
	return best, nil
}

// traceSweep is the traced pass of sweep-small: spans around every spec
// lowering and around RunAll, the batch on one core against all cores, and
// harness.Run against a bare Network.Run of the same spec.
func traceSweep(rec *recorder, seed int64, d time.Duration) (*layerResult, error) {
	res := newLayerResult()
	nproc := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(nproc)
	combos := sweepCombos()
	timeBatch := func(i int) (time.Duration, error) {
		start := time.Now()
		r, err := sweepBatch(combos, seed, i)
		if err == nil && !r.ok {
			res.problemf("sweep-small batch %d: outcome not OK", i)
		}
		return time.Since(start), err
	}
	for _, procs := range []int{1, nproc} { // warm both pool shapes
		runtime.GOMAXPROCS(procs)
		if _, err := timeBatch(0); err != nil {
			return nil, err
		}
	}
	var one, all, traced, lowering time.Duration
	batches, specs := 0, 0
	began := time.Now()
	for i := 0; time.Since(began) < d*3/4; i++ {
		runtime.GOMAXPROCS(1)
		t, err := timeBatch(i)
		if err != nil {
			return nil, err
		}
		one += t
		runtime.GOMAXPROCS(nproc)
		if t, err = timeBatch(i); err != nil {
			return nil, err
		}
		all += t

		root := rec.start("sweep-small", -1, i)
		lowered, err := sweepSpecs(combos, seed, i, func(start time.Time) {
			end := time.Now()
			rec.add("harness.SpecFrom", root, i, start, end, nil)
			lowering += end.Sub(start)
		})
		if err != nil {
			return nil, err
		}
		id := rec.start("harness.RunAll", root, i)
		_, err = harness.RunAll(lowered)
		rec.finish(id, nil)
		if err != nil {
			return nil, err
		}
		traced += rec.finish(root, nil)
		batches++
		specs += len(lowered)
	}
	res.set("harness.spec_us_per_run", float64(lowering)/1e3/float64(specs), specs)
	res.set("trace.overhead_share", float64(traced-all)/float64(all), batches)
	if nproc > 1 {
		res.set("harness.multicore_speedup", float64(one)/float64(all), batches)
	}

	// harness.Run against the bare simulator run of the same spec. The
	// bare network is built fresh, so its Run also pays for first-use
	// growth that a recycled context has behind it; the difference is a
	// floor on what harness adds per run, not an exact figure.
	var self time.Duration
	measured := 0
	for ci, c := range combos {
		if measured == sweepSelfSpecs {
			break
		}
		s := opSeed(seed, 0)*1024 + int64(ci)
		inputs := harness.UniformInputs(c.p.N, c.p.Lo, c.p.Hi, s)
		bare, err := minOf(func() (time.Duration, error) {
			run, err := assembleRun(c.p, c.scen, inputs, s, false, false)
			if err != nil {
				return 0, err
			}
			return run.wall(), nil
		})
		if err != nil {
			continue // a Byzantine scenario: only harness assembles those
		}
		whole, err := minOf(func() (time.Duration, error) {
			parsed, err := scenario.Parse(c.scen)
			if err != nil {
				return 0, err
			}
			spec, err := harness.SpecFrom(c.p, inputs, parsed, s)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = harness.Run(spec)
			return time.Since(start), err
		})
		if err != nil {
			return nil, err
		}
		self += whole - bare
		measured++
	}
	res.set("harness.run_self_us", float64(self)/1e3/float64(measured), measured)
	return res, nil
}

// traceLive is the traced pass of live. aa.RunLive builds its own parties,
// so the traced runs call livenet.Run directly with seams around
// core.NewAsyncAA parties. The parties run on their own goroutines and
// overlap, so their busy times are summed per message, not taken as
// shares of the wall.
func traceLive(rec *recorder, seed int64, d time.Duration) (*layerResult, error) {
	res := newLayerResult()
	op, err := liveLoop.build(seed)
	if err != nil {
		return nil, err
	}
	p := params(liveCfg)
	var (
		untraced, traced        time.Duration
		sum                     seamCounts
		msgs                    int64
		wallMS, opMS            []float64
		shed, timeouts, dropped int64
	)
	began := time.Now()
	for j := 0; time.Since(began) < d; j++ {
		root := rec.start("live", -1, j)
		id := rec.start("aa.RunLive", root, j)
		r, err := op(j)
		took := rec.finish(id, nil)
		if err != nil {
			return nil, err
		}
		if !r.ok {
			res.problemf("live run %d: outcome not OK", j)
		}
		untraced += took
		opMS = append(opMS, float64(took)/1e6)

		s := opSeed(seed, j)
		inputs := uniform(liveCfg, s)
		id = rec.start("livenet.Run", root, j)
		procs := make([]sim.Process, len(inputs))
		seams := make([]seamCounter, len(inputs))
		for i, input := range inputs {
			party, err := newParty(p, input)
			if err != nil {
				return nil, err
			}
			seams[i] = newSeam(party)
			procs[i] = seams[i]
		}
		ctx, cancel := context.WithTimeout(context.Background(), liveTimeout)
		out, err := livenet.Run(ctx, procs, livenet.Options{MaxJitter: liveJitter, Seed: s})
		cancel()
		var run seamCounts
		for _, sm := range seams {
			run.add(sm.counts())
		}
		traced += rec.finish(id, map[string]int64{"proc_ns": run.procNS, "api_ns": run.apiNS, "api_calls": run.apiCalls})
		rec.finish(root, nil)
		if err != nil {
			res.problemf("live traced run %d: %v", j, err)
			continue
		}
		if err := liveAgreed(out, inputs, liveCfg.Epsilon); err != nil {
			res.problemf("live traced run %d: %v", j, err)
		}
		sum.add(run)
		msgs += out.Messages
		wallMS = append(wallMS, float64(out.Elapsed)/1e6)
		shed += out.Shed
		timeouts += out.SendTimeouts
		dropped += out.Dropped
	}
	runs := len(wallMS)
	if runs == 0 {
		return nil, fmt.Errorf("live: no traced run completed: %v", res.problems)
	}
	res.set("livenet.send_ns_per_msg", float64(sum.apiNS)/float64(msgs), runs)
	res.set("core.busy_ns_per_msg", float64(sum.procNS-sum.apiNS)/float64(msgs), runs)
	res.set("livenet.wall_ms_per_run", median(wallMS), runs)
	res.set("livenet.msgs_per_run", float64(msgs)/float64(runs), runs)
	res.set("livenet.shed", float64(shed), runs)
	res.set("livenet.send_timeouts", float64(timeouts), runs)
	res.set("livenet.dropped", float64(dropped), runs)
	res.set("trace.overhead_share", float64(traced-untraced)/float64(untraced), runs)
	p90, _ := percentile(opMS, 0.9)
	res.set("live.op_ms_p90", p90, len(opMS))
	return res, nil
}

// liveAgreed checks a live result the way aa.RunLive does: every party
// decided, within eps of each other, inside the input hull.
func liveAgreed(out *livenet.Result, inputs []float64, eps float64) error {
	if len(out.Decisions) != len(inputs) {
		return fmt.Errorf("%d of %d parties decided", len(out.Decisions), len(inputs))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range inputs {
		lo, hi = min(lo, v), max(hi, v)
	}
	dlo, dhi := math.Inf(1), math.Inf(-1)
	for _, v := range out.Decisions {
		dlo, dhi = min(dlo, v), max(dhi, v)
	}
	const tol = 1e-9
	if dhi-dlo > eps+tol || dlo < lo-tol || dhi > hi+tol {
		return fmt.Errorf("decisions [%v, %v] for inputs [%v, %v], eps %v", dlo, dhi, lo, hi, eps)
	}
	return nil
}

// traceServe is the traced pass of serve. ServeLive builds its instances
// itself and exposes no seam, so the pass adds no wrapper: it reads the
// Summary, and records one span per request from its due tick to its
// decided tick under the span of the whole service run.
func traceServe(rec *recorder, seed int64, d time.Duration) (*layerResult, error) {
	res := newLayerResult()
	l := serveOpen
	requests := int(d.Seconds() * float64(l.perSec))
	if _, err := l.run(l.warmSpec, seed, l.warmReq); err != nil {
		return nil, err
	}
	root := rec.start("serve.ServeLive", -1, -1)
	began := time.Now()
	sum, err := l.run(l.spec, seed, requests)
	rec.finish(root, nil)
	if err != nil {
		return nil, err
	}
	var ticks []int64
	lastArrival := int64(0)
	for _, o := range sum.Outcomes {
		lastArrival = max(lastArrival, o.Arrival)
		rec.add("request", root, o.ID, began.Add(time.Duration(o.Arrival)*l.tick), began.Add(time.Duration(o.Finish)*l.tick), nil)
		if o.Outcome == serve.OutcomeDecided {
			ticks = append(ticks, o.Latency)
		}
	}
	tickMS := float64(l.tick) / 1e6
	n := len(ticks)
	p90, _ := tickPercentile(ticks, 0.9)
	p99, ok := tickPercentile(ticks, 0.99)
	res.set("serve.latency_ms_p90", p90*tickMS, n)
	res.set("serve.latency_ms_p99", p99*tickMS, n)
	if !ok {
		res.notes = append(res.notes, fmt.Sprintf("serve.latency_ms_p99 rests on %d requests, fewer than the ten beyond it that a reported percentile takes", n))
	}
	res.set("serve.goodput_per_s", float64(sum.Decided)/(float64(sum.End)*l.tick.Seconds()), n)
	res.set("serve.msgs_per_instance", sum.MsgsPerInstance(), int(sum.Instances))
	res.set("serve.drain_ms", float64(sum.End-lastArrival)*tickMS, 1)
	res.set("serve.shed", float64(sum.Shed), requests)
	res.set("serve.deadline_exceeded", float64(sum.DeadlineExceeded), requests)
	res.set("serve.degraded", float64(sum.Degraded), requests)
	res.set("serve.retries", float64(sum.Retries), requests)
	// No wrapper is on the request path, so the traced run is the untraced
	// program; the figure is zero by construction, not by measurement.
	res.set("trace.overhead_share", 0, requests)
	if !sum.Counters.Accounted() || int(sum.Offered) != requests {
		res.problemf("serve: accounting: offered %d of %d, accounted %v", sum.Offered, requests, sum.Counters.Accounted())
	}
	return res, nil
}
