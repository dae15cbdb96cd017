package main

import (
	"context"
	"fmt"
	"time"

	"repro/aa"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The six workloads. Sizes come from probes on a 2-core machine with
// go1.24 (see README.md); every workload is a closed loop of back-to-back
// ops except serve, which is an open loop at a fixed rate.

// opStats are the simulated statistics of one op. On the simulator they
// are a pure function of the op's inputs, so a change that only makes the
// program faster leaves every one of them identical; golden.json pins them.
type opStats struct {
	Messages    int     `json:"messages"`
	Bytes       int     `json:"bytes"`
	Rounds      float64 `json:"rounds"`
	Dropped     int     `json:"dropped"`
	Duped       int     `json:"duped"`
	Retransmits int     `json:"retransmits"`
}

// opResult is what one closed-loop op reports besides its duration.
type opResult struct {
	msgs  int64
	ok    bool
	stats opStats // zero on live, where nothing repeats exactly
}

// closedLoop is a workload whose ops run back to back on one goroutine.
type closedLoop struct {
	// warmOps is how many untimed ops a set-up runs to fill the pools the
	// timed ops draw from (run contexts, calendar wheel, shard fleet).
	warmOps int
	// simulated marks ops whose opStats repeat exactly for a seed.
	simulated bool
	// build does the parsing and construction part of a set-up and returns
	// the op; op i of a seed is always the same work.
	build func(seed int64) (func(i int) (opResult, error), error)
}

// workloadDef names one workload. Exactly one of loop and open is set;
// trace is its traced pass, run for about d.
type workloadDef struct {
	name  string
	why   string
	loop  *closedLoop
	open  *serveLoad
	trace func(rec *recorder, seed int64, d time.Duration) (*layerResult, error)
}

// opSeed gives op i of a run its own seed.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// simCase is one family of simulated executions. Run j uses scenario
// j mod len(scenarios) with inputs and seed derived from the run seed; one
// op is one run of every scenario back to back, so that all ops do the
// same kind of work and their median does not sit between two modes.
type simCase struct {
	cfg       aa.Config
	reliable  bool
	scenarios []string
	warmOps   int // untimed ops per set-up
	// inputs builds a run's inputs from its seed.
	inputs func(c aa.Config, seed int64) []float64
}

func bimodal(c aa.Config, _ int64) []float64 { return harness.BimodalInputs(c.N, c.Lo, c.Hi) }
func uniform(c aa.Config, seed int64) []float64 {
	return harness.UniformInputs(c.N, c.Lo, c.Hi, seed)
}

// plan resolves run j to its scenario string, inputs and seed.
func (c simCase) plan(seed int64, j int) (string, []float64, int64) {
	s := opSeed(seed, j)
	return c.scenarios[j%len(c.scenarios)], c.inputs(c.cfg, s), s
}

// params mirrors aa.Config's lowering to core.Params for the models the
// benchmark runs (the traced pass builds parties itself).
func params(c aa.Config) core.Params {
	p := core.Params{N: c.N, T: c.T, Eps: c.Epsilon, Lo: c.Lo, Hi: c.Hi}
	switch c.Model {
	case aa.ModelCrash:
		p.Protocol = core.ProtoCrash
	case aa.ModelByzantineTrim:
		p.Protocol = core.ProtoByzTrim
	case aa.ModelByzantineWitness:
		p.Protocol = core.ProtoWitness
	}
	return p
}

func (a *opStats) add(b opStats) {
	a.Messages += b.Messages
	a.Bytes += b.Bytes
	a.Rounds += b.Rounds
	a.Dropped += b.Dropped
	a.Duped += b.Duped
	a.Retransmits += b.Retransmits
}

// simulate executes run j through the public entry point.
func (c simCase) simulate(seed int64, j int) (*aa.Outcome, error) {
	scen, inputs, s := c.plan(seed, j)
	opts := []aa.SimOption{aa.WithScenario(scen), aa.WithSeed(s)}
	if c.reliable {
		opts = append(opts, aa.WithReliable())
	}
	out, err := aa.Simulate(c.cfg, inputs, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", scen, s, err)
	}
	return out, nil
}

// op executes op i: one run of each scenario.
func (c simCase) op(seed int64, i int) (opResult, error) {
	res := opResult{ok: true}
	for k := range c.scenarios {
		out, err := c.simulate(seed, i*len(c.scenarios)+k)
		if err != nil {
			return opResult{}, err
		}
		res.ok = res.ok && out.OK()
		res.stats.add(opStats{
			Messages: out.Messages, Bytes: out.Bytes, Rounds: out.Rounds,
			Dropped: out.Dropped, Duped: out.Duped, Retransmits: out.Retransmits,
		})
	}
	res.msgs = int64(res.stats.Messages)
	return res, nil
}

func (c simCase) loop() *closedLoop {
	return &closedLoop{
		warmOps:   c.warmOps,
		simulated: true,
		build: func(seed int64) (func(int) (opResult, error), error) {
			for _, s := range c.scenarios {
				if _, err := scenario.Parse(s); err != nil {
					return nil, err
				}
			}
			return func(i int) (opResult, error) { return c.op(seed, i) }, nil
		},
	}
}

var (
	// Ten rounds at n=256: about 655k messages a run, two runs an op, and
	// the size at which auto-sharding turns on when two cores are there.
	simScale = simCase{
		cfg:       aa.Config{Model: aa.ModelCrash, N: 256, T: 127, Epsilon: 1e-3, Lo: 0, Hi: 1},
		scenarios: []string{"random/n=256", "splitviews+crash/n=256,t=127"},
		warmOps:   1,
		inputs:    bimodal,
	}
	// The cubic path: reliable broadcast and the witness ring.
	simWitness = simCase{
		cfg:       aa.Config{Model: aa.ModelByzantineWitness, N: 32, T: 10, Epsilon: 1e-3, Lo: 0, Hi: 1},
		scenarios: []string{"random/n=32"},
		warmOps:   3,
		inputs:    uniform,
	}
	// Loss and duplication healed by the ack/retransmit transport.
	simLossy = simCase{
		cfg:       aa.Config{Model: aa.ModelCrash, N: 64, T: 21, Epsilon: 1e-3, Lo: 0, Hi: 1},
		reliable:  true,
		scenarios: []string{"random+loss:0.1+dup:0.05/n=64"},
		warmOps:   4,
		inputs:    uniform,
	}
	// The clean n=64 pair the relnet overhead probe compares.
	relnetRaw      = simCase{cfg: simLossy.cfg, scenarios: []string{"random/n=64"}, inputs: uniform}
	relnetReliable = simCase{cfg: simLossy.cfg, reliable: true, scenarios: []string{"random/n=64"}, inputs: uniform}
)

// sweepCombo is one cell of the small-run sweep: a protocol at its own
// resilience bound, a scheduler and a fault mix.
type sweepCombo struct {
	p    core.Params
	scen string
}

// sweepSeedsPerCombo × len(sweepCombos()) specs make one batch.
const sweepSeedsPerCombo = 3

func sweepCombos() []sweepCombo {
	var out []sweepCombo
	for _, n := range []int{8, 10, 13, 16} {
		for _, proto := range []core.Protocol{core.ProtoCrash, core.ProtoByzTrim} {
			t, faults := (n-1)/2, []string{"", "+crash"}
			if proto == core.ProtoByzTrim {
				t, faults = (n-1)/7, []string{"", "+crash", "+equivocate"}
			}
			for _, sched := range []string{"random", "skew", "splitviews"} {
				for _, f := range faults {
					out = append(out, sweepCombo{
						p:    core.Params{Protocol: proto, N: n, T: t, Eps: 1e-3, Lo: 0, Hi: 1},
						scen: fmt.Sprintf("%s%s/n=%d,t=%d", sched, f, n, t),
					})
				}
			}
		}
	}
	return out
}

// sweepSpecs lowers batch i the way the experiment drivers do: parse the
// scenario string and lower it with SpecFrom for every run. lowered, when
// not nil, is called around each lowering (the traced pass times it).
func sweepSpecs(combos []sweepCombo, seed int64, i int, lowered func(start time.Time)) ([]harness.Spec, error) {
	specs := make([]harness.Spec, 0, len(combos)*sweepSeedsPerCombo)
	for k := 0; k < sweepSeedsPerCombo; k++ {
		for ci, c := range combos {
			s := opSeed(seed, i)*1024 + int64(k*len(combos)+ci)
			start := time.Now()
			scen, err := scenario.Parse(c.scen)
			if err != nil {
				return nil, err
			}
			spec, err := harness.SpecFrom(c.p, harness.UniformInputs(c.p.N, c.p.Lo, c.p.Hi, s), scen, s)
			if err != nil {
				return nil, err
			}
			if lowered != nil {
				lowered(start)
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// sweepBatch runs batch i on the engine and sums its statistics.
func sweepBatch(combos []sweepCombo, seed int64, i int) (opResult, error) {
	specs, err := sweepSpecs(combos, seed, i, nil)
	if err != nil {
		return opResult{}, err
	}
	reps, err := harness.RunAll(specs)
	if err != nil {
		return opResult{}, err
	}
	res := opResult{ok: true}
	for _, rep := range reps {
		st := rep.Result.Stats
		res.ok = res.ok && rep.OK()
		res.stats.add(opStats{
			Messages: st.MessagesSent, Bytes: st.BytesSent, Rounds: rep.Result.Rounds(),
			Dropped: st.MessagesDropped, Duped: st.MessagesDuped,
		})
	}
	res.msgs = int64(res.stats.Messages)
	return res, nil
}

var sweepLoop = &closedLoop{
	warmOps:   6,
	simulated: true,
	build: func(seed int64) (func(int) (opResult, error), error) {
		combos := sweepCombos()
		return func(i int) (opResult, error) { return sweepBatch(combos, seed, i) }, nil
	},
}

// liveCase is the goroutine runtime at a size where it is CPU-bound. The
// injected delay is stated: uniform in [0, liveJitter) per message.
var liveCfg = aa.Config{Model: aa.ModelCrash, N: 32, T: 10, Epsilon: 1e-3, Lo: 0, Hi: 1}

const (
	liveJitter  = 200 * time.Microsecond
	liveTimeout = 10 * time.Second
)

var liveLoop = &closedLoop{
	warmOps: 10,
	build: func(seed int64) (func(int) (opResult, error), error) {
		return func(i int) (opResult, error) {
			s := opSeed(seed, i)
			ctx, cancel := context.WithTimeout(context.Background(), liveTimeout)
			defer cancel()
			out, err := aa.RunLive(ctx, liveCfg, uniform(liveCfg, s), aa.LiveOptions{MaxJitter: liveJitter, Seed: s})
			if out == nil {
				return opResult{}, err
			}
			// A timeout is a failed op, not a broken benchmark.
			return opResult{msgs: int64(out.Messages), ok: err == nil && out.OK()}, nil
		}, nil
	},
}

// serveLoad is the open-loop request path: Poisson arrivals at a fixed
// rate against two workers, each request one live agreement instance.
type serveLoad struct {
	spec   string // workload token string
	tick   time.Duration
	perSec int // arrivals per second the spec and tick amount to
	// A set-up serves warmReq requests of warmSpec untimed: evenly spaced
	// arrivals faster than the workers drain them, so that the set-up takes
	// as long as its work does and not as long as a random schedule says.
	warmSpec string
	warmReq  int
	cfg      serve.Config
	opts     serve.Options
	live     serve.LiveConfig
}

// 25 arrivals per kilotick of 250 µs is 100 requests a second, about 40 %
// of what two workers sustain, so queueing shows but the backlog does not
// grow (at 200 a second runs diverged, so that rate is not used). Token
// bucket and breaker are off: nothing may refuse a request.
var serveOpen = &serveLoad{
	spec:     "poisson:25+lognormal:3:0.1+cohort:all:1:1600:1",
	tick:     250 * time.Microsecond,
	perSec:   100,
	warmSpec: "const:200+lognormal:3:0.1+cohort:all:1:1600:1",
	warmReq:  40,
	cfg:      serve.Config{Protocol: core.ProtoCrash, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 100, Scenario: "random"},
	opts:     serve.Options{Workers: 2, QueueDepth: 64},
	live:     serve.LiveConfig{Backend: serve.BackendLive, TickDur: 250 * time.Microsecond, MaxJitter: 200 * time.Microsecond},
}

// run serves the first requests of the stream the seed generates.
func (l *serveLoad) run(spec string, seed int64, requests int) (*serve.Summary, error) {
	w, err := workload.Parse(spec)
	if err != nil {
		return nil, err
	}
	cfg, lc := l.cfg, l.live
	cfg.Seed = seed
	lc.Requests = requests
	return serve.ServeLive(w, cfg, l.opts, lc)
}

var workloads = []workloadDef{
	{name: "sim-scale", loop: simScale.loop(), trace: simScale.tracer("sim-scale", true),
		why: "dense batched ticks at n=256, where auto-sharding turns on: sim event loop, tick staging and shard barrier take three quarters, core.AsyncAA the rest"},
	{name: "sim-witness", loop: simWitness.loop(), trace: simWitness.tracer("sim-witness", false),
		why: "the cubic path at n=32: 676k echo/ready messages a run; rbc, wire and the witness ring inside core, on the batched sim loop only"},
	{name: "sim-lossy", loop: simLossy.loop(), trace: simLossy.tracer("sim-lossy", false),
		why: "10% loss and 5% dup healed by relnet at n=64: timers, fate draws and per-envelope delivery; only sim's sparse path and relnet matter"},
	{name: "sweep-small", loop: sweepLoop, trace: traceSweep,
		why: "table-regeneration batches of 0.16 ms runs at n<=16: per-run set-up, context recycling, the engine pool and multiset dominate"},
	{name: "live", loop: liveLoop, trace: traceLive,
		why: "goroutine runtime at n=32 with 200us injected jitter, CPU-bound: one make, one AfterFunc and a closure per send; sim is not on the path"},
	{name: "serve", open: serveOpen, trace: traceServe,
		why: "open loop, Poisson 100 req/s on two workers at about 40% load: envelope, queue, worker and a small livenet instance per request"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
