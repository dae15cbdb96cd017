package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Backend selects how the wall-clock engine executes an instance.
type Backend int

const (
	// BackendSim runs each instance on the deterministic simulator (pooled
	// harness contexts); the worker is then held for the request's modeled
	// service time so overload behaves like overload.
	BackendSim Backend = iota
	// BackendLive runs each instance as real goroutine parties over
	// internal/livenet mailboxes; the instance's own wall-clock duration is
	// its service time, and the request deadline propagates into the
	// run's context deadline.
	BackendLive
)

// LiveConfig configures the wall-clock engine.
type LiveConfig struct {
	Backend Backend
	// TickDur is the wall duration of one workload tick (default 1ms):
	// arrivals, deadlines, backoffs, and breaker cooldowns all scale by it.
	TickDur time.Duration
	// Requests bounds the run: the first Requests of the stream are served
	// (GenerateN), regardless of horizon.
	Requests int
	// Live-backend injection, mirroring livenet.Options.
	MaxJitter   time.Duration
	ProtoTick   time.Duration
	Loss, Dup   float64
	FlapParties int
	Restarts    int
	Reliable    bool
}

// ServeLive drives the workload through the envelope in wall-clock time: a
// generator goroutine releases requests at their arrival ticks, a bounded
// worker pool executes instances, and the same envelope state machines
// (guarded by a mutex, fed the wall clock converted to ticks) make every
// admission, shed, retry, and breaker decision. The returned Summary
// satisfies the same accounting identity as Simulate's.
func ServeLive(w workload.Spec, cfg Config, opts Options, lc LiveConfig) (*Summary, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	p := cfg.params()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("serve: config: %w", err)
	}
	if lc.TickDur <= 0 {
		lc.TickDur = time.Millisecond
	}
	if lc.Requests <= 0 {
		lc.Requests = 32
	}
	variants := map[string]scenario.Spec{}
	for _, s := range scenarioVariants(cfg, w) {
		scen, err := scenario.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		variants[s] = scen
	}

	reqs := w.GenerateN(cfg.Seed, lc.Requests)
	env := newEnvelope(opts, len(w.EffectiveCohorts()))
	q := &reqQueue{}
	sum := &Summary{}

	var (
		mu          sync.Mutex
		genDone     bool
		outstanding int
		runErr      error
	)
	start := time.Now()
	ticksNow := func() int64 { return int64(time.Since(start) / lc.TickDur) }

	// finish records a terminal outcome; callers hold mu.
	finish := func(p *pending, o Outcome, now int64, partial, tripped bool) {
		env.c.count(o)
		ro := RequestOutcome{
			ID: p.req.ID, Cohort: p.req.Cohort, Outcome: o,
			Arrival: p.req.Arrival, Finish: now,
			Attempts: p.attempt, Partial: partial, Tripped: tripped,
		}
		if p.attempt > 0 {
			ro.Scenario = p.scenario
			ro.Seed = p.seed
		}
		if o == OutcomeDecided || o == OutcomeDegraded {
			ro.Latency = now - p.req.Arrival
		}
		if o == OutcomeDecided {
			sum.decidedLat = append(sum.decidedLat, ro.Latency)
		}
		sum.Outcomes = append(sum.Outcomes, ro)
		if now > sum.End {
			sum.End = now
		}
	}

	// Generator: release each request at its arrival tick and run the
	// admission chain under the lock.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, req := range reqs {
			due := start.Add(time.Duration(req.Arrival) * lc.TickDur)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			mu.Lock()
			now := ticksNow()
			ad := env.admit(now, req, q)
			if ad.victim != nil {
				outstanding--
				finish(ad.victim, OutcomeShed, now, false, false)
			}
			if ad.admitted {
				outstanding++
				q.push(&pending{req: req})
			} else {
				finish(&pending{req: req}, ad.outcome, now, false, false)
			}
			mu.Unlock()
		}
		mu.Lock()
		genDone = true
		mu.Unlock()
	}()

	worker := func() {
		defer wg.Done()
		for {
			// Claim the next ready request, or exit when the stream is
			// drained. Poll: backoff gates and arrivals are time-driven.
			mu.Lock()
			var p *pending
			for {
				if runErr != nil {
					mu.Unlock()
					return
				}
				p = q.popReady(ticksNow())
				if p != nil {
					break
				}
				if genDone && outstanding == 0 {
					mu.Unlock()
					return
				}
				mu.Unlock()
				time.Sleep(lc.TickDur / 2)
				mu.Lock()
			}
			now := ticksNow()
			if now >= p.absDeadline() {
				outstanding--
				finish(p, OutcomeDeadline, now, p.partial, false)
				mu.Unlock()
				continue
			}
			p.attempt++
			p.scenario = composeScenario(cfg, windowKind(w, p.req), p.req.Window >= 0)
			p.seed = attemptSeed(cfg, p.req, p.attempt)
			scen := variants[p.scenario]
			mu.Unlock()

			ok, partial, msgs, err := runAttempt(cfg, lc, scen, p, start)

			mu.Lock()
			if err != nil {
				if runErr == nil {
					runErr = err
				}
				mu.Unlock()
				return
			}
			sum.Instances++
			sum.InstanceMsgs += msgs
			now = ticksNow()
			tripped := env.onAttempt(p.req.Cohort, ok, now)
			switch {
			case ok && now <= p.absDeadline():
				outstanding--
				finish(p, OutcomeDecided, now, false, false)
			case ok:
				outstanding--
				finish(p, OutcomeDeadline, now, false, false)
			default:
				p.failed = true
				p.partial = partial
				canRetry := p.attempt < 1+env.retry.budget
				nextStart := now + env.retry.backoff(p.attempt)
				fits := nextStart+p.req.Service <= p.absDeadline()
				switch {
				case canRetry && fits:
					p.notBefore = nextStart
					q.push(p)
					env.c.Retries++
				case canRetry:
					outstanding--
					finish(p, OutcomeDeadline, now, partial, tripped)
				default:
					outstanding--
					finish(p, OutcomeDegraded, now, partial, tripped)
				}
			}
			mu.Unlock()
		}
	}
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()

	if runErr != nil {
		return nil, runErr
	}
	sum.Counters = env.c
	sum.Horizon = sum.End
	sortInt64s(sum.decidedLat)
	if !sum.Counters.Accounted() {
		return nil, fmt.Errorf("serve: live accounting violated: offered %d != outcomes %d+%d+%d+%d+%d",
			sum.Offered, sum.Decided, sum.Shed, sum.DeadlineExceeded, sum.BreakerOpen, sum.Degraded)
	}
	return sum, nil
}

// runAttempt executes one instance attempt on the configured backend.
func runAttempt(cfg Config, lc LiveConfig, scen scenario.Spec, p *pending, start time.Time) (ok, partial bool, msgs int64, err error) {
	switch lc.Backend {
	case BackendLive:
		return runLiveAttempt(cfg, lc, p, start)
	default:
		return runSimAttempt(cfg, lc, scen, p, start)
	}
}

// runSimAttempt runs the instance on the simulator, then holds the worker
// for the remainder of the request's modeled service time.
func runSimAttempt(cfg Config, lc LiveConfig, scen scenario.Spec, p *pending, start time.Time) (bool, bool, int64, error) {
	t0 := time.Now()
	inputs := harness.UniformInputs(cfg.N, cfg.Lo, cfg.Hi, p.seed)
	spec, err := harness.SpecFrom(cfg.params(), inputs, scen, p.seed)
	if err != nil {
		return false, false, 0, fmt.Errorf("serve: request %d: %w", p.req.ID, err)
	}
	spec.MaxEvents = cfg.MaxEvents
	spec.Reliable = cfg.Reliable
	rep, err := harness.Run(spec)
	if err != nil {
		return false, false, 0, fmt.Errorf("serve: request %d: %w", p.req.ID, err)
	}
	if hold := time.Duration(p.req.Service)*lc.TickDur - time.Since(t0); hold > 0 {
		time.Sleep(hold)
	}
	ok := rep.OK()
	partial := !ok && rep.Result != nil && len(rep.Result.Decisions) > 0
	return ok, partial, int64(rep.Result.Stats.MessagesSent), nil
}

// runLiveAttempt runs the instance as real goroutine parties over livenet,
// propagating the request deadline into the run context.
func runLiveAttempt(cfg Config, lc LiveConfig, p *pending, start time.Time) (bool, bool, int64, error) {
	inputs := harness.UniformInputs(cfg.N, cfg.Lo, cfg.Hi, p.seed)
	procs := make([]sim.Process, cfg.N)
	for i := range procs {
		proc, err := newParty(cfg, inputs[i])
		if err != nil {
			return false, false, 0, fmt.Errorf("serve: request %d: %w", p.req.ID, err)
		}
		procs[i] = proc
	}
	deadline := start.Add(time.Duration(p.absDeadline()) * lc.TickDur)
	if time.Until(deadline) <= 0 {
		return false, false, 0, nil
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	res, err := livenet.Run(ctx, procs, livenet.Options{
		MaxJitter:      lc.MaxJitter,
		Tick:           lc.ProtoTick,
		Seed:           p.seed,
		Loss:           lc.Loss,
		Dup:            lc.Dup,
		FlapParties:    lc.FlapParties,
		RestartParties: lc.Restarts,
		Reliable:       lc.Reliable,
	})
	if err != nil {
		partial := res != nil && len(res.Decisions) > 0
		var msgs int64
		if res != nil {
			msgs = res.Messages
		}
		return false, partial, msgs, nil
	}
	return liveDecisionsOK(res, cfg), false, res.Messages, nil
}

// newParty builds one protocol party for the live backend.
func newParty(cfg Config, input float64) (sim.Process, error) {
	p := cfg.params()
	switch p.Protocol {
	case core.ProtoCrash, core.ProtoByzTrim:
		return core.NewAsyncAA(p, input)
	case core.ProtoWitness:
		return core.NewWitnessAA(p, input)
	default:
		return core.NewSyncAA(p, input)
	}
}

// liveDecisionsOK checks epsilon-agreement and validity over a live run's
// decisions.
func liveDecisionsOK(res *livenet.Result, cfg Config) bool {
	if len(res.Decisions) == 0 {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range res.Decisions {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	tol := 1e-9 * math.Max(1, math.Max(math.Abs(cfg.Lo), math.Abs(cfg.Hi)))
	return hi-lo <= cfg.Eps+tol && lo >= cfg.Lo-tol && hi <= cfg.Hi+tol
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
