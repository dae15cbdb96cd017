package serve

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// Options are the robustness-envelope knobs of the serve loop, the same
// in virtual and in wall-clock time; every tick-valued knob is in
// workload ticks.
type Options struct {
	// Workers bounds concurrent agreement instances (the worker pool).
	Workers int
	// QueueDepth bounds the admission queue; a full queue evicts the
	// lowest-priority queued request or sheds the arrival.
	QueueDepth int
	// ShedWatermark is the queue depth above which priority-0 arrivals are
	// shed pre-emptively. Defaults to 3/4 of QueueDepth.
	ShedWatermark int
	// BucketFill is the token-bucket admission rate in requests per
	// kilotick; 0 disables rate admission. BucketBurst is the bucket
	// ceiling (default 16).
	BucketFill, BucketBurst float64
	// RetryBudget is the number of re-attempts after a failed instance;
	// RetryBase is the first backoff in ticks (doubling per retry,
	// relnet-style). A retry that cannot finish before the request's
	// deadline is never scheduled.
	RetryBudget int
	RetryBase   int64
	// BreakerThreshold consecutive instance failures trip a cohort's
	// circuit breaker open; it half-opens after BreakerCooldown ticks.
	// Threshold 0 disables the breaker.
	BreakerThreshold int
	BreakerCooldown  int64
}

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.ShedWatermark <= 0 || o.ShedWatermark > o.QueueDepth {
		o.ShedWatermark = o.QueueDepth * 3 / 4
	}
	if o.BucketBurst <= 0 {
		o.BucketBurst = 16
	}
	if o.RetryBudget < 0 {
		o.RetryBudget = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 32
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500
	}
	return o
}

// Config describes the agreement instances the service runs: one
// approximate-agreement execution per admitted request.
type Config struct {
	// Protocol, N, T, Eps, Lo, Hi, Adaptive are the core.Params the
	// instance runs with.
	Protocol    core.Protocol
	N, T        int
	Eps, Lo, Hi float64
	Adaptive    bool
	// Scenario is the base scenario token string without the /n=,t= params
	// — scheduler plus standing fault axes, e.g. "random" or
	// "random+loss:0.05". Disturbance windows from the workload splice
	// their own axes (outage, flap) on top per request.
	Scenario string
	// Reliable wraps honest parties in the ack/retransmit transport.
	Reliable bool
	// MaxEvents overrides the per-instance simulator event budget.
	MaxEvents int
	// Seed drives instance inputs and tie-breaking; per-request seeds are
	// derived from it and the workload's request seeds.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N, c.T = 10, 3
	}
	if c.Eps == 0 {
		c.Eps = 1e-3
	}
	if c.Lo == 0 && c.Hi == 0 {
		c.Lo, c.Hi = 0, 100
	}
	if c.Scenario == "" {
		c.Scenario = "random"
	}
	return c
}

// composeScenario splices a disturbance-window axis into the base scenario
// and pins explicit n and t (the form incident bundles require).
func composeScenario(cfg Config, kind workload.WindowKind, inWindow bool) string {
	base := cfg.Scenario
	if inWindow {
		switch kind {
		case workload.WindowOutage:
			// A regional outage: the last t parties black out together for
			// a window of the instance's virtual time.
			base += fmt.Sprintf("+outage:%d:40:160", cfg.T)
		case workload.WindowFlapStorm:
			base += "+flap:60"
		}
	}
	return fmt.Sprintf("%s/n=%d,t=%d", base, cfg.N, cfg.T)
}

// instance derives the run one attempt executes from the config, the
// attempt's composed scenario and its seed, which also draws the inputs.
// simAttempt lowers it, liveAttempt runs it through Recipe.RunLive, and
// WriteArtifacts captures it, so a bundle replays the instance the
// envelope saw.
func (c Config) instance(scen string, seed int64) harness.Recipe {
	return harness.Recipe{
		Scenario: scen, Protocol: c.Protocol.Token(), Adaptive: c.Adaptive,
		Eps: c.Eps, Lo: c.Lo, Hi: c.Hi, Seed: seed, MaxEvents: c.MaxEvents,
		Inputs: harness.UniformInputs(c.N, c.Lo, c.Hi, seed), Reliable: c.Reliable,
	}
}

// attemptSeed derives the instance seed for one attempt of one request.
func attemptSeed(cfg Config, req workload.Request, attempt int) int64 {
	return cfg.Seed ^ req.Seed ^ (int64(attempt)+1)*-0x61c8864680b583eb
}

// RequestOutcome is one request's terminal record.
type RequestOutcome struct {
	ID       int
	Cohort   int
	Outcome  Outcome
	Arrival  int64
	Finish   int64 // tick the terminal outcome was recorded
	Latency  int64 // Finish - Arrival for decided/degraded; 0 otherwise
	Attempts int
	// Scenario and Seed identify the last instance attempt (for incident
	// capture); empty/0 when no attempt ran.
	Scenario string
	Seed     int64
	// Partial: the last failed attempt still decided some parties.
	Partial bool
	// Tripped: the final attempt tripped the cohort's breaker open.
	Tripped bool
}

// Summary is one engine run's service-level result.
type Summary struct {
	Counters
	Outcomes []RequestOutcome
	// Horizon is the workload horizon; End is the tick the last outcome
	// landed (>= Horizon under backlog drain).
	Horizon, End int64
	// Instances counts instance attempts that actually ran; InstanceMsgs
	// totals their protocol messages (retransmits included), so transport
	// cost shows up even when every instance still decides.
	Instances, InstanceMsgs int64

	decidedLat []int64
}

// MsgsPerInstance is the mean message cost of one instance attempt.
func (s *Summary) MsgsPerInstance() float64 {
	if s.Instances == 0 {
		return 0
	}
	return float64(s.InstanceMsgs) / float64(s.Instances)
}

// Goodput is decided requests per kilotick of elapsed service time.
func (s *Summary) Goodput() float64 {
	end := s.End
	if end < s.Horizon {
		end = s.Horizon
	}
	if end <= 0 {
		return 0
	}
	return float64(s.Decided) * 1000 / float64(end)
}

// LatencyP returns a percentile of decided-request latency in ticks, or 0
// when nothing decided. It is the ⌊q·n⌋-th smallest of the n decided
// latencies (1-based, clamped to [1, n]), with no interpolation, so p50 of
// an even count is the lower middle value. golden.json pins this rule
// through the benchmark's serve.Simulate probe.
func (s *Summary) LatencyP(q float64) int64 {
	if len(s.decidedLat) == 0 {
		return 0
	}
	i := int(q*float64(len(s.decidedLat))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.decidedLat) {
		i = len(s.decidedLat) - 1
	}
	return s.decidedLat[i]
}

// server is the one admit/complete/dispatch loop that Simulate and
// ServeLive both drive. It owns the envelope, the queue, the running set and
// every terminal outcome. A single goroutine runs it, so none of that state
// takes a lock; the clock decides how time advances and where an attempt
// runs.
type server struct {
	cfg Config
	// scens[i+1] is the composed scenario of requests arriving in
	// disturbance window i, scens[0] that of every other request.
	scens   []string
	env     *envelope
	q       reqQueue
	sum     Summary
	reqs    []workload.Request
	next    int       // index of the next arrival
	free    int       // idle workers
	running []verdict // reported attempts, each holding a worker until due
	err     error
}

// verdict is one instance attempt's result; its worker stays busy until
// tick due.
type verdict struct {
	p           *pending
	due         int64
	ran         bool // an instance started; false when the deadline passed first
	ok, partial bool
	msgs        int64
	err         error
}

// clock is what the two engines differ in.
type clock interface {
	// wait blocks until the next pass and returns its tick: the loop's
	// next event (-1 when it knows of none) or an attempt reporting
	// earlier. It returns false once nothing is left to happen.
	wait(s *server, now, event int64) (int64, bool)
	// start runs an attempt dispatched at now. Its verdict reaches
	// s.report, at once or from a later wait.
	start(s *server, p *pending, now int64)
}

// newServer validates the configuration by lowering an instance of every
// scenario the workload can demand, so a bad config or base scenario fails
// before the first request.
func newServer(w workload.Spec, cfg Config, opts Options) (*server, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	s := &server{cfg: cfg, env: newEnvelope(opts, len(w.EffectiveCohorts())), free: opts.Workers}
	for i := -1; i < len(w.Windows); i++ {
		var kind workload.WindowKind
		if i >= 0 {
			kind = w.Windows[i].Kind
		}
		name := composeScenario(cfg, kind, i >= 0)
		if _, err := cfg.instance(name, cfg.Seed).Lower(); err != nil {
			return nil, fmt.Errorf("serve: config: %w", err)
		}
		s.scens = append(s.scens, name)
	}
	return s, nil
}

// serve runs the loop on clock c until every request has an outcome. Each
// pass handles, in order, the attempts due by now, the arrivals due by
// now, and dispatch onto free workers.
func (s *server) serve(c clock) (*Summary, error) {
	now := int64(0)
	for s.err == nil {
		var more bool
		if now, more = c.wait(s, now, s.nextEvent(now)); !more {
			break
		}
		for i := 0; i < len(s.running); {
			if r := s.running[i]; r.due <= now {
				s.running = slices.Delete(s.running, i, i+1)
				s.free++
				s.complete(r, now)
			} else {
				i++
			}
		}
		for ; s.next < len(s.reqs) && s.reqs[s.next].Arrival <= now; s.next++ {
			s.admit(s.reqs[s.next], now)
		}
		s.dispatch(c, now)
	}
	if s.err != nil {
		return nil, s.err
	}
	s.sum.Counters = s.env.c
	slices.Sort(s.sum.decidedLat)
	if !s.sum.Accounted() {
		return nil, fmt.Errorf("serve: accounting violated: offered %d != outcomes %d+%d+%d+%d+%d",
			s.sum.Offered, s.sum.Decided, s.sum.Shed, s.sum.DeadlineExceeded, s.sum.BreakerOpen, s.sum.Degraded)
	}
	return &s.sum, nil
}

// nextEvent is the soonest tick at which a pass has work: an arrival, a
// running attempt falling due, or a ready queued request meeting a free
// worker. It is -1 when there is none.
func (s *server) nextEvent(now int64) int64 {
	event := int64(-1)
	if s.next < len(s.reqs) {
		event = s.reqs[s.next].Arrival
	}
	for _, r := range s.running {
		if event < 0 || r.due < event {
			event = r.due
		}
	}
	if s.free > 0 {
		if at := s.q.earliestReady(); at >= 0 {
			at = max(at, now)
			if event < 0 || at < event {
				event = at
			}
		}
	}
	return event
}

// report takes in an attempt's verdict. Only attempts that started an
// instance count towards Instances.
func (s *server) report(v verdict) {
	if v.err != nil {
		if s.err == nil {
			s.err = v.err
		}
		return
	}
	if v.ran {
		s.sum.Instances++
		s.sum.InstanceMsgs += v.msgs
	}
	s.running = append(s.running, v)
}

// complete records a finished attempt with the cohort breaker, then
// decides the request or schedules its retry.
func (s *server) complete(r verdict, now int64) {
	p := r.p
	tripped := s.env.onAttempt(p.req.Cohort, r.ok, now)
	switch {
	case r.ok && now <= p.absDeadline():
		s.finish(p, OutcomeDecided, now, false, false)
	case r.ok:
		// Decided, but past the deadline: the client is gone.
		s.finish(p, OutcomeDeadline, now, false, false)
	default:
		p.partial = r.partial
		canRetry := p.attempt < 1+s.env.retry.budget
		nextStart := now + s.env.retry.backoff(p.attempt)
		switch {
		case canRetry && nextStart+p.req.Service <= p.absDeadline():
			p.notBefore = nextStart
			s.q.push(p)
			s.env.c.Retries++
		case canRetry:
			// Budget remains but the deadline cuts the retry off.
			s.finish(p, OutcomeDeadline, now, r.partial, tripped)
		default:
			// Budget exhausted with deadline room: serve the last
			// attempt's partial result.
			s.finish(p, OutcomeDegraded, now, r.partial, tripped)
		}
	}
}

// admit runs the admission chain for one arrival.
func (s *server) admit(req workload.Request, now int64) {
	ad := s.env.admit(now, req, &s.q)
	if ad.victim != nil {
		s.finish(ad.victim, OutcomeShed, now, false, false)
	}
	if ad.admitted {
		s.q.push(&pending{req: req})
	} else {
		s.finish(&pending{req: req}, ad.outcome, now, false, false)
	}
}

// dispatch starts ready requests on free workers. Requests already past
// their deadline are finished without burning a worker.
func (s *server) dispatch(c clock, now int64) {
	for s.free > 0 && s.err == nil {
		p := s.q.popReady(now)
		if p == nil {
			return
		}
		if now >= p.absDeadline() {
			s.finish(p, OutcomeDeadline, now, p.partial, false)
			continue
		}
		p.attempt++
		p.scenario = s.scens[p.req.Window+1]
		p.seed = attemptSeed(s.cfg, p.req, p.attempt)
		s.free--
		c.start(s, p, now)
	}
}

// finish records p's terminal outcome at tick now.
func (s *server) finish(p *pending, o Outcome, now int64, partial, tripped bool) {
	s.env.c.count(o)
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
		s.sum.decidedLat = append(s.sum.decidedLat, ro.Latency)
	}
	s.sum.Outcomes = append(s.sum.Outcomes, ro)
	s.sum.End = max(s.sum.End, now)
}

// simAttempt runs p's instance on the simulator's pooled run contexts. The
// worker is held for the request's drawn service time, so the attempt is
// due at now+Service whatever the run took.
func (s *server) simAttempt(p *pending, now int64) verdict {
	v := verdict{p: p, due: now + p.req.Service}
	spec, err := s.cfg.instance(p.scenario, p.seed).Lower()
	if err != nil {
		v.err = fmt.Errorf("serve: request %d: %w", p.req.ID, err)
		return v
	}
	rep, err := harness.Run(spec)
	if err != nil {
		v.err = fmt.Errorf("serve: request %d: %w", p.req.ID, err)
		return v
	}
	v.ran = true
	v.msgs = int64(rep.Result.Stats.MessagesSent)
	v.ok = rep.OK()
	v.partial = !v.ok && rep.Result != nil && len(rep.Result.Decisions) > 0
	return v
}

// virtualClock jumps now straight to the next event and runs each attempt
// inline: deterministic, single-threaded and byte-identical across runs.
type virtualClock struct{}

func (virtualClock) wait(_ *server, now, event int64) (int64, bool) {
	return max(now, event), event >= 0
}

func (virtualClock) start(s *server, p *pending, now int64) { s.report(s.simAttempt(p, now)) }

// Simulate runs the workload through the serving envelope in virtual time:
// deterministic, single-threaded, byte-identical across runs for a given
// (workload, config, options, seed). Every instance executes for real on
// the pooled harness run contexts; scheduling, admission, deadlines,
// retries, and breakers all advance on the workload's tick clock.
func Simulate(w workload.Spec, cfg Config, opts Options, horizon int64) (*Summary, error) {
	s, err := newServer(w, cfg, opts)
	if err != nil {
		return nil, err
	}
	s.reqs = w.Generate(s.cfg.Seed, horizon)
	s.sum.Horizon = horizon
	return s.serve(virtualClock{})
}
