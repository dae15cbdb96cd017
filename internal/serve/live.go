package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/workload"
)

// Backend selects how the wall-clock engine executes an instance.
type Backend int

const (
	// BackendSim runs each instance on the deterministic simulator (pooled
	// harness contexts); the worker is held until the request's modeled
	// service time has passed since dispatch, so overload behaves like
	// overload.
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
	// Live-backend wall-clock options, layered on what each instance's
	// recipe fixes (Config.Scenario's axes, Config.Reliable): the delivery
	// jitter, and the wall duration of one protocol tick, which scales the
	// scenario's flap, outage and restart windows (livenet.Options.Tick).
	MaxJitter time.Duration
	ProtoTick time.Duration
}

// ServeLive drives the workload through the envelope in wall-clock time,
// on the same loop as Simulate: one goroutine admits each request at its
// arrival tick, completes attempts and dispatches onto free workers, and
// sleeps between passes on one reusable timer set to the next arrival,
// backoff gate or due attempt. Each attempt runs in a goroutine of its own
// and reports back on a channel. The returned Summary satisfies the same
// accounting identity as Simulate's. On BackendLive every composed
// scenario must be one the live runtime runs (Recipe.Live), or ServeLive
// fails before the first request.
func ServeLive(w workload.Spec, cfg Config, opts Options, lc LiveConfig) (*Summary, error) {
	s, err := newServer(w, cfg, opts)
	if err != nil {
		return nil, err
	}
	if lc.Backend == BackendLive {
		for _, name := range s.scens {
			if _, _, _, _, err := s.cfg.instance(name, s.cfg.Seed).Live(); err != nil {
				return nil, fmt.Errorf("serve: config: %w", err)
			}
		}
	}
	if lc.TickDur <= 0 {
		lc.TickDur = time.Millisecond
	}
	if lc.Requests <= 0 {
		lc.Requests = 32
	}
	s.reqs = w.GenerateN(s.cfg.Seed, lc.Requests)
	c := &wallClock{lc: lc, begin: time.Now(), timer: time.NewTimer(time.Hour),
		results: make(chan verdict, s.free)}
	sum, err := s.serve(c)
	c.timer.Stop()
	// After an error, wait out the attempts still running.
	for ; c.inflight > 0; c.inflight-- {
		<-c.results
	}
	if err != nil {
		return nil, err
	}
	sum.Horizon = sum.End
	return sum, nil
}

// wallClock runs the loop in real time: ticks are lc.TickDur long and
// counted from begin, and each attempt runs in its own goroutine.
type wallClock struct {
	lc       LiveConfig
	begin    time.Time
	timer    *time.Timer
	results  chan verdict // one slot per worker, so no report ever blocks
	inflight int
}

func (c *wallClock) ticks() int64 { return int64(time.Since(c.begin) / c.lc.TickDur) }

func (c *wallClock) at(tick int64) time.Time {
	return c.begin.Add(time.Duration(tick) * c.lc.TickDur)
}

func (c *wallClock) wait(s *server, now, event int64) (int64, bool) {
	if event < 0 && c.inflight == 0 {
		return now, false
	}
	if event < 0 || c.ticks() < event {
		var fire <-chan time.Time
		if event >= 0 {
			c.timer.Reset(time.Until(c.at(event)))
			fire = c.timer.C
		}
		select {
		case v := <-c.results:
			c.inflight--
			s.report(v)
		case <-fire:
		}
	}
	return max(now, c.ticks()), true
}

func (c *wallClock) start(s *server, p *pending, now int64) {
	c.inflight++
	go func() {
		if c.lc.Backend == BackendLive {
			c.results <- c.liveAttempt(s, p)
		} else {
			c.results <- s.simAttempt(p, now)
		}
	}()
}

// liveAttempt runs p's instance as real goroutine parties over livenet,
// propagating the request deadline into the run context. The attempt is
// due when the run returns; one whose deadline has already passed starts
// nothing.
func (c *wallClock) liveAttempt(s *server, p *pending) verdict {
	v := verdict{p: p}
	deadline := c.at(p.absDeadline())
	if time.Until(deadline) <= 0 {
		v.due = c.ticks()
		return v
	}
	r := s.cfg.instance(p.scenario, p.seed)
	procs, opts, byz, judged, err := r.Live()
	if err != nil {
		v.err = fmt.Errorf("serve: request %d: %w", p.req.ID, err)
		return v
	}
	opts.MaxJitter, opts.Tick = c.lc.MaxJitter, c.lc.ProtoTick
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	res, err := livenet.Run(ctx, procs, opts)
	v.due = c.ticks()
	v.ran = true
	if res != nil {
		v.msgs = res.Messages
	}
	if err != nil {
		v.partial = res != nil && len(res.Decisions) > 0
	} else {
		j := harness.Judge(r.Inputs, byz, judged, res.Decisions, r.Eps)
		v.ok = j.ValidityOK && j.AgreementOK
	}
	return v
}
