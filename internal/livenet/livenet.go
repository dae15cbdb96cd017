// Package livenet runs the same protocol state machines as the simulator on
// a real concurrent runtime: one goroutine per party, a timed mailbox per
// party as the transport, and wall-clock timers with random message jitter.
// It is the production-shaped deployment path — the discrete-event
// simulator proves properties under adversarial schedules, livenet
// demonstrates the code running under genuine concurrency.
//
// Each party's process is driven by a single goroutine, so process
// implementations need no internal locking (the same single-threaded
// contract the simulator provides). A send inserts the message, stamped
// with its jittered due time, into the recipient's mailbox (mailbox.go)
// and does nothing else. The recipient's goroutine takes a batch: under
// one lock hold and one clock reading it lands everything due and hands
// it over in a buffer of its own, then delivers the buffer item by item
// without the lock or the clock, and with nothing due it sleeps on one
// reusable timer until the earliest due time. Timer callbacks ride the
// same mailbox, come first in a batch, and are never shed.
//
// The network degrades gracefully rather than wedging: senders never block.
// A take hands over at most InboxDepth data items, shedding the oldest
// beyond them, and a push into a mailbox that already holds more than
// InboxDepth items lands and sheds the same way, so shedding (counted per
// party) goes on while the owner is wedged or down. The fault options are
// the scenario's own values in protocol ticks, Tick long each: loss and
// dup probabilities, the darkness predicate of its flap and outage windows,
// and its restart plans (harness.Recipe.Live lowers a scenario onto them).
// Processes wrapped in the ack/retransmit transport (internal/relnet) heal
// the damage and report their counters in Result.Transport. When the
// context expires the partial Result (who decided, who degraded, every
// transport counter) is returned alongside ErrTimeout instead of being
// discarded.
package livenet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/relnet"
	"repro/internal/sim"
)

// Options configures a live run.
type Options struct {
	// MaxJitter bounds the injected delivery delay: each message is held
	// for a uniform draw from [0, MaxJitter). Zero selects the 2ms
	// default; a negative value injects no delay at all (ordering is then
	// still nondeterministic, from goroutine scheduling).
	MaxJitter time.Duration
	// Tick converts protocol timer ticks (sim.Time) to wall time
	// (default 1ms per tick).
	Tick time.Duration
	// Seed drives jitter and fault-injection randomness (per-party seeded
	// sources, drawn only on the owning goroutine).
	Seed int64
	// WaitFor is how many parties must decide before the run completes
	// (default: all).
	WaitFor int
	// InboxDepth bounds how many landed data messages may wait in a
	// party's mailbox, and how many one batch hands over (default 4096;
	// the buffers grow on demand). Beyond it the oldest landed message is
	// shed (counted in Result.Shed) so that senders never block.
	InboxDepth int
	// Loss is the per-send probability that the network silently drops
	// the message (counted in Result.Dropped).
	Loss float64
	// Dup is the per-send probability that the network delivers a second
	// copy of the message after additional jitter (counted in
	// Result.Duped).
	Dup float64
	// Dark is the scenario's flap and outage darkness (fault.Flap.Dark,
	// fault.Outage.Dark) in protocol ticks: a send is dropped, and counted
	// in Result.Dropped, when its sender is dark at send time or its
	// recipient is dark at its due time, as in the simulator. Nil darkens
	// nothing.
	Dark func(p sim.PartyID, at sim.Time) bool
	// Restarts are the scenario's crash-recovery plans in protocol ticks,
	// checked by sim.CheckRestarts. At Checkpoint (<= 0: the post-Init
	// state) the party's own goroutine snapshots it; at Down it is killed
	// and its decision withdrawn; at Rejoin its queued inbox is discarded,
	// as a real restart loses its socket buffers, the checkpoint restored
	// and the protocol's catch-up re-announce run. The process must support
	// checkpointing (the built-in protocols and relnet's wrapper do).
	Restarts []sim.RestartPlan
}

// Result of a live run. On ErrTimeout the Result still carries the partial
// progress: every decision that landed, who never decided, and the full
// degradation counters.
type Result struct {
	// Decisions maps party index to output for every party that decided.
	Decisions map[sim.PartyID]float64
	// Undecided lists the parties with no decision, ascending.
	Undecided []sim.PartyID
	// Elapsed is the wall time from start to the WaitFor-th decision (or
	// to context expiry).
	Elapsed time.Duration
	// Messages counts point-to-point sends (including retransmissions).
	Messages int64
	// Dropped counts sends the injected loss and darkness discarded.
	Dropped int64
	// Duped counts injected duplicate deliveries.
	Duped int64
	// Shed counts data items discarded from full inboxes to keep senders
	// unblocked.
	Shed int64
	// SendTimeouts is always zero: a push into a mailbox always lands, so
	// no delivery is ever abandoned. The field stays only because the
	// frozen benchmark/ reads it; remove it with the next benchmark PR.
	SendTimeouts int64
	// Degraded lists the parties that lost traffic to shedding or to
	// ack/retransmit give-ups on their links, ascending. A
	// run can degrade and still converge — that is the point of the
	// reliable transport; a give-up, though, means a frame was abandoned
	// for good, so give-up rows deserve scrutiny even in converged runs.
	Degraded []sim.PartyID
	// Transport aggregates the ack/retransmit counters of the processes
	// that report them (relnet's wrapper); zero when none does.
	Transport relnet.Stats
	// Restarts counts completed kill/rejoin cycles across all parties
	// with a restart plan.
	Restarts int64
	// Restarted lists the parties that completed at least one restart
	// cycle, ascending.
	Restarted []sim.PartyID
}

// ErrTimeout is returned when the context expires before enough parties
// decide. The accompanying Result is still valid partial progress.
var ErrTimeout = errors.New("livenet: context done before enough parties decided")

// ctlKind is a restart-supervision control message, processed on the
// party's owning goroutine so snapshots and restores never race protocol
// state.
type ctlKind uint8

const (
	ctlCheckpoint ctlKind = iota
	ctlKill
)

// snapshotter is the structural interface restart-supervised processes
// must implement (satisfied by the core protocols and the relnet wrapper).
type snapshotter interface {
	Snapshot(buf []byte) ([]byte, error)
	Restore(data []byte) error
	Rejoin()
}

type network struct {
	opts    Options
	start   time.Time
	boxes   []mailbox // one per party, indexed by recipient
	parties []liveAPI
	ctx     context.Context
	cancel  context.CancelFunc

	mu         sync.Mutex
	decisions  map[sim.PartyID]float64
	want       int
	doneCh     chan struct{}
	doneOnce   sync.Once
	restartErr error
}

// newNetwork builds the mailboxes and party handles of an n-party run; opts
// has its defaults filled in. The run's clock starts when start is set.
func newNetwork(n int, opts Options) *network {
	net := &network{
		opts:      opts,
		boxes:     make([]mailbox, n),
		parties:   make([]liveAPI, n),
		decisions: make(map[sim.PartyID]float64, n),
		want:      opts.WaitFor,
		doneCh:    make(chan struct{}),
	}
	// Every party multicasts to every party once a round, and the parties
	// drift up to about a round apart, so a mailbox holds under two
	// rounds of traffic: its buffers and the party's batch start there.
	room := min(2*n, opts.InboxDepth)
	for i := range net.boxes {
		net.boxes[i].init(opts.InboxDepth, room)
		a := &net.parties[i]
		a.net, a.id = net, sim.PartyID(i)
		a.batch = make([]uint32, 0, room)
		a.src.Seed(opts.Seed ^ (int64(i+1) * 0x5851F42D4C957F2D))
		a.rng = rand.New(&a.src)
	}
	return net
}

// undecide withdraws a killed party's decision so its rejoin must re-earn
// it. If the run already completed, the withdrawal is moot — the race
// matches the simulator's contract (a run that finishes before a pending
// restart fires stays finished).
func (n *network) undecide(id sim.PartyID) {
	n.mu.Lock()
	delete(n.decisions, id)
	n.mu.Unlock()
}

// fail records the first restart-supervision error (snapshot or restore
// failure); the run's verdict surfaces it.
func (n *network) fail(err error) {
	n.mu.Lock()
	if n.restartErr == nil {
		n.restartErr = err
	}
	n.mu.Unlock()
}

// now is the run's clock: the monotonic offset from start that every due
// time is measured on.
func (n *network) now() time.Duration { return time.Since(n.start) }

// at is the clock time of protocol tick t, and tick the tick of clock time d.
func (n *network) at(t sim.Time) time.Duration   { return time.Duration(t) * n.opts.Tick }
func (n *network) tick(d time.Duration) sim.Time { return sim.Time(d / n.opts.Tick) }

// splitmix is the per-party random source behind sim.API.Rand(): eight
// bytes of state and no seeding pass, against the 4.9 KB lagged-Fibonacci
// register of rng.Source (math/rand's stream), which takes about 3 µs to
// seed once per party per run (BenchmarkSeed in internal/rng; math/rand's
// own seeding takes about 12 µs).
type splitmix struct{ s uint64 }

var _ rand.Source64 = (*splitmix)(nil)

func (r *splitmix) Seed(seed int64) { r.s = uint64(seed) }
func (r *splitmix) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *splitmix) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// liveAPI is one party's handle on the network. Everything in it is
// touched only by the party's own goroutine; Run reads the counters after
// that goroutine has exited. A party with a restart plan has the channel
// its supervision messages ride and its rejoin tick set before the run
// starts. batch is the buffer of slots its mailbox's takes fill.
type liveAPI struct {
	net    *network
	id     sim.PartyID
	src    splitmix
	rng    *rand.Rand
	ctl    chan ctlKind
	rejoin sim.Time
	batch  []uint32

	messages, dropped, duped, restarts int64
}

var _ sim.API = (*liveAPI)(nil)

func (a *liveAPI) ID() sim.PartyID  { return a.id }
func (a *liveAPI) N() int           { return len(a.net.boxes) }
func (a *liveAPI) Rand() *rand.Rand { return a.rng }

func (a *liveAPI) jitter() time.Duration {
	if a.net.opts.MaxJitter <= 0 {
		return 0
	}
	return time.Duration(a.rng.Int63n(int64(a.net.opts.MaxJitter)))
}

// post is one point-to-point send at clock time now: counted, subjected to
// the loss and dup draws from the sender's rng and to the darkness rule,
// and pushed into the recipient's mailbox. The mailbox keeps the slice, so
// post copies data unless the caller hands it a copy to share; it returns
// the copy in use.
func (a *liveAPI) post(to sim.PartyID, now time.Duration, data, shared []byte) []byte {
	net := a.net
	a.messages++
	if net.opts.Loss > 0 && a.rng.Float64() < net.opts.Loss {
		a.dropped++
		return shared
	}
	due := now + a.jitter()
	if dark := net.opts.Dark; dark != nil && (dark(a.id, net.tick(now)) || dark(to, net.tick(due))) {
		a.dropped++
		return shared
	}
	if shared == nil {
		// Copy so the sender may reuse its buffer after the send returns.
		// Every delivery of it — to each recipient of a multicast, and an
		// injected duplicate — shares the copy: deliveries are read-only.
		shared = make([]byte, len(data))
		copy(shared, data)
	}
	msg := item{from: a.id, data: shared}
	box := &net.boxes[to]
	box.push(now, due, msg)
	if net.opts.Dup > 0 && a.rng.Float64() < net.opts.Dup {
		a.duped++
		box.push(now, now+a.jitter()+a.jitter(), msg)
	}
	return shared
}

func (a *liveAPI) Send(to sim.PartyID, data []byte) {
	if to < 0 || int(to) >= len(a.net.boxes) {
		return
	}
	a.post(to, a.net.now(), data, nil)
}

func (a *liveAPI) Multicast(data []byte) {
	now := a.net.now()
	var shared []byte
	for to := range a.net.boxes {
		shared = a.post(sim.PartyID(to), now, data, shared)
	}
}

func (a *liveAPI) SetTimer(delay sim.Time, tag uint64) {
	now := a.net.now()
	a.net.boxes[a.id].push(now, now+time.Duration(delay)*a.net.opts.Tick, item{tag: tag, timer: true})
}

func (a *liveAPI) Decide(value float64) {
	net := a.net
	net.mu.Lock()
	defer net.mu.Unlock()
	if _, dup := net.decisions[a.id]; dup {
		return
	}
	net.decisions[a.id] = value
	if len(net.decisions) >= net.want {
		net.doneOnce.Do(func() { close(net.doneCh) })
	}
}

// run is a party's goroutine: it owns the process and is the only taker
// from the party's mailbox. It returns when the run's context is done.
func (a *liveAPI) run(p sim.Process) {
	net, id := a.net, a.id
	done, box := net.ctx.Done(), &net.boxes[id]
	p.Init(a)
	th, _ := p.(sim.TimerHandler)
	// A nil ctl channel blocks forever in the select, so parties outside
	// restart supervision pay nothing for the extra case.
	ctl := a.ctl
	var sp snapshotter
	var snap []byte
	if ctl != nil {
		sp = p.(snapshotter)
		// The post-Init state is the fallback checkpoint: a kill that
		// outruns its checkpoint message restarts from zero, like the
		// simulator's amnesia axis.
		b, err := sp.Snapshot(nil)
		if err != nil {
			net.fail(fmt.Errorf("livenet: party %d initial checkpoint: %w", id, err))
			net.cancel()
			return
		}
		snap = b
	}
	// rest holds the slots the current batch has yet to deliver, and
	// items is the slab they index, as its take returned it.
	var rest []uint32
	var items []item
	// control handles one supervision message; false means the party is done.
	control := func(c ctlKind) bool {
		switch c {
		case ctlCheckpoint:
			b, err := sp.Snapshot(snap[:0])
			if err != nil {
				net.fail(fmt.Errorf("livenet: party %d checkpoint: %w", id, err))
				net.cancel()
				return false
			}
			snap = b
		case ctlKill:
			// Crash: withdraw the decision, stay down until the plan's
			// rejoin time (the inbox sheds behind our back), then restart
			// from the checkpoint.
			net.undecide(id)
			down := time.NewTimer(net.at(a.rejoin) - net.now())
			select {
			case <-done:
				down.Stop()
				return false
			case <-down.C:
			}
			// The dead process's socket buffers are gone: discard every
			// message that landed while it was down, and the rest of the
			// batch it was killed in. Timer callbacks survive (stale tags
			// are ignored by their handlers), so retransmit schedules keep
			// their cadence across the restart.
			rest = box.crash(net.now(), rest)
			if err := sp.Restore(snap); err != nil {
				net.fail(fmt.Errorf("livenet: party %d restore: %w", id, err))
				net.cancel()
				return false
			}
			sp.Rejoin()
			a.restarts++
		}
		return true
	}

	// One timer per party, re-armed for the earliest due time whenever a
	// take finds nothing landed.
	var sleep *time.Timer
	defer func() {
		if sleep != nil {
			sleep.Stop()
		}
	}()
	for {
		// A busy party never reaches the blocking select below, so it polls
		// for supervision before each item: a kill that has fired is taken
		// before the next delivery, whose ack the restart would forget.
		if ctl != nil {
			select {
			case c := <-ctl:
				if !control(c) {
					return
				}
			default:
			}
		}
		if len(rest) > 0 {
			it := &items[rest[0]]
			rest = rest[1:]
			if !it.timer {
				p.Deliver(it.from, it.data)
			} else if th != nil {
				th.OnTimer(it.tag)
			}
			// Likewise for cancellation, between items.
			select {
			case <-done:
				return
			default:
			}
			continue
		}
		var wait time.Duration
		a.batch, items, wait = box.take(net.now(), a.batch)
		if rest = a.batch; len(rest) > 0 {
			continue
		}
		var due <-chan time.Time
		if wait >= 0 {
			if sleep == nil {
				sleep = time.NewTimer(wait)
			} else {
				sleep.Reset(wait)
			}
			due = sleep.C
		}
		select {
		case <-done:
			return
		case c := <-ctl:
			if !control(c) {
				return
			}
		case <-box.wake:
		case <-due:
		}
	}
}

// Run drives the processes until WaitFor of them decide or the context
// expires. Each process is owned by exactly one goroutine. On context
// expiry the partial Result is returned together with ErrTimeout.
func Run(ctx context.Context, procs []sim.Process, opts Options) (*Result, error) {
	if len(procs) == 0 {
		return nil, errors.New("livenet: no processes")
	}
	for i, p := range procs {
		if p == nil {
			return nil, fmt.Errorf("livenet: nil process at index %d", i)
		}
	}
	if opts.MaxJitter == 0 {
		opts.MaxJitter = 2 * time.Millisecond
	}
	if opts.Tick == 0 {
		opts.Tick = time.Millisecond
	}
	if opts.WaitFor <= 0 || opts.WaitFor > len(procs) {
		opts.WaitFor = len(procs)
	}
	if opts.InboxDepth <= 0 {
		opts.InboxDepth = 4096
	}
	if err := sim.CheckRestarts(len(procs), opts.Restarts); err != nil {
		return nil, err
	}
	for _, rp := range opts.Restarts {
		if _, ok := procs[rp.Party].(snapshotter); !ok {
			return nil, fmt.Errorf("livenet: party %d process %T does not support checkpoint restart", rp.Party, procs[rp.Party])
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	net := newNetwork(len(procs), opts)
	net.ctx, net.cancel = runCtx, cancel
	for _, rp := range opts.Restarts {
		a := &net.parties[rp.Party]
		// Room for a checkpoint and a kill with the party still busy.
		a.ctl, a.rejoin = make(chan ctlKind, 2), rp.Rejoin
	}

	net.start = time.Now()
	// Restart supervision: checkpoint and kill messages land on the party's
	// control channel and are processed on its owning goroutine, so no
	// snapshot ever observes torn protocol state. The timers are set on the
	// run's clock before any party starts, which could otherwise hold this
	// goroutine off the CPU and make every window late.
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()
	for _, rp := range opts.Restarts {
		ctl := net.parties[rp.Party].ctl
		fire := func(t sim.Time, cs ...ctlKind) {
			timers = append(timers, time.AfterFunc(net.at(t)-net.now(), func() {
				for _, c := range cs {
					select {
					case ctl <- c:
					case <-runCtx.Done():
					}
				}
			}))
		}
		switch {
		case rp.Checkpoint <= 0: // the post-Init snapshot stands
			fire(rp.Down, ctlKill)
		case rp.Checkpoint < rp.Down:
			fire(rp.Checkpoint, ctlCheckpoint)
			fire(rp.Down, ctlKill)
		default:
			// A checkpoint at the kill instant loses only in-flight
			// traffic; both messages ride one timer to keep their order.
			fire(rp.Down, ctlCheckpoint, ctlKill)
		}
	}

	var wg sync.WaitGroup
	for i, proc := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.parties[i].run(proc)
		}()
	}

	var err error
	select {
	case <-net.doneCh:
	case <-ctx.Done():
		err = fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
	elapsed := net.now()
	cancel()
	wg.Wait()

	// Every party has exited, so their counters and mailboxes are quiescent.
	net.mu.Lock()
	defer net.mu.Unlock()
	res := &Result{
		Decisions: make(map[sim.PartyID]float64, len(net.decisions)),
		Elapsed:   elapsed,
	}
	for id, v := range net.decisions {
		res.Decisions[id] = v
	}
	for i := range procs {
		id := sim.PartyID(i)
		if _, ok := net.decisions[id]; !ok {
			res.Undecided = append(res.Undecided, id)
		}
		a := &net.parties[i]
		res.Messages += a.messages
		res.Dropped += a.dropped
		res.Duped += a.duped
		shed := net.boxes[i].shed
		res.Shed += shed
		degraded := shed > 0
		if tp, ok := procs[i].(interface{ TransportStats() relnet.Stats }); ok {
			ts := tp.TransportStats()
			res.Transport.Add(ts)
			// A give-up abandoned a frame for good on one of this party's
			// outbound links; that is health-relevant degradation even when
			// the run converged anyway.
			if ts.GiveUps > 0 {
				degraded = true
			}
		}
		if degraded {
			res.Degraded = append(res.Degraded, id)
		}
		if a.restarts > 0 {
			res.Restarts += a.restarts
			res.Restarted = append(res.Restarted, id)
		}
	}
	if err == nil && net.restartErr != nil {
		err = net.restartErr
	}
	return res, err
}
