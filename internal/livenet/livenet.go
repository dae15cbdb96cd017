// Package livenet runs the same protocol state machines as the simulator on
// a real concurrent runtime: one goroutine per party, a timed mailbox per
// party as the transport, and wall-clock timers with random message jitter.
// It is the production-shaped deployment path — the discrete-event
// simulator proves properties under adversarial schedules, livenet
// demonstrates the code running under genuine concurrency.
//
// Each party's process is driven by a single goroutine, so process
// implementations need no internal locking (the same single-threaded
// contract the simulator provides). A send pushes the message, stamped
// with its jittered due time, into the recipient's mailbox (mailbox.go);
// the recipient's goroutine sleeps on one reusable timer until the earliest
// due time and takes what has landed. Timer callbacks ride the same
// mailbox, are handed over before data, and are never shed.
//
// The network degrades gracefully rather than wedging: senders never block
// (a push always lands; a full inbox sheds its oldest data item, counted
// per party, even while its owner is wedged or down), the
// loss/dup/flap options inject wall-clock network faults for soak testing,
// and Reliable routes every send through the ack/retransmit transport
// (internal/relnet) — the same sublayer the simulator's lossy scenario
// axes exercise deterministically. When the context expires the partial
// Result (who decided, who degraded, every transport counter) is returned
// alongside ErrTimeout instead of being discarded.
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
	// InboxDepth bounds how many delivered data messages may wait for a
	// party (default 4096; the buffer grows on demand up to it). When the
	// inbox is full the oldest waiting message is shed (counted in
	// Result.Shed) so that senders never block.
	InboxDepth int
	// Loss is the per-send probability that the network silently drops
	// the message (counted in Result.Dropped).
	Loss float64
	// Dup is the per-send probability that the network delivers a second
	// copy of the message after additional jitter (counted in
	// Result.Duped).
	Dup float64
	// FlapParties makes parties 0..FlapParties-1 go dark (all their
	// inbound and outbound traffic dropped) for one staggered wall-clock
	// window each, then resume with their in-memory state intact — the
	// live analogue of the simulator's "flap" scenario axis.
	FlapParties int
	// FlapAfter is when the first flap window opens (default 50ms).
	FlapAfter time.Duration
	// FlapStagger separates consecutive parties' windows (default 50ms).
	FlapStagger time.Duration
	// FlapLen is each window's length (default 100ms).
	FlapLen time.Duration
	// Reliable wraps every process in the ack/retransmit transport
	// (internal/relnet), so lost and duplicated frames are retransmitted
	// and deduplicated exactly as in the simulator's reliable runs.
	Reliable bool
	// RestartParties makes parties 0..RestartParties-1 crash and recover
	// once each under restart supervision: the supervisor checkpoints the
	// party's state on its owning goroutine, kills it at a staggered
	// wall-clock instant (its decision is withdrawn, its queued inbox
	// discarded, all state newer than the checkpoint lost), holds it down
	// for RestartDown, then restores the checkpoint and rejoins it via the
	// protocol's catch-up re-announce — the live analogue of the
	// simulator's "recover" scenario axis. Restart-supervised processes
	// must support checkpointing (the built-in protocols do).
	RestartParties int
	// RestartAfter is when the first kill fires (default 75ms).
	RestartAfter time.Duration
	// RestartStagger separates consecutive parties' kills (default 25ms).
	RestartStagger time.Duration
	// RestartDown is how long a killed party stays dark before it rejoins
	// (default 50ms). While down its inbox sheds as usual; everything
	// queued is discarded at the moment of rejoin, as a real process
	// restart would lose its socket buffers.
	RestartDown time.Duration
	// RestartLag is how long before the kill the checkpoint is taken
	// (default 0: the checkpoint is taken at the kill instant, so only
	// in-flight traffic is lost). A positive lag rolls the party back to
	// genuinely stale state, which only converges when the protocol's
	// rejoin path can re-learn the gap (adaptive + Reliable).
	RestartLag time.Duration
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
	// Dropped counts sends the injected loss and flap faults discarded.
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
	// Transport aggregates the ack/retransmit counters across parties
	// when the run used Options.Reliable; zero otherwise.
	Transport relnet.Stats
	// Restarts counts completed kill/rejoin cycles across all parties
	// under restart supervision.
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

	ctls []chan ctlKind // restart supervision; nil without RestartParties

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
	for i := range net.boxes {
		net.boxes[i].init(opts.InboxDepth)
		a := &net.parties[i]
		a.net, a.id = net, sim.PartyID(i)
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
// time and flap window is measured on.
func (n *network) now() time.Duration { return time.Since(n.start) }

// dark reports whether a party is inside its flap window at clock time t.
func (n *network) dark(id sim.PartyID, t time.Duration) bool {
	if int(id) >= n.opts.FlapParties {
		return false
	}
	open := n.opts.FlapAfter + time.Duration(id)*n.opts.FlapStagger
	return t >= open && t < open+n.opts.FlapLen
}

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
// that goroutine has exited.
type liveAPI struct {
	net *network
	id  sim.PartyID
	src splitmix
	rng *rand.Rand

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
// the loss, flap and dup draws from the sender's rng, and pushed into the
// recipient's mailbox. The mailbox keeps the slice, so post copies data
// unless the caller hands it a copy to share; it returns the copy in use.
func (a *liveAPI) post(to sim.PartyID, now time.Duration, data, shared []byte) []byte {
	net := a.net
	a.messages++
	if net.opts.Loss > 0 && a.rng.Float64() < net.opts.Loss {
		a.dropped++
		return shared
	}
	if net.dark(a.id, now) || net.dark(to, now) {
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
	box.push(now, now+a.jitter(), msg)
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
	var ctl chan ctlKind
	var sp snapshotter
	var snap []byte
	if net.ctls != nil && net.ctls[id] != nil {
		ctl = net.ctls[id]
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
			// Crash: withdraw the decision, go dark for RestartDown (the
			// inbox sheds behind our back), then restart from the
			// checkpoint.
			net.undecide(id)
			down := time.NewTimer(net.opts.RestartDown)
			select {
			case <-done:
				down.Stop()
				return false
			case <-down.C:
			}
			// The dead process's socket buffers are gone: discard every
			// message that landed while it was down. Timer callbacks
			// survive (stale tags are ignored by their handlers), so
			// retransmit schedules keep their cadence across the restart.
			box.crash(net.now())
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

	// One timer per party, re-armed for the earliest due time whenever the
	// party runs out of landed work.
	var sleep *time.Timer
	defer func() {
		if sleep != nil {
			sleep.Stop()
		}
	}()
	for {
		it, ok, wait := box.next(net.now())
		if ok {
			if !it.timer {
				p.Deliver(it.from, it.data)
			} else if th != nil {
				th.OnTimer(it.tag)
			}
			// A busy party never reaches the blocking select below, so it
			// polls for cancellation and supervision between items.
			select {
			case <-done:
				return
			default:
			}
			if ctl != nil {
				select {
				case c := <-ctl:
					if !control(c) {
						return
					}
				default:
				}
			}
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
	if opts.FlapParties > len(procs) {
		opts.FlapParties = len(procs)
	}
	if opts.FlapAfter <= 0 {
		opts.FlapAfter = 50 * time.Millisecond
	}
	if opts.FlapStagger <= 0 {
		opts.FlapStagger = 50 * time.Millisecond
	}
	if opts.FlapLen <= 0 {
		opts.FlapLen = 100 * time.Millisecond
	}
	if opts.RestartParties > len(procs) {
		opts.RestartParties = len(procs)
	}
	if opts.RestartAfter <= 0 {
		opts.RestartAfter = 75 * time.Millisecond
	}
	if opts.RestartStagger <= 0 {
		opts.RestartStagger = 25 * time.Millisecond
	}
	if opts.RestartDown <= 0 {
		opts.RestartDown = 50 * time.Millisecond
	}
	for i := 0; i < opts.RestartParties; i++ {
		if _, ok := procs[i].(snapshotter); !ok {
			return nil, fmt.Errorf("livenet: party %d process %T does not support checkpoint restart", i, procs[i])
		}
	}

	var rel []*relnet.Proc
	if opts.Reliable {
		rel = make([]*relnet.Proc, len(procs))
		wrapped := make([]sim.Process, len(procs))
		for i, p := range procs {
			rel[i] = relnet.Wrap(p)
			wrapped[i] = rel[i]
		}
		procs = wrapped
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	net := newNetwork(len(procs), opts)
	net.ctx, net.cancel = runCtx, cancel
	if opts.RestartParties > 0 {
		net.ctls = make([]chan ctlKind, len(procs))
		for i := 0; i < opts.RestartParties; i++ {
			// Room for a checkpoint and a kill with the party still busy.
			net.ctls[i] = make(chan ctlKind, 4)
		}
	}

	net.start = time.Now()
	var wg sync.WaitGroup
	for i, proc := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.parties[i].run(proc)
		}()
	}

	// Restart supervision: checkpoint and kill messages land on the party's
	// control channel and are processed on its owning goroutine, so no
	// snapshot ever observes torn protocol state.
	for i := 0; i < opts.RestartParties; i++ {
		ctl := net.ctls[i]
		sendCtl := func(c ctlKind) {
			select {
			case ctl <- c:
			case <-runCtx.Done():
			}
		}
		killAt := opts.RestartAfter + time.Duration(i)*opts.RestartStagger
		if opts.RestartLag > 0 {
			ckptAt := killAt - opts.RestartLag
			if ckptAt < 0 {
				ckptAt = 0
			}
			time.AfterFunc(ckptAt, func() { sendCtl(ctlCheckpoint) })
			time.AfterFunc(killAt, func() { sendCtl(ctlKill) })
		} else {
			// Lag zero: checkpoint at the kill instant, so only in-flight
			// traffic is lost. Both messages ride one timer to keep their
			// order.
			time.AfterFunc(killAt, func() { sendCtl(ctlCheckpoint); sendCtl(ctlKill) })
		}
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
		if rel != nil {
			ts := rel[i].TransportStats()
			res.Transport.DataSent += ts.DataSent
			res.Transport.Retransmits += ts.Retransmits
			res.Transport.AcksSent += ts.AcksSent
			res.Transport.DupsSuppressed += ts.DupsSuppressed
			res.Transport.GiveUps += ts.GiveUps
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
