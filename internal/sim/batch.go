package sim

import "slices"

// This file holds the two tick bodies of the run loop. The per-envelope
// body (runTickUnbatched) is the reference semantics. The batched body
// (runTickBatched) groups a dense tick's events by destination in a
// reusable staging arena and hands each party its whole tick in one
// DeliverBatch call, so a party's protocol state is touched once per tick
// (cache-dense at large n) instead of being round-robined against every
// other party's state per envelope.
//
// Equivalence contract. Batched delivery is observably IDENTICAL to
// per-envelope delivery (the reference configuration, Config.Reference):
// every experiment table, delivery trace, and stats counter matches byte
// for byte. Grouping by destination reorders processing across parties
// within a tick, which is invisible to the parties themselves (messages
// have delay >= 1, so no party can observe another party's same-tick
// processing) but WOULD leak through three global channels, each of which
// is closed explicitly:
//
//  1. The scheduler's rng stream and the Seq counter. Unbatched, sends are
//     scheduled (Seq assigned, delay drawn) in the order deliveries trigger
//     them. Batched, sends and timers are DEFERRED: api.Send/SetTimer only
//     record a pending op tagged with the index of the tick event being
//     processed (its trigger), and a tick-end flush schedules the ops in
//     trigger order — a stable counting sort by trigger index — so the Seq
//     and rng streams are exactly the unbatched ones.
//  2. Mid-tick termination. The unbatched loop stops at the exact event
//     that decides the last pending honest party; later same-tick events
//     are never delivered and their sends never happen. Batched, the tick
//     has already been processed out of order when that decision lands, so
//     the flush repairs the overshoot: pending ops triggered after the
//     completing event are dropped with their send-time stats backed out,
//     and deliveries of later-triggered events are removed from the
//     delivered count. Party-local state past the completion point is
//     unobservable (the run is over; honest parties have all decided and
//     emit nothing further by protocol guard).
//  3. The event budget. MaxEvents aborts mid-tick at an exact event count,
//     and the delivered prefix would differ under grouping — so a tick that
//     cannot complete without tripping the budget is handed to the
//     per-envelope body verbatim (state entering the tick is identical by
//     induction, so the abort prefix is too).

// BatchProcess is an optional Process extension: a process that implements
// it receives each tick's envelopes in one DeliverBatch call instead of one
// Deliver call per envelope. Processes that don't implement it are driven
// by a compatibility shim that loops Deliver, so opting in is purely a
// performance choice.
type BatchProcess interface {
	Process
	// DeliverBatch consumes one tick's deliveries by calling batch.Next
	// until its ok result is false. The implementation must process
	// envelopes in the order Next yields them and must be observably
	// equivalent to receiving each envelope through Deliver: sends,
	// decisions, and timer registrations must happen at the same
	// per-envelope points. Any envelopes left unconsumed when DeliverBatch
	// returns are delivered through Deliver by the runtime.
	DeliverBatch(batch *Batch)
}

// Batch iterates one party's deliveries for one tick, in Seq order. The
// runtime owns the Batch; it is valid only during the DeliverBatch call it
// is passed to. Pulling envelopes through the iterator (rather than
// receiving a plain slice) is what lets the simulator attribute the sends a
// protocol emits to the exact envelope being processed — the bookkeeping
// behind the deferred-flush equivalence argument at the top of this file.
type Batch struct {
	net    *Network
	ps     *partyState
	events []tickEntry
	idxs   []int32
	pos    int
}

// Next returns the sender and payload of the batch's next envelope, with
// ok false once the batch is exhausted. The payload aliases the payload
// arena, like Process.Deliver's, and is valid until the DeliverBatch call
// returns — copy anything retained past it. Interleaved timer expiries are
// dispatched to the process's OnTimer from inside Next, at their exact tick
// position, so a BatchProcess that also uses timers needs no extra
// handling. Returning the two values a delivery needs, rather than an
// envelope, keeps the per-delivery cost to index arithmetic.
func (b *Batch) Next() (from PartyID, data []byte, ok bool) {
	n := b.net
	for b.pos < len(b.idxs) {
		i := b.idxs[b.pos]
		b.pos++
		if n.crashed[b.ps.id] {
			// A crash (send-budget exhaustion) mid-batch drops the rest of
			// the party's tick, exactly as the unbatched loop skips events
			// to a crashed destination.
			continue
		}
		ev := &b.events[i]
		n.curTrig = i
		if ev.timer() {
			if th, ok := b.ps.proc.(TimerHandler); ok {
				th.OnTimer(ev.ref)
			}
			continue
		}
		n.stats.MessagesDelivered++
		n.delivTrig = append(n.delivTrig, i)
		from, data := n.arena.message(ev.ref)
		return from, data, true
	}
	return 0, nil, false
}

// drain delivers whatever the process left unconsumed (trailing timers, or
// envelopes if DeliverBatch returned early) through the per-envelope path,
// so a partial consumer cannot change observable behavior.
func (b *Batch) drain() {
	for b.pos < len(b.idxs) {
		i := b.idxs[b.pos]
		b.pos++
		b.net.deliverEvent(b.ps, &b.events[i], i)
	}
}

// pendingOp is one deferred send, multicast, or timer registration,
// recorded during batched tick processing and scheduled by flushPending in
// trigger order. A multicast coalesces into a single op (mcastTo > 0: the
// truncation-adjusted recipient count) so the pending volume scales with
// protocol actions, not fan-out. Like tickEntry, it holds no pointers: ref
// and n are a send's arena handle and payload length, or a timer's tag and
// -1.
type pendingOp struct {
	ref     uint64
	delay   Time
	from    PartyID
	to      PartyID
	trig    int32
	mcastTo int32
	n       int32
}

// batchTickMin is the tick size below which production skips grouping: a
// sparse tick (most parties receive at most one envelope) gains nothing
// from destination grouping, so it runs through the per-envelope body
// instead of paying the staging and deferred-flush bookkeeping. The bodies
// are equivalent per tick, so the choice is free per tick.
const batchTickMin = 16

// runTickBatched processes one dense tick: it stages the entries by
// destination, hands each party its group with sends, timers, and observer
// callbacks deferred, then flushes the deferred ops and replays the
// observer in trigger order, cut at the completing entry if the run ends
// mid-tick.
func (n *Network) runTickBatched(batch []tickEntry) {
	// Staging stores indices into the tick slice (not copies); batch is
	// stable until the next PopTick. Parties are drained in first-
	// appearance order.
	for i := range batch {
		to := batch[i].party()
		if len(n.stage[to]) == 0 {
			n.touched = append(n.touched, int32(to))
		}
		n.stage[to] = append(n.stage[to], int32(i))
	}
	n.deferOps = true
	n.decideTrig = -1
	n.delivTrig = n.delivTrig[:0]
	for _, pi := range n.touched {
		n.deliverPartyBatch(n.parties[pi], batch)
		n.stage[pi] = n.stage[pi][:0]
	}
	n.touched = n.touched[:0]
	n.deferOps = false

	maxTrig := int32(len(batch))
	if n.pendingHonest == 0 {
		// The run completed mid-tick: the unbatched loop would have stopped
		// at the completing event. Back out deliveries of later-triggered
		// events and flush only ops triggered at or before it.
		maxTrig = n.decideTrig
		for _, trig := range n.delivTrig {
			if trig > maxTrig {
				n.stats.MessagesDelivered--
			}
		}
	}
	n.flushPending(maxTrig)
	n.fireObservers(batch, maxTrig)
}

// fireObservers replays the tick's deliveries to the observer, in trigger
// (Seq) order with the completion overshoot dropped — exactly the sequence
// the unbatched loop would have reported. Deferring the callbacks to tick
// end means an observer that reads simulation state (the harness trajectory
// sampler) sees end-of-tick state for every delivery of the tick rather
// than each intermediate state; consumers rely only on tick-boundary state,
// which is identical across modes (no party can observe another party's
// same-tick processing).
func (n *Network) fireObservers(batch []tickEntry, maxTrig int32) {
	if n.observer == nil || len(n.delivTrig) == 0 {
		return
	}
	slices.Sort(n.delivTrig)
	for _, trig := range n.delivTrig {
		if trig > maxTrig {
			break
		}
		n.observer(n.now, n.envOf(&batch[trig]))
	}
}

// envOf builds the public Envelope of a message copy for the observer:
// Seq and Sent come from the send header the copy shares.
func (n *Network) envOf(ev *tickEntry) Envelope {
	seq0, sent, from, data := n.arena.header(ev.ref)
	return Envelope{From: from, To: PartyID(ev.to), Data: data, Sent: sent, Seq: seq0 + uint64(ev.to)}
}

// deliverPartyBatch hands a party its staged tick, through DeliverBatch
// when the process opts in and through the per-envelope shim otherwise.
func (n *Network) deliverPartyBatch(ps *partyState, events []tickEntry) {
	idxs := n.stage[ps.id]
	if bp, ok := ps.proc.(BatchProcess); ok {
		b := &n.bat
		*b = Batch{net: n, ps: ps, events: events, idxs: idxs}
		bp.DeliverBatch(b)
		b.drain()
		*b = Batch{} // drop the process and tick references
		return
	}
	for _, i := range idxs {
		n.deliverEvent(ps, &events[i], i)
	}
}

// deliverEvent is one per-envelope delivery step (shim and drain path).
// Observer callbacks are deferred to the tick-end replay (fireObservers).
func (n *Network) deliverEvent(ps *partyState, ev *tickEntry, trig int32) {
	if n.crashed[ps.id] {
		return
	}
	n.curTrig = trig
	if ev.timer() {
		if th, ok := ps.proc.(TimerHandler); ok {
			th.OnTimer(ev.ref)
		}
		return
	}
	n.stats.MessagesDelivered++
	n.delivTrig = append(n.delivTrig, trig)
	ps.proc.Deliver(n.arena.message(ev.ref))
}

// runTickUnbatched processes one tick with the reference semantics: Seq
// order, immediate scheduling, inline observer, and per-event budget and
// termination checks. Every tick of the reference configuration runs here,
// and so do production's sparse ticks and the (at most one) tick in which
// the event budget can trip.
func (n *Network) runTickUnbatched(batch []tickEntry, events *int, budget int) error {
	for bi := range batch {
		if n.pendingHonest == 0 {
			return nil
		}
		if *events >= budget {
			return ErrEventBudget
		}
		*events++
		ev := &batch[bi]
		to := ev.party()
		if n.crashed[to] {
			continue
		}
		dst := n.parties[to]
		if ev.timer() {
			if th, ok := dst.proc.(TimerHandler); ok {
				th.OnTimer(ev.ref)
			}
			continue
		}
		n.stats.MessagesDelivered++
		dst.proc.Deliver(n.arena.message(ev.ref))
		if n.observer != nil {
			n.observer(n.now, n.envOf(ev))
		}
	}
	return nil
}

// flushPending schedules the tick's deferred ops: Seq assignment,
// scheduler delay draws, honest-delay tracking, and queue pushes happen
// here, in trigger order (see sortPend), which makes the Seq and rng
// streams identical to the unbatched loop's. Ops with trig > maxTrig were
// triggered after the run-completing event: the unbatched loop never
// reached them, so they are dropped and their send-time stats backed out.
func (n *Network) flushPending(maxTrig int32) {
	if len(n.pend) == 0 {
		return
	}
	n.sortPend()
	for i := range n.pend {
		op := &n.pend[i]
		if op.trig > maxTrig {
			// Triggered past the completion point: the unbatched loop never
			// emitted these; back out their send-time accounting. Timer
			// registrations were never counted as sends — just drop them.
			if op.n < 0 {
				continue
			}
			sends := 1
			if op.mcastTo > 0 {
				sends = int(op.mcastTo)
			}
			n.stats.MessagesSent -= sends
			n.stats.BytesSent -= sends * int(op.n)
			if !n.faulty[op.from] {
				n.stats.HonestMessagesSent -= sends
				n.stats.HonestBytesSent -= sends * int(op.n)
			}
			continue
		}
		if op.n < 0 {
			n.scheduleTimer(op.from, op.delay, op.ref)
			continue
		}
		data := n.arena.payload(op.ref, op.n)
		if op.mcastTo > 0 {
			for to := PartyID(0); to < PartyID(op.mcastTo); to++ {
				n.scheduleSend(op.from, to, data, op.ref, to == 0)
			}
		} else {
			n.scheduleSend(op.from, op.to, data, op.ref, true)
		}
	}
	n.pend = n.pend[:0]
}

// sortPend orders n.pend by trigger, stably. Triggers index the tick's
// batch, so a counting sort over [0, max trig] is linear in the tick. Each
// party's ops arrive in trigger order and parties are concatenated one
// after another, so the list is already sorted whenever each party's
// triggers follow the previous party's (always, with one receiving party);
// it is then left as it is.
func (n *Network) sortPend() {
	maxTrig, sorted := int32(0), true
	for i := range n.pend {
		if k := n.pend[i].trig; k < maxTrig {
			sorted = false
		} else {
			maxTrig = k
		}
	}
	if sorted {
		return
	}
	count := slices.Grow(n.pendCount[:0], int(maxTrig)+1)[:maxTrig+1]
	clear(count)
	for i := range n.pend {
		count[n.pend[i].trig]++
	}
	pos := int32(0)
	for k, c := range count {
		count[k] = pos
		pos += c
	}
	out := slices.Grow(n.pendSorted[:0], len(n.pend))[:len(n.pend)]
	for i := range n.pend {
		op := &n.pend[i]
		out[count[op.trig]] = *op
		count[op.trig]++
	}
	n.pend, n.pendSorted, n.pendCount = out, n.pend[:0], count
}

// scheduleTimer assigns the next Seq and queues a timer expiry on party p:
// the tag rides in the entry itself, with no arena header.
func (n *Network) scheduleTimer(p PartyID, delay Time, tag uint64) {
	n.seq++
	n.queue.Push(n.now+delay, n.seq, tickEntry{ref: tag, to: ^int32(p)})
}

// scheduleSend assigns the next Seq, draws the scheduler's fate, and
// queues the send — the single tail of both the unbatched send path and
// the batched flush, so the Seq/rng streams and any lossy-network fates
// are identical across delivery modes. data is the arena payload of handle
// ref; the scheduler sees it through the scratch envelope. A queued copy
// holds only the handle and the recipient: the rest of the envelope is in
// the send header, which the first copy of a send writes (first: every
// unicast, and a multicast's copy to party 0). A multicast's later copies
// share it, since Seq rises by one per recipient and seq0 = Seq - to stays
// constant; a multicast always starts at party 0 and crash truncation
// only cuts its tail. The header is written before the fate is drawn, so
// a dropped first copy still leaves it for the rest. The fate can drop
// the send (nothing queued) or duplicate it (a second copy at
// Delay+DupExtra sharing the header).
func (n *Network) scheduleSend(from, to PartyID, data []byte, ref uint64, first bool) {
	n.seq++
	if first {
		n.arena.setHeader(ref, n.seq-uint64(to), n.now, from, len(data))
	}
	// Field by field: a whole-struct store of a pointer-holding Envelope
	// compiles to a typedmemmove with a bulk write barrier.
	env := &n.env
	env.From, env.To, env.Data, env.Sent, env.Seq = from, to, data, n.now, n.seq
	f := FateOf(n.cfg.Scheduler, env, n.rng)
	if f.Drop {
		// Dropped sends never feed MaxHonestDelay: round complexity is
		// measured on messages the network actually delivers.
		n.stats.MessagesDropped++
		return
	}
	if !n.faulty[from] && !n.faulty[to] && f.Delay > n.maxHonestDelay {
		n.maxHonestDelay = f.Delay
	}
	e := tickEntry{ref: ref, to: int32(to)}
	n.queue.Push(n.now+f.Delay, n.seq, e)
	if f.DupExtra > 0 {
		// The duplicate shares the header (Seq and payload): arena blocks
		// are recycled only at Reset, so the bytes stay valid for the later
		// delivery. The extra lag is not an honest delay — the primary copy
		// already bounds eventual delivery.
		n.stats.MessagesDuped++
		n.queue.Push(n.now+f.Delay+f.DupExtra, n.seq, e)
	}
}
