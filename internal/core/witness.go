package core

import (
	"fmt"
	"math/bits"

	"repro/internal/multiset"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// WitnessAA is the optimal-resilience asynchronous Byzantine protocol
// (ProtoWitness, n ≥ 3t+1). Each round:
//
//  1. Every party reliably broadcasts its current value (internal/rbc), so
//     a Byzantine party cannot tell different parties different values.
//  2. When a party has RBC-delivered round values from n−t distinct
//     origins, it multicasts a report: the set of origins it holds.
//  3. A received report is satisfied once every origin it lists has been
//     RBC-delivered locally. When n−t reports are satisfied, the party
//     applies the approximation function to its delivered multiset and
//     advances. The n−t satisfied reporters are its witnesses.
//
// Two honest parties share ≥ n−2t ≥ t+1 witnesses, hence an honest common
// witness w; both parties' multisets contain w's full report set (≥ n−t
// values, identical by RBC agreement). With f = MidExtremes∘reduce^t the
// median of those ≥ 2t+1 common values survives both parties' trims, which
// yields provable per-round halving, and trimming t from each side restores
// validity against the ≤ t Byzantine values per multiset. This is the
// witness technique the optimal-resilience literature built on the 1987
// foundations; it costs Θ(n³) messages per round (n reliable broadcasts of
// Θ(n²) each), which experiment E4 measures against the Θ(n²) protocols.
//
// Bookkeeping is dense: per-round state lives in index-addressed arrays
// (value slots by origin, delivered/satisfied bitsets, pending reports as
// origin bitmasks), so report coverage checks are word-wide subset tests
// instead of map probes, and completed rounds recycle their arrays through
// a free ring and release the RBC arena slab (rbc.ReleaseRound).
type WitnessAA struct {
	p       Params
	api     sim.API
	bcast   *rbc.Broadcaster
	fn      multiset.Func
	words   int        // bitset words per party set
	rounds  []witRound // indexed by round, 1..horizon
	freeArr []*witArrays
	// Scratch buffers reused across rounds; none survive a Deliver call.
	viewBuf    []float64 // reception view handed to the approximation fn
	maskBuf    []uint64  // origin bitmask of the report being filed
	sendersBuf []uint16  // origins listed in this party's own report
	repScratch []uint16  // decode-into scratch for incoming reports
	wireBuf    []byte    // wire-encoding scratch for report multicasts
	// mcast caches the api.Multicast bound-method value: taking it afresh
	// every Init would allocate a closure per party per run. Rebuilt only
	// when the API identity changes (mcastAPI), which a recycled context
	// never does — its party i always gets the same simulator record.
	mcast    func(data []byte)
	mcastAPI sim.API
	v        float64
	round    uint32
	horizon  uint32
	decided  bool
	err      error
}

// witRound is one round's bookkeeping slot; arr is nil until the round
// sees traffic and is recycled through the free ring after cleanup.
type witRound struct {
	arr     *witArrays
	sentRep bool
}

// witArrays is the dense per-round state: one value slot per origin, a
// delivered-origin bitset, a satisfied-reporter bitset, and the pending
// reports as per-reporter origin bitmasks.
type witArrays struct {
	vals       []float64 // RBC-delivered value per origin
	have       []uint64  // origins delivered locally
	sat        []uint64  // reporters whose report is satisfied
	pendActive []uint64  // reporters with a pending (uncovered) report
	pendMask   []uint64  // words-wide origin mask per reporter
	haveCnt    int
	satCnt     int
}

var (
	_ sim.Process      = (*WitnessAA)(nil)
	_ sim.BatchProcess = (*WitnessAA)(nil)
	_ sim.Estimator    = (*WitnessAA)(nil)
)

// NewWitnessAA builds a party of the witness protocol. Adaptive mode is not
// supported: the witness protocol derives its common round count from the
// public range, which is what makes its guarantees unconditional.
func NewWitnessAA(p Params, input float64) (*WitnessAA, error) {
	w := &WitnessAA{}
	if err := w.Reset(p, input); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset re-initializes the party for a new run with NewWitnessAA's
// validation, recycling the round ring, the dense per-round arrays, the
// broadcaster (rbc slabs included), and every scratch buffer. A shape
// change (different N) drops the shape-bound pools; a same-shape reuse
// allocates nothing after warm-up.
func (w *WitnessAA) Reset(p Params, input float64) error {
	if p.Protocol != ProtoWitness {
		return fmt.Errorf("%w: WitnessAA requires ProtoWitness, got %s", ErrBadParams, p.Protocol)
	}
	if p.Adaptive {
		return fmt.Errorf("%w: witness protocol is fixed-range only", ErrBadParams)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if !isUsable(input) {
		return fmt.Errorf("%w: non-finite input %v", ErrBadParams, input)
	}
	if input < p.Lo || input > p.Hi {
		return fmt.Errorf("%w: input %v outside promised range [%v, %v]",
			ErrBadParams, input, p.Lo, p.Hi)
	}
	sameShape := p.N == w.p.N
	for i := range w.rounds {
		if a := w.rounds[i].arr; a != nil {
			if sameShape {
				w.recycleArrays(a)
			}
			w.rounds[i].arr = nil
		}
	}
	w.rounds = w.rounds[:0]
	if !sameShape {
		clear(w.freeArr)
		w.freeArr = w.freeArr[:0]
	}
	w.p = p
	w.fn = p.fn()
	w.v = input
	w.words = (p.N + 63) / 64
	w.api = nil
	w.round, w.horizon = 0, 0
	w.decided = false
	w.err = nil
	return nil
}

// recycleArrays zeroes a round's bitsets and counters and pushes the
// arrays onto the free ring — the single definition of "clean" shared by
// mid-run cleanup and cross-run Reset.
func (w *WitnessAA) recycleArrays(a *witArrays) {
	for i := range a.have {
		a.have[i] = 0
		a.sat[i] = 0
		a.pendActive[i] = 0
	}
	a.haveCnt = 0
	a.satCnt = 0
	w.freeArr = append(w.freeArr, a)
}

// Init implements sim.Process. All per-run structures are
// reused-or-allocated: a recycled party re-enters Init with warm buffers
// (and a resettable broadcaster) and takes the same code path a fresh one
// does, just without the allocations.
func (w *WitnessAA) Init(api sim.API) {
	w.api = api
	if w.mcast == nil || w.mcastAPI != api {
		w.mcast = api.Multicast
		w.mcastAPI = api
	}
	if w.bcast == nil {
		b, err := rbc.New(w.p.N, w.p.T, uint16(api.ID()), w.mcast)
		if err != nil {
			w.err = err
			return
		}
		w.bcast = b
	} else if err := w.bcast.Reset(w.p.N, w.p.T, uint16(api.ID()), w.mcast); err != nil {
		w.err = err
		return
	}
	r, err := w.p.FixedRounds()
	if err != nil {
		w.err = err
		return
	}
	w.horizon = uint32(r)
	if w.horizon == 0 {
		w.decided = true
		api.Decide(w.v)
		return
	}
	w.bcast.SetMaxRound(w.horizon)
	if need := int(w.horizon) + 1; cap(w.rounds) >= need {
		w.rounds = w.rounds[:need]
		for i := range w.rounds {
			w.rounds[i] = witRound{}
		}
	} else {
		w.rounds = make([]witRound, need)
	}
	if cap(w.maskBuf) >= w.words {
		w.maskBuf = w.maskBuf[:w.words]
	} else {
		w.maskBuf = make([]uint64, w.words)
	}
	if w.viewBuf == nil {
		w.viewBuf = make([]float64, 0, w.p.N)
	}
	if w.sendersBuf == nil {
		w.sendersBuf = make([]uint16, 0, w.p.N)
	}
	w.round = 1
	w.bcast.Broadcast(w.round, w.v)
}

// Deliver implements sim.Process.
func (w *WitnessAA) Deliver(from sim.PartyID, data []byte) {
	w.deliver(from, data)
}

// DeliverBatch implements sim.BatchProcess: a quorum's worth of RBC
// deliveries and reports is integrated in one call per tick. Observable
// behavior (echo/ready/report multicasts, round advances, the decision)
// keeps its exact per-envelope points; the batching win is the warm
// per-party state across the tick's messages.
func (w *WitnessAA) DeliverBatch(b *sim.Batch) {
	for from, data, ok := b.Next(); ok; from, data, ok = b.Next() {
		w.deliver(from, data)
	}
}

// deliver is the shared per-message body.
func (w *WitnessAA) deliver(from sim.PartyID, data []byte) {
	if w.err != nil || w.decided {
		return
	}
	kind, err := wire.Peek(data)
	if err != nil {
		return
	}
	switch kind {
	case wire.KindRBC:
		if d, ok := w.bcast.Handle(uint16(from), data); ok {
			w.onDelivered(d)
		}
	case wire.KindReport:
		m, err := wire.UnmarshalReportInto(data, w.repScratch)
		if err != nil {
			return
		}
		w.repScratch = m.Senders[:0]
		w.onReport(from, m)
	default:
		// Other kinds belong to other protocols; ignore.
	}
}

// arrays returns round's dense state, pulling recycled arrays from the
// free ring (or allocating) on first touch.
func (w *WitnessAA) arrays(round uint32) *witArrays {
	rr := &w.rounds[round]
	if rr.arr != nil {
		return rr.arr
	}
	var a *witArrays
	if k := len(w.freeArr); k > 0 {
		a = w.freeArr[k-1]
		w.freeArr = w.freeArr[:k-1]
	} else {
		sets := make([]uint64, 3*w.words)
		a = &witArrays{
			vals:       make([]float64, w.p.N),
			have:       sets[:w.words:w.words],
			sat:        sets[w.words : 2*w.words : 2*w.words],
			pendActive: sets[2*w.words:],
			pendMask:   make([]uint64, w.p.N*w.words),
		}
	}
	rr.arr = a
	return a
}

// onDelivered records an RBC delivery and re-evaluates reports and quorums.
func (w *WitnessAA) onDelivered(d rbc.Delivery) {
	if !isUsable(d.Value) || d.Round < w.round || d.Round > w.horizon {
		return
	}
	a := w.arrays(d.Round)
	wd, bit := int(d.Origin)>>6, uint64(1)<<(d.Origin&63)
	if a.have[wd]&bit != 0 {
		return
	}
	a.have[wd] |= bit
	a.vals[d.Origin] = d.Value
	a.haveCnt++
	w.maybeReport(d.Round, a)
	w.recheckPending(a)
	w.maybeAdvance()
}

// maybeReport sends this party's report once it holds n−t round values.
func (w *WitnessAA) maybeReport(round uint32, a *witArrays) {
	if w.rounds[round].sentRep || a.haveCnt < w.p.Quorum() {
		return
	}
	w.rounds[round].sentRep = true
	senders := w.sendersBuf[:0]
	for wi, word := range a.have {
		for word != 0 {
			senders = append(senders, uint16(wi*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	w.sendersBuf = senders[:0]
	w.wireBuf = wire.AppendReport(w.wireBuf[:0], wire.Report{Round: round, Senders: senders})
	w.api.Multicast(w.wireBuf)
}

// onReport files a report as satisfied or pending. Only a party's first
// report per round counts.
func (w *WitnessAA) onReport(from sim.PartyID, m wire.Report) {
	if m.Round < w.round || m.Round > w.horizon {
		return
	}
	if len(m.Senders) < w.p.Quorum() || len(m.Senders) > w.p.N {
		return // a valid report lists at least a quorum of origins
	}
	for _, s := range m.Senders {
		if int(s) >= w.p.N {
			return
		}
	}
	if from < 0 || int(from) >= w.p.N {
		return
	}
	a := w.arrays(m.Round)
	wd, bit := int(from)>>6, uint64(1)<<(uint(from)&63)
	if a.sat[wd]&bit != 0 || a.pendActive[wd]&bit != 0 {
		return
	}
	mask := w.maskBuf
	for i := range mask {
		mask[i] = 0
	}
	for _, s := range m.Senders {
		mask[s>>6] |= 1 << (s & 63)
	}
	if subset(mask, a.have) {
		a.sat[wd] |= bit
		a.satCnt++
		w.maybeAdvance()
		return
	}
	copy(a.pendMask[int(from)*w.words:(int(from)+1)*w.words], mask)
	a.pendActive[wd] |= bit
}

// subset reports whether every bit of mask is set in have.
func subset(mask, have []uint64) bool {
	for i, m := range mask {
		if m&^have[i] != 0 {
			return false
		}
	}
	return true
}

// recheckPending re-tests pending reports after a new delivery: a pending
// report is satisfied once its origin mask is a subset of the delivered
// set — a word-wide bitset test per reporter.
func (w *WitnessAA) recheckPending(a *witArrays) {
	for wi, word := range a.pendActive {
		for word != 0 {
			bit := word & -word
			word &^= bit
			f := wi*64 + bits.TrailingZeros64(bit)
			if subset(a.pendMask[f*w.words:(f+1)*w.words], a.have) {
				a.pendActive[wi] &^= bit
				a.sat[wi] |= bit
				a.satCnt++
			}
		}
	}
}

// maybeAdvance finishes the current round while it has n−t satisfied
// witnesses, then either starts the next round or decides.
func (w *WitnessAA) maybeAdvance() {
	for !w.decided && w.err == nil {
		a := w.rounds[w.round].arr
		if a == nil || a.satCnt < w.p.Quorum() {
			return
		}
		view := w.viewBuf[:0]
		for wi, word := range a.have {
			for word != 0 {
				view = append(view, a.vals[wi*64+bits.TrailingZeros64(word)])
				word &= word - 1
			}
		}
		w.viewBuf = view
		next, err := multiset.ApplyInPlace(w.fn, view)
		if err != nil {
			w.err = fmt.Errorf("core: witness round %d: %w", w.round, err)
			return
		}
		w.v = next
		w.cleanup(w.round)
		w.round++
		if w.round > w.horizon {
			w.decided = true
			w.api.Decide(w.v)
			return
		}
		w.bcast.Broadcast(w.round, w.v)
	}
}

// cleanup recycles the round's arrays into the free ring and releases the
// RBC arena slab for the round.
func (w *WitnessAA) cleanup(round uint32) {
	if a := w.rounds[round].arr; a != nil {
		w.recycleArrays(a)
		w.rounds[round].arr = nil
	}
	w.bcast.ReleaseRound(round)
}

// Err reports an internal invariant failure, if any.
func (w *WitnessAA) Err() error { return w.err }

// Estimate implements sim.Estimator.
func (w *WitnessAA) Estimate() (float64, bool) { return w.v, true }

// Round reports the round currently being collected (for tests).
func (w *WitnessAA) Round() uint32 { return w.round }
