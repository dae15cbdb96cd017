package core

import (
	"fmt"

	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/wire"
)

// SyncAA is the lock-step synchronous baseline (ProtoSync). Rounds are
// paced by a local timer of length Params.RoundDuration, which must be at
// least the network's maximum message delay for the synchrony assumption to
// hold — the point of the baseline is to show what that assumption buys and
// what it costs when it breaks (experiment E1 runs it under asynchronous
// schedulers to show exactly that).
//
// Each round the party multicasts its value, lets the timer expire, and
// applies the approximation function to everything that arrived for the
// round (at least n−t values under the synchrony assumption with t faults;
// fewer arrivals than the function's minimum is recorded as an Err and the
// party stalls, which the simulator reports as lost liveness).
//
// Reception state is dense: the fixed horizon is known at Init, so rounds
// index directly into a slice of roundBuckets (value slots plus seen
// bitsets) recycled through a free list — no map probes on the delivery
// path.
type SyncAA struct {
	p   Params
	api sim.API
	fn  multiset.Func
	// rounds[r] is round r's bucket (nil until traffic arrives); len is
	// horizon+1, recycled across runs.
	rounds      []*roundBucket
	freeBuckets []*roundBucket
	viewBuf     []float64 // per-round reception scratch, reused across rounds
	wireBuf     []byte    // wire-encoding scratch; runtimes snapshot on send
	v           float64
	round       uint32
	horizon     uint32
	decided     bool
	err         error
}

var (
	_ sim.Process      = (*SyncAA)(nil)
	_ sim.BatchProcess = (*SyncAA)(nil)
	_ sim.TimerHandler = (*SyncAA)(nil)
	_ sim.Estimator    = (*SyncAA)(nil)
)

// NewSyncAA builds a party of the synchronous baseline.
func NewSyncAA(p Params, input float64) (*SyncAA, error) {
	s := &SyncAA{}
	if err := s.Reset(p, input); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-initializes the party for a new run with NewSyncAA's validation,
// recycling the round buckets and scratch buffers (see AsyncAA.Reset).
func (s *SyncAA) Reset(p Params, input float64) error {
	if p.Protocol != ProtoSync {
		return fmt.Errorf("%w: SyncAA requires ProtoSync, got %s", ErrBadParams, p.Protocol)
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
	sameShape := p.N == s.p.N
	for i, b := range s.rounds {
		if b != nil {
			if sameShape {
				b.clear()
				s.freeBuckets = append(s.freeBuckets, b)
			}
			s.rounds[i] = nil
		}
	}
	if !sameShape {
		clear(s.freeBuckets)
		s.freeBuckets = s.freeBuckets[:0]
	}
	s.p = p
	s.fn = p.fn()
	s.v = input
	s.api = nil
	s.round, s.horizon = 0, 0
	s.decided = false
	s.err = nil
	return nil
}

// Init implements sim.Process.
func (s *SyncAA) Init(api sim.API) {
	s.api = api
	r, err := s.p.FixedRounds()
	if err != nil {
		s.err = err
		return
	}
	s.horizon = uint32(r)
	if s.horizon == 0 {
		s.decided = true
		api.Decide(s.v)
		return
	}
	if need := int(s.horizon) + 1; cap(s.rounds) >= need {
		s.rounds = s.rounds[:need]
	} else {
		s.rounds = make([]*roundBucket, need)
	}
	s.round = 1
	s.beginRound()
}

func (s *SyncAA) beginRound() {
	s.wireBuf = wire.AppendValue(s.wireBuf[:0], wire.Value{Round: s.round, Value: s.v})
	s.api.Multicast(s.wireBuf)
	s.api.SetTimer(s.p.RoundDuration, uint64(s.round))
}

// Deliver implements sim.Process.
func (s *SyncAA) Deliver(from sim.PartyID, data []byte) {
	s.deliver(from, data)
}

// DeliverBatch implements sim.BatchProcess: the tick's arrivals are
// ingested in one pass (an O(1) bucket insert each); interleaved round
// timers fire from inside Next at their exact tick positions, so the
// round-boundary view reduce happens once per round in both modes.
func (s *SyncAA) DeliverBatch(b *sim.Batch) {
	for from, data, ok := b.Next(); ok; from, data, ok = b.Next() {
		s.deliver(from, data)
	}
}

// deliver is the shared per-message body.
func (s *SyncAA) deliver(from sim.PartyID, data []byte) {
	if s.err != nil || s.decided {
		return
	}
	kind, err := wire.Peek(data)
	if err != nil || kind != wire.KindValue {
		return
	}
	m, err := wire.UnmarshalValue(data)
	if err != nil || !isUsable(m.Value) {
		return
	}
	// A synchronous party accepts values only for the current round: late
	// values are useless by definition of the model, early ones cannot
	// occur under the synchrony assumption and are buffered defensively.
	if m.Round < s.round || uint64(m.Round) > uint64(s.horizon) {
		return
	}
	if from < 0 || int(from) >= s.p.N {
		return
	}
	b := s.rounds[m.Round]
	if b == nil {
		if k := len(s.freeBuckets); k > 0 {
			b = s.freeBuckets[k-1]
			s.freeBuckets[k-1] = nil
			s.freeBuckets = s.freeBuckets[:k-1]
		} else {
			b = newRoundBucket(s.p.N)
		}
		b.round = m.Round
		s.rounds[m.Round] = b
	}
	b.add(from, m.Value)
}

// OnTimer implements sim.TimerHandler: the round boundary.
func (s *SyncAA) OnTimer(tag uint64) {
	if s.err != nil || s.decided || tag != uint64(s.round) {
		return
	}
	view := s.viewBuf[:0]
	if b := s.rounds[s.round]; b != nil {
		view = b.appendValues(view)
		b.clear()
		s.freeBuckets = append(s.freeBuckets, b)
		s.rounds[s.round] = nil
	}
	s.viewBuf = view
	if len(view) < s.fn.MinInputs() {
		s.err = fmt.Errorf("core: sync round %d: %d arrivals, below %s minimum %d (synchrony assumption violated)",
			s.round, len(view), s.fn.Name(), s.fn.MinInputs())
		return
	}
	next, err := multiset.ApplyInPlace(s.fn, view)
	if err != nil {
		s.err = fmt.Errorf("core: sync round %d: %w", s.round, err)
		return
	}
	s.v = next
	s.round++
	if s.round > s.horizon {
		s.decided = true
		s.api.Decide(s.v)
		return
	}
	s.beginRound()
}

// Err reports a synchrony-assumption or invariant failure.
func (s *SyncAA) Err() error { return s.err }

// Estimate implements sim.Estimator.
func (s *SyncAA) Estimate() (float64, bool) { return s.v, true }
