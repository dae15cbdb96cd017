package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/wire"
)

// Snapshotter is the crash-recovery surface every protocol party
// implements next to its Reset(): Snapshot serializes the party's full
// volatile state (round buckets, seen bitsets, witness ring, RBC slabs)
// into the versioned internal/checkpoint format, Restore replaces the
// party's state with a previously taken snapshot of the same shape, and
// Rejoin re-announces the party's current position after a restart so
// peers (and the party's own quorums) can make progress again — the
// catch-up messages are all idempotent re-sends that receivers dedup
// through their normal first-wins paths.
//
// Snapshot appends to a caller-owned buffer and Restore recycles existing
// round state through the party's free lists, so a warm recovery run
// allocates nothing. Restore may only be applied to a party configured
// with the identical shape (the snapshot carries n/t/mode for validation);
// it never touches the party's API wiring, so it is safe mid-run. Every
// error Restore returns, a shape mismatch included, wraps
// checkpoint.ErrMalformed or checkpoint.ErrVersion (FuzzRestore pins it).
type Snapshotter interface {
	Snapshot(buf []byte) ([]byte, error)
	Restore(data []byte) error
	Rejoin()
}

var (
	_ Snapshotter = (*AsyncAA)(nil)
	_ Snapshotter = (*SyncAA)(nil)
	_ Snapshotter = (*WitnessAA)(nil)
)

// maxSnapBuckets caps the bucket count a snapshot may declare (ring plus
// Byzantine spill; real executions stay far below).
const maxSnapBuckets = 1 << 16

// appendSparseF64 encodes a seen-bitset plus the value slot of every set
// bit, in ascending origin order.
func appendSparseF64(buf []byte, seen []uint64, vals []float64) []byte {
	buf = checkpoint.AppendWords(buf, seen)
	for wi, word := range seen {
		for word != 0 {
			buf = checkpoint.AppendF64(buf, vals[wi<<6+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return buf
}

// readSparseF64 decodes appendSparseF64's encoding into seen and vals
// (shapes must match the writing party's) and returns the set-bit count.
func readSparseF64(d *checkpoint.Dec, seen []uint64, vals []float64) (int, error) {
	d.Words(seen)
	if err := d.Err(); err != nil {
		return 0, err
	}
	cnt := 0
	for wi, word := range seen {
		for word != 0 {
			idx := wi<<6 + bits.TrailingZeros64(word)
			if idx >= len(vals) {
				return 0, fmt.Errorf("%w: snapshot origin %d out of range %d", checkpoint.ErrMalformed, idx, len(vals))
			}
			vals[idx] = d.F64()
			cnt++
			word &= word - 1
		}
	}
	return cnt, d.Err()
}

// --- AsyncAA ---

// Snapshot implements Snapshotter: the adaptive INIT/DECIDED stores, the
// round ring and spill buckets, and the protocol position, appended to buf
// in the checkpoint format.
func (a *AsyncAA) Snapshot(buf []byte) ([]byte, error) {
	buf = checkpoint.Begin(buf)
	buf = checkpoint.AppendUvarint(buf, uint64(a.p.N))
	buf = checkpoint.AppendUvarint(buf, uint64(a.p.T))
	buf = checkpoint.AppendBool(buf, a.p.Adaptive)
	buf = checkpoint.AppendF64(buf, a.input)
	buf = checkpoint.AppendF64(buf, a.v)
	buf = checkpoint.AppendUvarint(buf, uint64(a.round))
	buf = checkpoint.AppendUvarint(buf, uint64(a.horizon))
	buf = checkpoint.AppendBool(buf, a.started)
	buf = checkpoint.AppendBool(buf, a.decided)
	buf = checkpoint.AppendF64(buf, a.initLo)
	buf = checkpoint.AppendF64(buf, a.initHi)
	buf = appendSparseF64(buf, a.initSeen, a.initVals)
	buf = appendSparseF64(buf, a.frozenSeen, a.frozenVals)
	// Buckets in ascending round order — ring slots are walked for their
	// tags and spill keys sorted through the reusable scratch, so the same
	// state always encodes to the same bytes.
	a.snapRounds = a.snapRounds[:0]
	for _, b := range a.ring {
		if b != nil {
			a.snapRounds = append(a.snapRounds, b.round)
		}
	}
	for r := range a.spill {
		a.snapRounds = append(a.snapRounds, r)
	}
	slices.Sort(a.snapRounds) // allocation-free, unlike sort.Slice's closure
	buf = checkpoint.AppendUvarint(buf, uint64(len(a.snapRounds)))
	for _, r := range a.snapRounds {
		b := a.bucket(r, false)
		buf = checkpoint.AppendUvarint(buf, uint64(r))
		buf = appendSparseF64(buf, b.seen, b.vals)
	}
	return checkpoint.Seal(buf), nil
}

// Restore implements Snapshotter. The party keeps its configuration and
// API wiring; every volatile field is replaced by the snapshot's state,
// with current buckets recycled through the free list first.
func (a *AsyncAA) Restore(data []byte) error {
	d, err := checkpoint.Open(data)
	if err != nil {
		return err
	}
	n, t, adaptive := d.Uvarint(), d.Uvarint(), d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if int(n) != a.p.N || int(t) != a.p.T || adaptive != a.p.Adaptive {
		return fmt.Errorf("%w: snapshot shape n=%d t=%d adaptive=%v does not match party n=%d t=%d adaptive=%v",
			checkpoint.ErrMalformed, n, t, adaptive, a.p.N, a.p.T, a.p.Adaptive)
	}
	// Drop the current volatile state exactly as a same-shape Reset does.
	a.recycle()

	a.input = d.F64()
	a.v = d.F64()
	a.round = uint32(d.Uvarint())
	a.horizon = uint32(d.Uvarint())
	a.started = d.Bool()
	a.decided = d.Bool()
	a.initLo = d.F64()
	a.initHi = d.F64()
	if a.initCnt, err = readSparseF64(&d, a.initSeen, a.initVals); err != nil {
		return err
	}
	if a.frozenCnt, err = readSparseF64(&d, a.frozenSeen, a.frozenVals); err != nil {
		return err
	}
	nb := d.Uvarint()
	if nb > maxSnapBuckets {
		return fmt.Errorf("%w: snapshot declares %d round buckets", checkpoint.ErrMalformed, nb)
	}
	for i := uint64(0); i < nb; i++ {
		r := uint32(d.Uvarint())
		if d.Err() != nil {
			return d.Err()
		}
		b := a.bucket(r, true)
		if b.cnt, err = readSparseF64(&d, b.seen, b.vals); err != nil {
			return err
		}
	}
	return d.Done()
}

// Rejoin implements Snapshotter: re-announce the restored position. A
// decided party re-registers its decision with the runtime (the restart
// supervisor withdrew it at kill time; both runtimes dedup the re-call)
// and, when adaptive, re-multicasts DECIDED; an in-progress party
// re-sends its current round value, and a pre-quorum adaptive party
// re-sends INIT — all idempotent at every receiver.
func (a *AsyncAA) Rejoin() {
	if a.err != nil || a.api == nil {
		return
	}
	switch {
	case a.decided:
		a.api.Decide(a.v)
		if a.p.Adaptive {
			a.wireBuf = wire.AppendDecided(a.wireBuf[:0], wire.Decided{Value: a.v})
			a.api.Multicast(a.wireBuf)
		}
	case a.started:
		a.sendRound()
	case a.p.Adaptive:
		a.wireBuf = wire.AppendInit(a.wireBuf[:0], wire.Init{Value: a.input})
		a.api.Multicast(a.wireBuf)
	}
}

// --- SyncAA ---

// Snapshot implements Snapshotter.
func (s *SyncAA) Snapshot(buf []byte) ([]byte, error) {
	buf = checkpoint.Begin(buf)
	buf = checkpoint.AppendUvarint(buf, uint64(s.p.N))
	buf = checkpoint.AppendUvarint(buf, uint64(s.p.T))
	buf = checkpoint.AppendF64(buf, s.v)
	buf = checkpoint.AppendUvarint(buf, uint64(s.round))
	buf = checkpoint.AppendUvarint(buf, uint64(s.horizon))
	buf = checkpoint.AppendBool(buf, s.decided)
	count := 0
	for _, b := range s.rounds {
		if b != nil {
			count++
		}
	}
	buf = checkpoint.AppendUvarint(buf, uint64(count))
	for r, b := range s.rounds {
		if b != nil {
			buf = checkpoint.AppendUvarint(buf, uint64(r))
			buf = appendSparseF64(buf, b.seen, b.vals)
		}
	}
	return checkpoint.Seal(buf), nil
}

// Restore implements Snapshotter. The fixed horizon is part of the shape:
// a snapshot from a differently configured run is rejected.
func (s *SyncAA) Restore(data []byte) error {
	d, err := checkpoint.Open(data)
	if err != nil {
		return err
	}
	n, t := d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(n) != s.p.N || int(t) != s.p.T {
		return fmt.Errorf("%w: snapshot shape n=%d t=%d does not match party n=%d t=%d",
			checkpoint.ErrMalformed, n, t, s.p.N, s.p.T)
	}
	v := d.F64()
	round := uint32(d.Uvarint())
	horizon := uint32(d.Uvarint())
	decided := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if horizon != s.horizon {
		return fmt.Errorf("%w: snapshot horizon %d, party horizon %d", checkpoint.ErrMalformed, horizon, s.horizon)
	}
	for i, b := range s.rounds {
		if b != nil {
			b.clear()
			s.freeBuckets = append(s.freeBuckets, b)
			s.rounds[i] = nil
		}
	}
	s.v, s.round, s.decided = v, round, decided
	count := d.Uvarint()
	if count > uint64(len(s.rounds)) {
		return fmt.Errorf("%w: snapshot declares %d round buckets for horizon %d", checkpoint.ErrMalformed, count, horizon)
	}
	for i := uint64(0); i < count; i++ {
		r := d.Uvarint()
		if d.Err() != nil {
			return d.Err()
		}
		if r >= uint64(len(s.rounds)) {
			return fmt.Errorf("%w: snapshot round %d beyond horizon %d", checkpoint.ErrMalformed, r, horizon)
		}
		var b *roundBucket
		if k := len(s.freeBuckets); k > 0 {
			b = s.freeBuckets[k-1]
			s.freeBuckets[k-1] = nil
			s.freeBuckets = s.freeBuckets[:k-1]
		} else {
			b = newRoundBucket(s.p.N)
		}
		b.round = uint32(r)
		s.rounds[r] = b
		if b.cnt, err = readSparseF64(&d, b.seen, b.vals); err != nil {
			return err
		}
	}
	return d.Done()
}

// Rejoin implements Snapshotter: restart the current round's multicast and
// timer. The synchronous baseline's guarantees still rest on the synchrony
// assumption — a recovery window longer than the round pace shows up as
// the usual lost-synchrony Err, which is the honest outcome.
func (s *SyncAA) Rejoin() {
	if s.err != nil || s.api == nil {
		return
	}
	if s.decided {
		// Re-register the withdrawn decision; both runtimes dedup.
		s.api.Decide(s.v)
		return
	}
	if s.round == 0 {
		return
	}
	s.beginRound()
}

// --- WitnessAA ---

// Snapshot implements Snapshotter: the witness ring (value slots,
// delivered/satisfied bitsets, pending report masks) plus the underlying
// RBC broadcaster's slabs.
func (w *WitnessAA) Snapshot(buf []byte) ([]byte, error) {
	buf = checkpoint.Begin(buf)
	buf = checkpoint.AppendUvarint(buf, uint64(w.p.N))
	buf = checkpoint.AppendUvarint(buf, uint64(w.p.T))
	buf = checkpoint.AppendF64(buf, w.v)
	buf = checkpoint.AppendUvarint(buf, uint64(w.round))
	buf = checkpoint.AppendUvarint(buf, uint64(w.horizon))
	buf = checkpoint.AppendBool(buf, w.decided)
	count := 0
	for i := range w.rounds {
		if w.rounds[i].arr != nil || w.rounds[i].sentRep {
			count++
		}
	}
	buf = checkpoint.AppendUvarint(buf, uint64(count))
	for r := range w.rounds {
		rr := &w.rounds[r]
		if rr.arr == nil && !rr.sentRep {
			continue
		}
		buf = checkpoint.AppendUvarint(buf, uint64(r))
		buf = checkpoint.AppendBool(buf, rr.sentRep)
		buf = checkpoint.AppendBool(buf, rr.arr != nil)
		if a := rr.arr; a != nil {
			buf = appendSparseF64(buf, a.have, a.vals)
			buf = checkpoint.AppendWords(buf, a.sat)
			buf = checkpoint.AppendWords(buf, a.pendActive)
			for wi, word := range a.pendActive {
				for word != 0 {
					f := wi<<6 + bits.TrailingZeros64(word)
					buf = checkpoint.AppendWords(buf, a.pendMask[f*w.words:(f+1)*w.words])
					word &= word - 1
				}
			}
		}
	}
	if w.bcast != nil {
		buf = w.bcast.AppendState(buf)
	}
	return checkpoint.Seal(buf), nil
}

// Restore implements Snapshotter. The broadcaster is reset through its
// normal recycling path and refilled from the snapshot's slab records.
func (w *WitnessAA) Restore(data []byte) error {
	d, err := checkpoint.Open(data)
	if err != nil {
		return err
	}
	n, t := d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(n) != w.p.N || int(t) != w.p.T {
		return fmt.Errorf("%w: snapshot shape n=%d t=%d does not match party n=%d t=%d",
			checkpoint.ErrMalformed, n, t, w.p.N, w.p.T)
	}
	v := d.F64()
	round := uint32(d.Uvarint())
	horizon := uint32(d.Uvarint())
	decided := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if horizon != w.horizon {
		return fmt.Errorf("%w: snapshot horizon %d, party horizon %d", checkpoint.ErrMalformed, horizon, w.horizon)
	}
	for i := range w.rounds {
		if a := w.rounds[i].arr; a != nil {
			w.recycleArrays(a)
		}
		w.rounds[i] = witRound{}
	}
	w.v, w.round, w.decided = v, round, decided
	count := d.Uvarint()
	if count > uint64(len(w.rounds)) {
		return fmt.Errorf("%w: snapshot declares %d witness rounds for horizon %d", checkpoint.ErrMalformed, count, horizon)
	}
	for i := uint64(0); i < count; i++ {
		if err := w.restoreRound(&d); err != nil {
			return err
		}
	}
	if w.bcast != nil {
		if err := w.bcast.Reset(w.p.N, w.p.T, uint16(w.api.ID()), w.mcast); err != nil {
			return err
		}
		w.bcast.SetMaxRound(w.horizon)
		if err := w.bcast.RestoreState(&d); err != nil {
			return err
		}
	}
	return d.Done()
}

func (w *WitnessAA) restoreRound(d *checkpoint.Dec) error {
	r := d.Uvarint()
	if d.Err() != nil {
		return d.Err()
	}
	if r >= uint64(len(w.rounds)) {
		return fmt.Errorf("%w: snapshot witness round %d beyond horizon %d", checkpoint.ErrMalformed, r, w.horizon)
	}
	rr := &w.rounds[r]
	rr.sentRep = d.Bool()
	hasArr := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if !hasArr {
		return nil
	}
	a := w.arrays(uint32(r))
	var err error
	if a.haveCnt, err = readSparseF64(d, a.have, a.vals); err != nil {
		return err
	}
	d.Words(a.sat)
	d.Words(a.pendActive)
	if d.Err() != nil {
		return d.Err()
	}
	a.satCnt = 0
	for _, word := range a.sat {
		a.satCnt += bits.OnesCount64(word)
	}
	for wi, word := range a.pendActive {
		for word != 0 {
			f := wi<<6 + bits.TrailingZeros64(word)
			if f >= w.p.N {
				return fmt.Errorf("%w: pending reporter %d out of range", checkpoint.ErrMalformed, f)
			}
			d.Words(a.pendMask[f*w.words : (f+1)*w.words])
			word &= word - 1
		}
	}
	return d.Err()
}

// Rejoin implements Snapshotter: re-broadcast the current round's value
// (receivers' first-SEND-wins dedup makes this idempotent) and, if the
// party had already filed its report for the round, re-multicast it.
func (w *WitnessAA) Rejoin() {
	if w.err != nil || w.api == nil {
		return
	}
	if w.decided {
		// Re-register the withdrawn decision; both runtimes dedup.
		w.api.Decide(w.v)
		return
	}
	if w.round == 0 || w.bcast == nil {
		return
	}
	w.bcast.Broadcast(w.round, w.v)
	rr := &w.rounds[w.round]
	if !rr.sentRep || rr.arr == nil {
		return
	}
	senders := w.sendersBuf[:0]
	for wi, word := range rr.arr.have {
		for word != 0 {
			senders = append(senders, uint16(wi*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	w.sendersBuf = senders[:0]
	w.wireBuf = wire.AppendReport(w.wireBuf[:0], wire.Report{Round: w.round, Senders: senders})
	w.api.Multicast(w.wireBuf)
}
