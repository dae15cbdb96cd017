package rbc

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/checkpoint"
)

// maxSnapRounds caps the round count a snapshot may declare, so a damaged
// record cannot drive an unbounded restore loop (protocol horizons are
// logarithmic in the promised range and stay far below this).
const maxSnapRounds = maxDenseRounds

// instance flag bits in the snapshot encoding.
const (
	snapTouched = 1 << iota
	snapSendSeen
	snapEchoed
	snapReadied
	snapDelivered
)

// AppendState appends the broadcaster's full volatile state — every round
// slab, instance flag, vote tally, and seen bitset — to buf using the
// checkpoint field primitives, and returns the extended slice. Rounds are
// emitted in ascending round order so identical state always produces
// identical bytes (checkpoint digests are compared across replays).
func (b *Broadcaster) AppendState(buf []byte) []byte {
	buf = checkpoint.AppendUvarint(buf, uint64(b.n))
	buf = checkpoint.AppendUvarint(buf, uint64(b.t))
	buf = checkpoint.AppendUvarint(buf, uint64(b.maxRound))
	count := 0
	b.eachRound(func(uint32, *roundState) { count++ })
	buf = checkpoint.AppendUvarint(buf, uint64(count))
	b.eachRound(func(r uint32, rs *roundState) {
		buf = b.appendRound(buf, r, rs)
	})
	return buf
}

// eachRound visits every live round state in ascending round order.
func (b *Broadcaster) eachRound(fn func(uint32, *roundState)) {
	if b.byRound != nil {
		for r, rs := range b.byRound {
			if rs != nil {
				fn(uint32(r), rs)
			}
		}
		return
	}
	b.snapRounds = b.snapRounds[:0]
	for r := range b.rounds {
		b.snapRounds = append(b.snapRounds, r)
	}
	slices.Sort(b.snapRounds) // allocation-free, unlike sort.Slice's closure
	for _, r := range b.snapRounds {
		fn(r, b.rounds[r])
	}
}

func (b *Broadcaster) appendRound(buf []byte, r uint32, rs *roundState) []byte {
	buf = checkpoint.AppendUvarint(buf, uint64(r))
	buf = checkpoint.AppendInt(buf, rs.active)
	buf = checkpoint.AppendInt(buf, rs.complete)
	buf = checkpoint.AppendBool(buf, rs.doomed)
	buf = checkpoint.AppendBool(buf, rs.freed)
	buf = checkpoint.AppendBool(buf, rs.inst != nil)
	if rs.inst == nil {
		return buf
	}
	for i := range rs.inst {
		st := &rs.inst[i]
		flags := uint64(0)
		if st.touched {
			flags |= snapTouched
		}
		if st.sendSeen {
			flags |= snapSendSeen
		}
		if st.echoed {
			flags |= snapEchoed
		}
		if st.readied {
			flags |= snapReadied
		}
		if st.delivered {
			flags |= snapDelivered
		}
		buf = checkpoint.AppendUvarint(buf, flags)
		if st.delivered {
			buf = checkpoint.AppendF64(buf, st.deliveredAs)
		}
		buf = appendTally(buf, &st.echo)
		buf = appendTally(buf, &st.ready)
	}
	return buf
}

func appendTally(buf []byte, t *tally) []byte {
	buf = checkpoint.AppendWords(buf, t.seen)
	buf = checkpoint.AppendUvarint(buf, uint64(len(t.votes)))
	for _, v := range t.votes {
		buf = checkpoint.AppendF64(buf, v.val)
		buf = checkpoint.AppendInt(buf, int(v.count))
	}
	return buf
}

// RestoreState reads the state AppendState wrote back into the
// broadcaster, which must already be configured (Reset + SetMaxRound) with
// the identical shape — n, t, and round cap are validated against the
// record. Round slabs are re-materialized through the normal free-pool
// path, so a warm restore performs no allocation.
func (b *Broadcaster) RestoreState(d *checkpoint.Dec) error {
	n, t, maxRound := d.Uvarint(), d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(n) != b.n || int(t) != b.t || uint32(maxRound) != b.maxRound {
		return fmt.Errorf("%w: rbc snapshot shape n=%d t=%d max=%d, broadcaster n=%d t=%d max=%d",
			checkpoint.ErrMalformed, n, t, maxRound, b.n, b.t, b.maxRound)
	}
	count := d.Uvarint()
	if count > maxSnapRounds {
		return fmt.Errorf("%w: rbc snapshot declares %d rounds", checkpoint.ErrMalformed, count)
	}
	for i := uint64(0); i < count; i++ {
		if err := b.restoreRound(d); err != nil {
			return err
		}
	}
	return d.Err()
}

func (b *Broadcaster) restoreRound(d *checkpoint.Dec) error {
	r := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if r == 0 || (b.maxRound > 0 && uint32(r) > b.maxRound) || r > maxSnapRounds {
		return fmt.Errorf("%w: rbc snapshot round %d outside cap %d", checkpoint.ErrMalformed, r, b.maxRound)
	}
	rs := b.round(uint32(r))
	rs.active = d.Int()
	rs.complete = d.Int()
	rs.doomed = d.Bool()
	rs.freed = d.Bool()
	materialized := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if rs.active < 0 || rs.active > b.n || rs.complete < 0 || rs.complete > b.n {
		return fmt.Errorf("%w: rbc snapshot round %d counters out of range", checkpoint.ErrMalformed, r)
	}
	if !materialized {
		return nil
	}
	b.materialize(rs)
	for i := range rs.inst {
		st := &rs.inst[i]
		flags := d.Uvarint()
		if err := d.Err(); err != nil {
			return err
		}
		st.touched = flags&snapTouched != 0
		st.sendSeen = flags&snapSendSeen != 0
		st.echoed = flags&snapEchoed != 0
		st.readied = flags&snapReadied != 0
		st.delivered = flags&snapDelivered != 0
		if st.delivered {
			st.deliveredAs = d.F64()
		}
		if err := restoreTally(d, &st.echo, b.n); err != nil {
			return fmt.Errorf("rbc: round %d instance %d echo: %w", r, i, err)
		}
		if err := restoreTally(d, &st.ready, b.n); err != nil {
			return fmt.Errorf("rbc: round %d instance %d ready: %w", r, i, err)
		}
	}
	return d.Err()
}

func restoreTally(d *checkpoint.Dec, t *tally, n int) error {
	d.Words(t.seen)
	nv := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(nv) > n {
		return fmt.Errorf("%w: %d distinct vote values for %d parties", checkpoint.ErrMalformed, nv, n)
	}
	t.votes = t.votes[:0]
	for i := uint64(0); i < nv; i++ {
		val := d.F64()
		count := d.Int()
		if count < 0 || count > n {
			return fmt.Errorf("%w: vote count %d out of range", checkpoint.ErrMalformed, count)
		}
		t.votes = append(t.votes, vote{val: val, count: int32(count)})
	}
	// The per-sender bitset and the value counts must agree; a mismatch
	// means the record is internally inconsistent.
	seen := 0
	for _, w := range t.seen {
		seen += bits.OnesCount64(w)
	}
	total := 0
	for _, v := range t.votes {
		total += int(v.count)
	}
	if seen != total {
		return fmt.Errorf("%w: tally bitset has %d senders, votes total %d", checkpoint.ErrMalformed, seen, total)
	}
	return nil
}
