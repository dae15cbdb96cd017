package core

import (
	"math/bits"

	"repro/internal/sim"
)

// roundBucket is one round's dense reception state: a value slot per
// origin, a seen bitset, and the received count. It replaces the
// map[sim.PartyID]float64 buckets of the early protocol versions, so the
// per-message hot path is an array store plus a bit test, and view
// assembly walks contiguous memory — the protocol-side half of the
// struct-of-arrays layout the large-n sweeps need.
//
// Like the witness protocol's per-round arrays, buckets recycle through a
// free list: clear re-zeroes only the seen words (value slots are
// overwritten before they are read, guarded by the bitset).
type roundBucket struct {
	round uint32 // the round this bucket currently holds (ring tag)
	cnt   int
	vals  []float64
	seen  []uint64
}

// newRoundBucket allocates a bucket for n parties.
func newRoundBucket(n int) *roundBucket {
	return &roundBucket{
		vals: make([]float64, n),
		seen: make([]uint64, (n+63)/64),
	}
}

// fitStore re-fits a per-origin value store and its seen bitset to n
// parties by capacity: it reslices when the capacity suffices and allocates
// only when it does not. The seen words are zeroed over the full capacity,
// so a later regrow by reslicing exposes only zero words.
func fitStore(vals []float64, seen []uint64, n int) ([]float64, []uint64) {
	if cap(vals) < n {
		vals = make([]float64, n)
	}
	words := (n + 63) / 64
	if cap(seen) < words {
		seen = make([]uint64, words)
	}
	clear(seen[:cap(seen)])
	return vals[:n], seen[:words]
}

// add records from's value; it reports false for a duplicate sender.
func (b *roundBucket) add(from sim.PartyID, v float64) bool {
	wd, bit := int(from)>>6, uint64(1)<<(uint(from)&63)
	if b.seen[wd]&bit != 0 {
		return false
	}
	b.seen[wd] |= bit
	b.vals[from] = v
	b.cnt++
	return true
}

// has reports whether from already contributed.
func (b *roundBucket) has(from sim.PartyID) bool {
	return b.seen[int(from)>>6]&(1<<(uint(from)&63)) != 0
}

// clear empties the bucket for reuse.
func (b *roundBucket) clear() {
	for i := range b.seen {
		b.seen[i] = 0
	}
	b.cnt = 0
	b.round = 0
}

// appendValues appends the bucket's values to out in ascending origin
// order. The view multisets are order-insensitive (every consumer sorts or
// reduces by min/max), so the switch from map iteration order is
// unobservable.
func (b *roundBucket) appendValues(out []float64) []float64 {
	for wi, word := range b.seen {
		for word != 0 {
			out = append(out, b.vals[wi<<6+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return out
}
