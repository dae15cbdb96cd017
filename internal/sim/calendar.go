package sim

import "math/bits"

// calendarQueue is the simulator's default event core: a timing wheel of
// one-tick buckets over the near future and an overflow min-heap for entries
// beyond the wheel horizon. Each bucket is a chain of fixed-size chunks of
// 16-byte tickEntry copies: Push writes the entry once into the tail chunk
// of its bucket, and PopTick appends each chunk of the tick to the caller's
// buffer with one bulk copy before returning the chunks to a free list.
// Both paths walk memory sequentially, and a fixed chunk size fits any
// bucket, so recycled chunks serve sparse and dense ticks alike. Push and
// PopTick are amortized O(1) per entry, versus the binary heap's O(log M) —
// the difference is the dominant cost of large-n sweeps, where M (messages
// in flight) grows with n².
//
// Ordering invariant. Deliveries must happen in strict (at, Seq) order,
// and Seq is assigned monotonically at push time, so a bucket's FIFO chain
// is Seq-ordered as long as entries enter it in push order: a bucket gives
// an entry's tick and its position gives Seq order, so buckets store
// neither. Far-future entries take a detour through the overflow heap,
// which keeps both; they are migrated into the wheel the moment their tick
// enters the wheel window (drainOverflow runs after every window advance,
// before control returns to the pusher), so a direct push can never slot
// in underneath an older overflow entry. The overflow heap itself pops in
// (at, Seq) order, keeping migration appends sorted too.
const (
	wheelBits = 11
	// wheelSize is the wheel horizon in ticks. The standard schedulers
	// assign delays well under it (the largest, heavytail's cap and
	// staggered's base+n·step at n=256, stay in the hundreds); anything
	// bigger — up to MaxDelayCap — overflows to the heap.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1

	// chunkEvents is the bucket chunk capacity (4 KB of 16-byte entries).
	chunkEvents = 256
)

// calChunk is one link of a bucket chain: ev[:n] in push order.
type calChunk struct {
	ev   [chunkEvents]tickEntry
	n    int
	next *calChunk
}

// calBucket is a FIFO chain of chunks; nil when empty.
type calBucket struct {
	head, tail *calChunk
}

type calendarQueue struct {
	wheel    [wheelSize]calBucket
	occupied [wheelSize / 64]uint64 // one bit per non-empty bucket
	free     *calChunk              // recycled chunks, linked through next
	// base is the earliest tick the wheel window [base, base+wheelSize)
	// can hold. It only advances within a run; Reset rewinds it to 0.
	base     Time
	inWheel  int
	overflow eventHeap
}

func newCalendarQueue() *calendarQueue { return &calendarQueue{} }

// Len implements eventQueue.
func (q *calendarQueue) Len() int { return q.inWheel + q.overflow.Len() }

// release empties a bucket's chain onto the free list. Entries hold no
// pointers, so the chunks are reused without clearing.
func (q *calendarQueue) release(b *calBucket) {
	for c := b.head; c != nil; {
		next := c.next
		c.n, c.next = 0, q.free
		q.free = c
		c = next
	}
	b.head, b.tail = nil, nil
}

// Reset implements eventQueue: it empties the wheel and overflow heap and
// rewinds the window to tick zero, keeping every chunk on the free list for
// the next run. Cost is O(entries still pending), not O(chunks): only the
// occupied buckets — found through the occupancy bitmap — are released, so
// a context recycled from a large-n run resets in constant time for small-n
// runs. Which chunk backs which bucket is invisible to delivery order, so a
// reset queue and a fresh one are observably identical.
func (q *calendarQueue) Reset() {
	if q.inWheel > 0 {
		for wi, word := range q.occupied {
			for word != 0 {
				slot := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				q.release(&q.wheel[slot])
			}
			q.occupied[wi] = 0
		}
	}
	q.base = 0
	q.inWheel = 0
	q.overflow.Reset()
}

// Push implements eventQueue.
func (q *calendarQueue) Push(at Time, seq uint64, e tickEntry) {
	if at >= q.base+wheelSize {
		q.overflow.Push(at, seq, e)
		return
	}
	q.insert(at, e)
}

// insert appends e to the wheel bucket of tick at, which must lie inside
// the window.
func (q *calendarQueue) insert(at Time, e tickEntry) {
	slot := int(at) & wheelMask
	b := &q.wheel[slot]
	c := b.tail
	if c == nil || c.n == chunkEvents {
		c = q.free
		if c != nil {
			q.free = c.next
			c.next = nil
		} else {
			c = new(calChunk)
		}
		if b.tail == nil {
			b.head = c
			q.occupied[slot>>6] |= 1 << uint(slot&63)
		} else {
			b.tail.next = c
		}
		b.tail = c
	}
	c.ev[c.n] = e
	c.n++
	q.inWheel++
}

// drainOverflow migrates every overflow entry whose tick has entered the
// wheel window. Called after every base advance, so bucket chains stay
// Seq-ordered (see the ordering invariant above).
func (q *calendarQueue) drainOverflow() {
	for q.overflow.Len() > 0 && q.overflow.items[0].at < q.base+wheelSize {
		it := q.overflow.Pop()
		q.insert(it.at, it.e)
	}
}

// nextTick returns the earliest occupied tick. inWheel must be > 0.
func (q *calendarQueue) nextTick() Time {
	start := int(q.base) & wheelMask
	w := start >> 6
	word := q.occupied[w] &^ ((1 << uint(start&63)) - 1)
	// One full wrap plus a re-visit of the start word's low bits.
	for i := 0; i <= wheelSize/64; i++ {
		if word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			return q.base + Time((slot-start)&wheelMask)
		}
		w = (w + 1) & (wheelSize/64 - 1)
		word = q.occupied[w]
	}
	panic("sim: calendar queue occupancy bitmap out of sync")
}

// PopTick implements eventQueue.
func (q *calendarQueue) PopTick(buf []tickEntry) ([]tickEntry, Time) {
	if q.inWheel == 0 {
		if q.overflow.Len() == 0 {
			return buf, 0
		}
		// Wheel is empty: jump the window to the overflow minimum.
		q.base = q.overflow.items[0].at
		q.drainOverflow()
	}
	t := q.nextTick()
	q.base = t
	// The window just advanced; pull newly eligible far-future entries in
	// before any post-delivery push can reach their buckets. None of them
	// can land on tick t itself (they were beyond the previous horizon,
	// and t is inside it).
	q.drainOverflow()
	slot := int(t) & wheelMask
	b := &q.wheel[slot]
	for c := b.head; c != nil; c = c.next {
		buf = append(buf, c.ev[:c.n]...)
		q.inWheel -= c.n
	}
	q.release(b)
	q.occupied[slot>>6] &^= 1 << uint(slot&63)
	return buf, t
}
