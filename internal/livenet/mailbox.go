package livenet

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// item is one thing a party's loop hands to its process: a message
// (Deliver(from, data)) or, with timer set, a timer callback (OnTimer(tag)).
type item struct {
	from  sim.PartyID
	data  []byte
	tag   uint64
	timer bool
}

// key is an item in flight: slot names it in the mailbox's slab, and it
// lands once the run's clock (an offset from network.start) reaches due.
// seq breaks ties in push order. Sixteen bytes, so the heap sifts keys, not
// items.
type key struct {
	due  time.Duration
	seq  uint32
	slot uint32
}

// before orders keys by (due, seq). seq is compared modulo 2^32, which is
// exact while fewer than 2^31 pushes separate two items in flight.
func (k key) before(o key) bool {
	return k.due < o.due || (k.due == o.due && int32(k.seq-o.seq) < 0)
}

// ring is a FIFO of slab slots that grows on demand. It holds at most max
// slots; a push into a full ring drops the oldest.
type ring struct {
	buf     []uint32
	head, n int
	max     int
}

// push appends s and reports the oldest slot if it was dropped for it.
func (r *ring) push(s uint32) (dropped uint32, shed bool) {
	if r.n == len(r.buf) {
		if r.n == r.max {
			dropped, shed = r.pop()
		} else {
			grown := min(max(2*len(r.buf), 16), r.max)
			buf := make([]uint32, grown)
			copy(buf, r.buf[r.head:])
			copy(buf[len(r.buf)-r.head:], r.buf[:r.head])
			r.buf, r.head = buf, 0
		}
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = s
	r.n++
	return dropped, shed
}

// pop removes the oldest slot; ok is false when the ring is empty.
func (r *ring) pop() (s uint32, ok bool) {
	if r.n == 0 {
		return 0, false
	}
	s = r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return s, true
}

// mailbox is everything addressed to one party: what is still in flight (a
// min-heap of keys by due time) and what has landed and waits for the
// party's loop. Every item sits in one slab slot from its push until the
// owner's take after the one that handed it over, or until it is shed or
// a crash discards it.
//
// Senders only insert, under the recipient's lock, and never block. The
// one owner takes a whole batch per lock hold: everything due at one clock
// reading, timers first, as slots it reads from the slab. A push lands
// what is due, shedding data beyond the depth, only when the mailbox
// already holds more than depth items, so a wedged or killed owner's
// mailbox keeps shedding behind its back and its memory stays bounded.
type mailbox struct {
	mu    sync.Mutex
	slab  []item   // every item held, in flight, landed or in the owner's batch
	free  uint32   // 1 + the first unused slab slot, 0 if none; item.tag links the rest
	heap  []key    // in flight, min by (due, seq)
	seq   uint32   // the last push's
	ready ring     // landed data; a full ring sheds its oldest
	fired []uint32 // landed timers, in landing order; never shed
	shed  int64    // data items dropped from a full ready ring
	// wake holds at most one token: "the heap minimum moved earlier than
	// the owner may be sleeping for".
	wake chan struct{}
}

// init readies a zero mailbox that holds at most depth landed data items,
// with room for room items before its buffers grow.
func (m *mailbox) init(depth, room int) {
	m.slab = make([]item, 0, room)
	m.heap = make([]key, 0, room)
	m.ready.buf = make([]uint32, room)
	m.ready.max = depth
	m.wake = make(chan struct{}, 1)
}

// push puts it in flight until due and signals the owner if it became the
// earliest thing in flight (the owner may be asleep until the previous
// minimum, or with no deadline at all). If the mailbox then holds more
// than its depth, it lands what is due at now.
func (m *mailbox) push(now, due time.Duration, it item) {
	m.mu.Lock()
	s := m.free - 1
	if m.free == 0 {
		s = uint32(len(m.slab))
		m.slab = append(m.slab, it)
	} else {
		m.free = uint32(m.slab[s].tag)
		m.slab[s] = it
	}
	m.seq++
	k := key{due: due, seq: m.seq, slot: s}
	i := len(m.heap)
	h := append(m.heap, k)
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	m.heap = h
	if len(m.heap)+m.ready.n+len(m.fired) > m.ready.max {
		m.land(now)
	}
	m.mu.Unlock()
	if i == 0 {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
}

// pop removes the heap minimum and returns its slot. Callers hold mu and
// have checked that the heap is not empty.
func (m *mailbox) pop() uint32 {
	h := m.heap
	s := h[0].slot
	last := len(h) - 1
	k := h[last]
	h = h[:last]
	m.heap = h
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if i < last {
		h[i] = k
	}
	return s
}

// release empties slot s, dropping its payload, for the next push.
// Callers hold mu.
func (m *mailbox) release(s uint32) {
	m.slab[s] = item{tag: uint64(m.free)}
	m.free = s + 1
}

// land moves everything due at now out of the heap, in (due, seq) order:
// timers to fired, data to ready, counting what a full ring sheds. Callers
// hold mu.
func (m *mailbox) land(now time.Duration) {
	for len(m.heap) > 0 && m.heap[0].due <= now {
		s := m.pop()
		if m.slab[s].timer {
			m.fired = append(m.fired, s)
		} else if old, shed := m.ready.push(s); shed {
			m.release(old)
			m.shed++
		}
	}
}

// take is the owner's step. b is the owner's previous batch, delivered or
// dropped: its slots are freed. Then, under one lock hold, take lands
// everything due at now and moves every landed slot into b, which it
// reuses: fired timers first, then data in (due, seq) order, at most depth
// of it. The owner reads a batch's items from the returned slab without
// the lock. That is safe because its slots are freed only by its next
// take: no push writes a slot that is not free, and a push that outgrows
// the slab copies it to a new array and leaves the owner's view intact.
// sleep is how long until the earliest item still in flight is due;
// sleep < 0 means nothing is in flight.
func (m *mailbox) take(now time.Duration, b []uint32) (batch []uint32, slab []item, sleep time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range b {
		m.release(s)
	}
	m.land(now)
	b = append(b[:0], m.fired...)
	m.fired = m.fired[:0]
	for {
		s, ok := m.ready.pop()
		if !ok {
			break
		}
		b = append(b, s)
	}
	if len(m.heap) == 0 {
		return b, m.slab, -1
	}
	return b, m.slab, m.heap[0].due - now
}

// crash is what a killed party's restart does to its mailbox and to rest,
// the undelivered remainder of its current batch: landed data (the dead
// process's socket buffers) is discarded, uncounted; fired timers, rest's
// timers and everything still in flight survive. It returns what is left
// of rest, the timers a batch holds first; the dropped slots are freed
// with the rest of the batch by the next take.
func (m *mailbox) crash(now time.Duration, rest []uint32) []uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.land(now)
	for {
		s, ok := m.ready.pop()
		if !ok {
			break
		}
		m.release(s)
	}
	timers := 0
	for timers < len(rest) && m.slab[rest[timers]].timer {
		timers++
	}
	return rest[:timers]
}
