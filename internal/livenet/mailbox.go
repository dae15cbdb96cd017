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

// pending is an item in flight: it lands once the run's clock (an offset
// from network.start) reaches due. seq breaks ties in push order.
type pending struct {
	due time.Duration
	seq uint64
	item
}

// ring is a FIFO of landed items that grows on demand. With max > 0 it
// holds at most max items and a push into a full ring drops the oldest.
type ring struct {
	buf     []item
	head, n int
	max     int
}

// push appends it and reports whether the oldest item was dropped for it.
func (r *ring) push(it item) (shed bool) {
	if r.n == len(r.buf) {
		if r.max > 0 && r.n == r.max {
			r.buf[r.head] = item{}
			r.head = (r.head + 1) % len(r.buf)
			r.n--
			shed = true
		} else {
			grown := 2 * len(r.buf)
			if grown == 0 {
				grown = 16
			}
			if r.max > 0 && grown > r.max {
				grown = r.max
			}
			buf := make([]item, grown)
			for i := 0; i < r.n; i++ {
				buf[i] = r.buf[(r.head+i)%len(r.buf)]
			}
			r.buf, r.head = buf, 0
		}
	}
	r.buf[(r.head+r.n)%len(r.buf)] = it
	r.n++
	return shed
}

func (r *ring) pop() (item, bool) {
	if r.n == 0 {
		return item{}, false
	}
	it := r.buf[r.head]
	r.buf[r.head] = item{} // release the payload
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return it, true
}

func (r *ring) clear() {
	for r.n > 0 {
		r.pop()
	}
}

// mailbox is everything addressed to one party: what is still in flight
// (a min-heap by due time) and what has landed and waits for the party's
// loop. Senders push under the recipient's lock and never block; the one
// owner takes. Whoever holds the lock lands what has come due, so a
// wedged or killed owner's mailbox keeps shedding behind its back and the
// landed data stays bounded by the ring's depth.
type mailbox struct {
	mu    sync.Mutex
	heap  []pending // in flight, min by (due, seq)
	seq   uint64
	ready ring  // landed data; a full ring sheds its oldest
	fired ring  // landed timers; unbounded, never shed
	shed  int64 // data items dropped from a full ready ring
	// wake holds at most one token: "the heap minimum moved earlier than
	// the owner may be sleeping for".
	wake chan struct{}
}

// init readies a zero mailbox whose ready ring holds at most depth items.
func (m *mailbox) init(depth int) {
	m.ready.max = depth
	m.wake = make(chan struct{}, 1)
}

func (m *mailbox) less(i, j int) bool {
	a, b := &m.heap[i], &m.heap[j]
	return a.due < b.due || (a.due == b.due && a.seq < b.seq)
}

// push puts it in flight until due, lands whatever is due at now, and
// signals the owner if it became the earliest thing in flight (the owner
// may be asleep until the previous minimum, or with no deadline at all).
func (m *mailbox) push(now, due time.Duration, it item) {
	m.mu.Lock()
	m.seq++
	m.heap = append(m.heap, pending{due: due, seq: m.seq, item: it})
	i := len(m.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(i, parent) {
			break
		}
		m.heap[i], m.heap[parent] = m.heap[parent], m.heap[i]
		i = parent
	}
	m.land(now)
	m.mu.Unlock()
	if i == 0 {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
}

// pop removes the heap minimum. Callers hold mu and have checked that the
// heap is not empty.
func (m *mailbox) pop() item {
	it := m.heap[0].item
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	m.heap[last] = pending{}
	m.heap = m.heap[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if m.less(c, least) {
				least = c
			}
		}
		if least == i {
			return it
		}
		m.heap[i], m.heap[least] = m.heap[least], m.heap[i]
		i = least
	}
}

// land moves everything due at now out of the heap, in (due, seq) order:
// timers to fired, data to ready, counting what a full ring sheds. Callers
// hold mu.
func (m *mailbox) land(now time.Duration) {
	for len(m.heap) > 0 && m.heap[0].due <= now {
		it := m.pop()
		if it.timer {
			m.fired.push(it)
		} else if m.ready.push(it) {
			m.shed++
		}
	}
}

// next is the owner's step: land what is due at now and take the oldest
// landed item, timers before data. With nothing landed it reports how long
// until the earliest item in flight is due; sleep < 0 means nothing is in
// flight.
func (m *mailbox) next(now time.Duration) (it item, ok bool, sleep time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.land(now)
	if it, ok = m.fired.pop(); !ok {
		it, ok = m.ready.pop()
	}
	if ok {
		return it, true, 0
	}
	if len(m.heap) == 0 {
		return item{}, false, -1
	}
	return item{}, false, m.heap[0].due - now
}

// crash is what a killed party's restart does to its mailbox: the landed
// data (the dead process's socket buffers) is discarded, uncounted; fired
// timers and everything still in flight survive.
func (m *mailbox) crash(now time.Duration) {
	m.mu.Lock()
	m.land(now)
	m.ready.clear()
	m.mu.Unlock()
}
