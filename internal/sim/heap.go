package sim

// tickEntry is one queued in-flight copy: 16 bytes and no pointers, so the
// queues copy entries as plain memory and never clear them. A message copy
// names its send's header in the payload arena (ref; see payloadArena) and
// its recipient (to >= 0): sender, Seq, Sent and payload come from the
// header, which every copy of a multicast and every duplicate shares. A
// timer expiry carries its tag in ref and its party as to = ^party (party 0
// is -1); nothing observes a timer's Seq or Sent.
type tickEntry struct {
	ref uint64
	to  int32
}

// timer reports whether the entry is a timer expiry.
func (e *tickEntry) timer() bool { return e.to < 0 }

// party returns the recipient of a message or the party of a timer:
// to ^ (to >> 31) is to when to >= 0 and ^to otherwise, without a branch.
func (e *tickEntry) party() PartyID { return PartyID(e.to ^ e.to>>31) }

// heapItem is a tickEntry with its delivery tick and send sequence number,
// the (at, seq) key the heap orders by: 32 bytes.
type heapItem struct {
	at  Time
	seq uint64
	e   tickEntry
}

// eventHeap is a binary min-heap ordered by (delivery time, send sequence).
// The sequence tiebreak makes executions fully deterministic for a given
// scheduler and seed. A hand-rolled heap (rather than container/heap) avoids
// per-operation interface allocations in the simulator's hot loop.
//
// The heap is the reference configuration's event core (Config.Reference);
// the calendar queue in calendar.go replaces it in production and is
// pinned trace-equivalent by the equivalence tests.
type eventHeap struct {
	items []heapItem
}

var _ eventQueue = (*eventHeap)(nil)

// PopTick implements eventQueue: it pops every entry at the earliest
// pending tick, in Seq order (the heap's tiebreak).
func (h *eventHeap) PopTick(buf []tickEntry) ([]tickEntry, Time) {
	if len(h.items) == 0 {
		return buf, 0
	}
	t := h.items[0].at
	for len(h.items) > 0 && h.items[0].at == t {
		buf = append(buf, h.Pop().e)
	}
	return buf, t
}

func (h *eventHeap) Len() int { return len(h.items) }

// Reset implements eventQueue: it empties the heap, keeping the backing
// array.
func (h *eventHeap) Reset() { h.items = h.items[:0] }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j] // pointers: an item copy costs more than the compare
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Push implements eventQueue.
func (h *eventHeap) Push(at Time, seq uint64, e tickEntry) {
	h.items = append(h.items, heapItem{at: at, seq: seq, e: e})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the earliest item. It must not be called on an
// empty heap.
func (h *eventHeap) Pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
