package sim

// event is a scheduled delivery or timer expiry.
type event struct {
	at    Time
	env   Envelope
	timer bool
	tag   uint64
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
	items []event
}

var _ eventQueue = (*eventHeap)(nil)

// PopTick implements eventQueue: it pops every event at the earliest
// pending tick, in Seq order (the heap's tiebreak).
func (h *eventHeap) PopTick(buf []event) []event {
	if len(h.items) == 0 {
		return buf
	}
	t := h.items[0].at
	for len(h.items) > 0 && h.items[0].at == t {
		buf = append(buf, h.Pop())
	}
	return buf
}

func (h *eventHeap) Len() int { return len(h.items) }

// Reset implements eventQueue: it empties the heap, keeping the backing
// array but dropping the payload references of any still-pending events.
func (h *eventHeap) Reset() {
	for i := range h.items {
		h.items[i] = event{}
	}
	h.items = h.items[:0]
}

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j] // pointers: an event copy costs more than the compare
	if a.at != b.at {
		return a.at < b.at
	}
	return a.env.Seq < b.env.Seq
}

// Push inserts an event.
func (h *eventHeap) Push(e event) {
	h.items = append(h.items, e)
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

// Pop removes and returns the earliest event. It must not be called on an
// empty heap.
func (h *eventHeap) Pop() event {
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
