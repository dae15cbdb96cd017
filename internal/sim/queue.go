package sim

// eventQueue is the simulator's event core. Both implementations deliver
// events in strict (at, Seq) order: the calendar queue (calendar.go) in
// production and the binary heap (heap.go) in the reference configuration,
// pinned trace-equivalent by the equivalence tests. PopTick exposes the
// whole earliest tick at once so the run loop can batch same-tick
// deliveries without re-consulting the queue structure per event (delays
// are >= 1 tick, so a delivery can never append to the tick being drained).
type eventQueue interface {
	// Len reports the number of pending events.
	Len() int
	// Push inserts an event. Its time must be strictly after every tick
	// already popped (the simulator guarantees this: delays are >= 1).
	Push(e event)
	// PopTick removes every event scheduled at the earliest pending tick
	// and appends them to buf in Seq order, returning the extended slice.
	// It returns buf unchanged when the queue is empty.
	PopTick(buf []event) []event
	// Reset empties the queue and restores its initial ordering state
	// (virtual time restarts at zero) while keeping its storage for the
	// next run.
	Reset()
}

// newEventQueue builds the queue for the configuration: the heap for the
// reference, the calendar queue otherwise.
func newEventQueue(reference bool) eventQueue {
	if reference {
		return &eventHeap{}
	}
	return newCalendarQueue()
}
