package sim

// eventQueue is the simulator's event core. Both implementations deliver
// entries in strict (at, Seq) order: the calendar queue (calendar.go) in
// production and the binary heap (heap.go) in the reference configuration,
// pinned trace-equivalent by the equivalence tests. PopTick exposes the
// whole earliest tick at once so the run loop can batch same-tick
// deliveries without re-consulting the queue structure per entry (delays
// are >= 1 tick, so a delivery can never append to the tick being drained).
type eventQueue interface {
	// Len reports the number of pending entries.
	Len() int
	// Push inserts an entry due at tick at with send sequence number seq.
	// at must be strictly after every tick already popped (the simulator
	// guarantees this: delays are >= 1), and seq must exceed every seq
	// pushed before.
	Push(at Time, seq uint64, e tickEntry)
	// PopTick removes every entry scheduled at the earliest pending tick,
	// appends them to buf in Seq order, and returns the extended slice with
	// that tick. It returns buf unchanged when the queue is empty.
	PopTick(buf []tickEntry) ([]tickEntry, Time)
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
