package sim

// EventCore selects the data structure behind the simulator's event queue.
// Both cores order deliveries by (delivery time, send sequence) and are
// trace-equivalent: the core-equivalence tests in internal/harness pin
// event-for-event identical delivery orders and byte-identical experiment
// tables across the two. The calendar queue is the default (amortized O(1)
// per event); the binary heap is kept as the reference implementation,
// selected through Config.Core.
type EventCore int

const (
	// CoreDefault resolves to the default core, the calendar queue.
	CoreDefault EventCore = iota
	// CoreCalendar is the bucketed calendar queue (timing wheel over Time
	// ticks with an overflow heap and a flat event arena).
	CoreCalendar
	// CoreHeap is the binary min-heap reference core.
	CoreHeap
)

// defaultEventCore is the event core used when Config.Core is CoreDefault.
const defaultEventCore = CoreCalendar

// Resolve maps CoreDefault to the default core, so callers that
// record or compare the core in effect (the BENCH snapshots) name the
// concrete implementation.
func (c EventCore) Resolve() EventCore {
	if c == CoreDefault {
		return defaultEventCore
	}
	return c
}

// String implements fmt.Stringer.
func (c EventCore) String() string {
	switch c {
	case CoreDefault:
		return "default"
	case CoreCalendar:
		return "calendar"
	case CoreHeap:
		return "heap"
	default:
		return "unknown"
	}
}

// eventQueue is the pluggable event core. Both implementations deliver
// events in strict (at, Seq) order; PopTick exposes the whole earliest tick
// at once so the Run loop can batch same-tick deliveries without
// re-consulting the queue structure per event (delays are >= 1 tick, so a
// delivery can never append to the tick being drained).
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
	// next run. Payload references held by pending events are released.
	Reset()
}

// newEventQueue builds the queue for the selected core.
func newEventQueue(core EventCore) eventQueue {
	if core.Resolve() == CoreHeap {
		return &eventHeap{}
	}
	return newCalendarQueue()
}
