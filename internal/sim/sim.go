// Package sim provides a deterministic discrete-event simulator for fully
// asynchronous message-passing networks, the substrate on which all
// approximate-agreement protocols in this repository run.
//
// The model matches the classical asynchronous setting: n parties, fully
// connected by reliable authenticated point-to-point channels. An adversarial
// Scheduler chooses a finite delivery delay for every message; messages
// between non-faulty parties are always delivered eventually, in an order of
// the scheduler's choosing. There are no synchronized clocks; "virtual time"
// exists only in the simulator so that asynchronous round complexity can be
// measured after the fact (time of last output divided by the maximum delay
// experienced by an honest-to-honest message).
//
// Faults are injected through the Config: a crashed party stops sending and
// receiving at an adversary-chosen point (possibly in the middle of a
// multicast, so only a subset of recipients get the message), while a
// Byzantine party is replaced wholesale by an adversarial Process.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
)

// PartyID identifies a party; IDs are dense in [0, N).
type PartyID int

// Time is a virtual-time instant measured in abstract ticks. Only ratios of
// Time values are meaningful (round complexity is time/maxDelay).
type Time int64

// Envelope is a message in flight.
type Envelope struct {
	From PartyID
	To   PartyID
	// Data is the wire-encoded payload; its length is the bit-complexity
	// unit. It aliases the simulator's recycled payload arena: it is valid
	// during the delivery (and observer) callback only, and must be copied
	// by anything that retains it past the callback.
	Data []byte
	Sent Time   // virtual time at which the sender issued the message
	Seq  uint64 // global send sequence number (deterministic tiebreak)
}

// API is the interface a Process uses to interact with the network. It is
// implemented by the simulator and by the live goroutine runtime
// (internal/livenet), so protocol code is runtime-agnostic.
type API interface {
	// ID returns the party's own identifier.
	ID() PartyID
	// N returns the total number of parties.
	N() int
	// Send transmits data to a single party. Delivery is eventual but the
	// delay and ordering are adversarial. Sending to oneself is allowed and
	// goes through the scheduler like any other message.
	Send(to PartyID, data []byte)
	// Multicast sends data to every party, including the sender itself.
	// It is not atomic: a crash can truncate it part-way through.
	Multicast(data []byte)
	// Decide reports the party's protocol output. Only the first call per
	// party is recorded; later calls are ignored.
	Decide(value float64)
	// SetTimer schedules OnTimer(tag) on the calling party after delay
	// virtual-time ticks. Timers are local clocks: the scheduler cannot
	// interfere with them. Only synchronous protocols use timers; a fully
	// asynchronous protocol must not rely on them.
	SetTimer(delay Time, tag uint64)
	// Rand returns a per-party deterministic random source (for protocols
	// or adversaries that randomize; honest protocols here do not).
	Rand() *rand.Rand
}

// TimerHandler is implemented by processes that use API.SetTimer.
type TimerHandler interface {
	// OnTimer fires a previously set timer.
	OnTimer(tag uint64)
}

// Process is a deterministic reactive state machine driven by the network.
// Implementations must not retain the API past Stop, must not block, and
// must do all communication through the provided API.
type Process interface {
	// Init is called exactly once before any delivery, with the party's API.
	Init(api API)
	// Deliver is called once per received message, in scheduler order.
	Deliver(from PartyID, data []byte)
}

// Estimator is an optional interface protocols implement so the harness can
// record convergence trajectories (current value estimates) mid-execution.
type Estimator interface {
	// Estimate returns the party's current approximation and true if the
	// party holds one (false before initialization completes).
	Estimate() (float64, bool)
}

// Scheduler decides the fate of every message — its delivery delay and, on
// a lossy network, whether it is dropped or duplicated — and therefore the
// entire asynchronous interleaving. Implementations live in internal/sched
// (delay strategies, loss and dup) and internal/fault (outage and flap
// windows); wrappers evaluate their inner scheduler through FateOf.
//
// Determinism contract: every decision must be drawn from the rng passed in
// (the run's seeded scheduler stream), never from wall clock or global
// state, and a wrapper must consume its draws in a fixed order per send
// (innermost base delay first, then each wrapper in composition order), so
// that capture/replay and both engine configurations observe identical
// streams. The source is seeded on its first draw of a run, so a scheduler
// that never draws costs no seeding.
type Scheduler interface {
	// Fate returns the decision for the send env, whose Sent field is the
	// send time. The network fills and reuses one Envelope for every send:
	// the pointer is valid only during the call. The network clamps the
	// returned Delay to [1, MaxDelayCap] to preserve eventual delivery.
	Fate(env *Envelope, rng *rand.Rand) Fate
}

// MaxDelayCap bounds any single message delay so that eventual delivery can
// never be violated by a buggy or adversarial Scheduler.
const MaxDelayCap Time = 1 << 20

// CrashPlan describes when a crash-faulty party dies: after it has issued
// AfterSends point-to-point sends (a multicast counts as N sends, so a crash
// can truncate a multicast). A crashed party neither sends nor receives.
type CrashPlan struct {
	Party      PartyID
	AfterSends int
}

// Config assembles a single simulated execution.
type Config struct {
	// N is the number of parties; must be >= 1.
	N int
	// Scheduler orders message deliveries. Required.
	Scheduler Scheduler
	// Seed feeds all randomness (scheduler choices, per-party sources).
	Seed int64
	// Crashes lists crash faults. Crashed parties count as non-faulty for
	// validity (they never lie) but as faulty for resilience accounting.
	Crashes []CrashPlan
	// Byzantine maps a party to a replacement adversarial process.
	Byzantine map[PartyID]Process
	// Restarts lists crash-recovery episodes (checkpoint, crash, rejoin).
	// Restarting parties must be distinct from crash and Byzantine parties
	// and their processes must support checkpointing (core.Snapshotter).
	Restarts []RestartPlan
	// MaxEvents aborts runaway executions; 0 means DefaultMaxEvents.
	MaxEvents int
	// Reference selects the reference configuration: a binary-heap event
	// queue and per-envelope delivery of every tick, instead of production's
	// calendar queue and batched dense ticks (each party receives such a
	// tick through one DeliverBatch call). Results, stats, and the observed
	// delivery sequence are identical; the one nuance is that production
	// replays a dense tick's observer callbacks at tick end, so an observer
	// that reads live simulation state sees end-of-tick state (see
	// Network.fireObservers — tick-boundary state is identical in both).
	// The reference exists only to be compared against production.
	Reference bool
}

// DefaultMaxEvents is the event budget of a run whose MaxEvents is 0.
const DefaultMaxEvents = 5_000_000

// Sentinel errors returned by Run.
var (
	// ErrStalled is returned when the event queue drains before every
	// non-faulty party has decided: the protocol lost liveness.
	ErrStalled = errors.New("sim: execution stalled before all honest parties decided")
	// ErrEventBudget is returned when MaxEvents deliveries happen without
	// termination, which almost always indicates a livelock.
	ErrEventBudget = errors.New("sim: event budget exhausted")
)

// Validate checks structural soundness of the configuration.
func (c *Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("sim: config: N = %d, need >= 1", c.N)
	}
	if c.Scheduler == nil {
		return errors.New("sim: config: nil Scheduler")
	}
	// The duplicate-fault scan is quadratic in the crash count instead of
	// building a set: fault lists are bounded by the protocol fault bound,
	// and Validate runs once per (possibly recycled) execution, so staying
	// allocation-free matters more than asymptotics here.
	for i, cr := range c.Crashes {
		if cr.Party < 0 || int(cr.Party) >= c.N {
			return fmt.Errorf("sim: config: crash party %d out of range [0,%d)", cr.Party, c.N)
		}
		if cr.AfterSends < 0 {
			return fmt.Errorf("sim: config: crash party %d has negative send budget", cr.Party)
		}
		for _, prev := range c.Crashes[:i] {
			if prev.Party == cr.Party {
				return fmt.Errorf("sim: config: party %d assigned two faults", cr.Party)
			}
		}
	}
	if err := CheckRestarts(c.N, c.Restarts); err != nil {
		return err
	}
	for _, rp := range c.Restarts {
		for _, cr := range c.Crashes {
			if cr.Party == rp.Party {
				return fmt.Errorf("sim: config: party %d assigned two faults", rp.Party)
			}
		}
	}
	for p, proc := range c.Byzantine {
		for _, rp := range c.Restarts {
			if rp.Party == p {
				return fmt.Errorf("sim: config: party %d assigned two faults", p)
			}
		}
		if p < 0 || int(p) >= c.N {
			return fmt.Errorf("sim: config: byzantine party %d out of range [0,%d)", p, c.N)
		}
		if proc == nil {
			return fmt.Errorf("sim: config: byzantine party %d has nil process", p)
		}
		for _, cr := range c.Crashes {
			if cr.Party == p {
				return fmt.Errorf("sim: config: party %d assigned two faults", p)
			}
		}
	}
	return nil
}
