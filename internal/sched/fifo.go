package sched

import (
	"math/rand"

	"repro/internal/sim"
)

// FIFO wraps a scheduler and enforces per-link FIFO delivery: messages
// from the same sender to the same recipient are delivered in send order,
// while the inner scheduler still chooses the pacing. Many classical
// presentations assume FIFO channels; the protocols here do not need them
// (round tags make reordering harmless), and running the suite both ways
// is how that claim is checked.
//
// FIFO is stateful and must not be shared across concurrent simulations.
type FIFO struct {
	inner sim.Scheduler
	// lastAt tracks the latest scheduled delivery time per (from, to).
	lastAt map[linkKey]sim.Time
}

type linkKey struct {
	from, to sim.PartyID
}

var _ sim.Scheduler = (*FIFO)(nil)

// NewFIFO wraps inner with per-link ordering.
func NewFIFO(inner sim.Scheduler) *FIFO {
	return &FIFO{inner: inner, lastAt: make(map[linkKey]sim.Time)}
}

// Fate implements sim.Scheduler. The inner fate passes through, so FIFO
// keeps an inner scheduler's drops and duplicates; a dropped send never
// arrives and does not hold back the link.
func (f *FIFO) Fate(env *sim.Envelope, rng *rand.Rand) sim.Fate {
	fa := sim.FateOf(f.inner, env, rng)
	if fa.Drop {
		return fa
	}
	key := linkKey{from: env.From, to: env.To}
	at := env.Sent + fa.Delay
	if last, ok := f.lastAt[key]; ok && at <= last {
		at = last + 1
		fa.Delay = at - env.Sent
	}
	f.lastAt[key] = at
	return fa
}
