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
// FIFO's state is per sender, so its Fate may run concurrently for sends
// from different senders (the live runtime's parties), but one FIFO must
// not be shared across runs.
type FIFO struct {
	inner sim.Scheduler
	// lastAt[from][to] is the latest scheduled delivery time on the link,
	// zero before its first delivery. A row is made and written only by
	// its sender's sends.
	lastAt [][]sim.Time
}

var _ sim.Scheduler = (*FIFO)(nil)

// NewFIFO wraps inner with per-link ordering for an n-party run.
func NewFIFO(inner sim.Scheduler, n int) *FIFO {
	return &FIFO{inner: inner, lastAt: make([][]sim.Time, n)}
}

// Fate implements sim.Scheduler. The inner fate passes through, so FIFO
// keeps an inner scheduler's drops and duplicates; a dropped send never
// arrives and does not hold back the link.
func (f *FIFO) Fate(env *sim.Envelope, rng *rand.Rand) sim.Fate {
	fa := sim.FateOf(f.inner, env, rng)
	if fa.Drop {
		return fa
	}
	row := f.lastAt[env.From]
	if row == nil {
		row = make([]sim.Time, len(f.lastAt))
		f.lastAt[env.From] = row
	}
	// A delivery is due at Sent + Delay >= 1, so a zero entry never
	// holds back the link.
	at := env.Sent + fa.Delay
	if last := row[env.To]; at <= last {
		at = last + 1
		fa.Delay = at - env.Sent
	}
	row[env.To] = at
	return fa
}
