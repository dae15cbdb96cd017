// Lossy-network fate wrappers: per-send Bernoulli loss and duplication
// layered over any base scheduler. They compose with every delay strategy
// in this package, with each other, and with the window wrappers in
// internal/fault.
//
// Determinism contract (see sim.Scheduler): every drop/dup decision
// is drawn from the seeded scheduler rng the simulator passes in — never
// from wall clock — and each wrapper consumes its draws in a fixed order
// after the inner scheduler's (innermost base delay first, then wrappers
// in composition order). Loss and Dup draw exactly one Float64 per send
// unconditionally (Dup draws one extra Int63n only when the duplicate
// fires), so the stream is a pure function of the seed and the send
// sequence, and capture/replay and the batched/unbatched loops see
// identical streams.
package sched

import (
	"math/rand"

	"repro/internal/sim"
)

// Loss drops each send independently with probability P (per-send
// Bernoulli loss). Dropped sends are counted by the simulator but never
// delivered; acks and retransmissions are separate sends and roll the
// dice again.
type Loss struct {
	Inner sim.Scheduler
	P     float64
}

var _ sim.Scheduler = (*Loss)(nil)

// Fate implements sim.Scheduler.
func (l *Loss) Fate(env *sim.Envelope, rng *rand.Rand) sim.Fate {
	f := sim.FateOf(l.Inner, env, rng)
	// The draw is unconditional — even for a send an inner wrapper already
	// dropped — so stacking order never perturbs the rng stream shape.
	if rng.Float64() < l.P {
		f.Drop = true
	}
	return f
}

// Dup duplicates each send independently with probability P: a second
// copy of the same envelope arrives Extra ∈ [1, MaxExtra] ticks after the
// primary copy. Receive-side dedup (internal/relnet) is what makes this
// harmless; raw transports see the payload twice.
type Dup struct {
	Inner    sim.Scheduler
	P        float64
	MaxExtra sim.Time // upper bound on the duplicate's extra lag (>= 1)
}

var _ sim.Scheduler = (*Dup)(nil)

// Fate implements sim.Scheduler.
func (d *Dup) Fate(env *sim.Envelope, rng *rand.Rand) sim.Fate {
	f := sim.FateOf(d.Inner, env, rng)
	if rng.Float64() < d.P && !f.Drop && f.DupExtra == 0 {
		hi := d.MaxExtra
		if hi < 1 {
			hi = 1
		}
		f.DupExtra = 1 + sim.Time(rng.Int63n(int64(hi)))
	}
	return f
}
