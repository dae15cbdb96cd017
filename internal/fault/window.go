package fault

import (
	"math/rand"

	"repro/internal/sim"
)

// This file holds the correlated network-fault wrappers: unlike the
// Byzantine behaviors above, these do not replace a party's process —
// they wrap the run's scheduler (sim.Scheduler) and black out
// message traffic for windows of virtual time. A darkened party keeps
// its state and its local timers; only the network drops its traffic,
// which is exactly the "crash-then-recover with pre-crash state" model
// (and what distinguishes flap from a sim.CrashPlan crash, which is
// permanent).
//
// Drop rule: a send is lost when the sender is dark at send time OR the
// recipient is dark at the message's arrival time (send time + the inner
// scheduler's delay). Both endpoints of the window are decided from
// virtual time and the spec's parameters only — no rng draws — so the
// wrappers are transparent to the scheduler rng stream and deterministic
// under capture/replay by construction.

// window is one [Start, Start+Len) blackout interval.
type window struct {
	start, length sim.Time
}

func (w window) dark(at sim.Time) bool {
	return w.length > 0 && at >= w.start && at < w.start+w.length
}

// Outage blacks out a contiguous party range [First, Last] for the
// window [Start, Start+Len): a correlated regional blackout, the
// datacenter-loses-power shape that independent per-send loss cannot
// model. Messages into, out of, and within the region are dropped while
// the window is open; traffic resumes untouched afterwards.
type Outage struct {
	Inner       sim.Scheduler
	First, Last sim.PartyID // inclusive range of dark parties
	Start, Len  sim.Time
}

var _ sim.Scheduler = (*Outage)(nil)

// dark reports whether party p is inside the blackout at time at.
func (o *Outage) dark(p sim.PartyID, at sim.Time) bool {
	return p >= o.First && p <= o.Last && window{start: o.Start, length: o.Len}.dark(at)
}

// Fate implements sim.Scheduler.
func (o *Outage) Fate(env *sim.Envelope, rng *rand.Rand) sim.Fate {
	f := sim.FateOf(o.Inner, env, rng)
	if o.dark(env.From, env.Sent) || o.dark(env.To, env.Sent+f.Delay) {
		f.Drop = true
	}
	return f
}

// Flap darkens each of the first Slots parties for one window apiece,
// staggered in time: party s is dark during [Base + s*Stagger, + Len).
// The party's process keeps running with its pre-outage state — only its
// traffic is lost — so after the window it resumes exactly where it
// stopped, the crash-then-recover shape. Raw transports typically stall
// (the in-window round traffic is gone forever); an ack/retransmit layer
// (internal/relnet) recovers by resending after the window closes.
type Flap struct {
	Inner   sim.Scheduler
	Slots   int // parties 0..Slots-1 flap
	Base    sim.Time
	Stagger sim.Time
	Len     sim.Time
}

var _ sim.Scheduler = (*Flap)(nil)

// Fate implements sim.Scheduler.
func (f *Flap) Fate(env *sim.Envelope, rng *rand.Rand) sim.Fate {
	fa := sim.FateOf(f.Inner, env, rng)
	if f.dark(env.From, env.Sent) || f.dark(env.To, env.Sent+fa.Delay) {
		fa.Drop = true
	}
	return fa
}

// dark reports whether party p is inside its flap window at time at.
func (f *Flap) dark(p sim.PartyID, at sim.Time) bool {
	if p < 0 || int(p) >= f.Slots {
		return false
	}
	w := window{start: f.Base + sim.Time(p)*f.Stagger, length: f.Len}
	return w.dark(at)
}
