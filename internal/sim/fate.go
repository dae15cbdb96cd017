package sim

import "math/rand"

// Fate is the full scheduling decision for one send: the delivery delay
// plus the lossy-network outcomes layered on top of it. The zero value of
// the extension fields means "deliver normally", so a delay-only scheduler
// returns Fate{Delay: d}.
type Fate struct {
	// Delay is the delivery delay of the (primary) copy, clamped by the
	// simulator to [1, MaxDelayCap].
	Delay Time
	// DupExtra, when > 0, delivers a second copy of the message DupExtra
	// ticks after the primary copy. The duplicate shares the envelope
	// (same Seq, same payload bytes), so receive-side dedup can be tested
	// against honest traffic.
	DupExtra Time
	// Drop suppresses delivery entirely: the send is counted (the sender
	// paid for it) but no event is queued. Dropped sends never feed
	// MaxHonestDelay — eventual delivery is measured on messages that are
	// actually delivered.
	Drop bool
}

// FateOf evaluates a scheduler's decision for one send with the delay
// clamped to [1, MaxDelayCap], the clamp the network applies, so wrapper
// schedulers compute arrival times from the delay the network will use.
func FateOf(s Scheduler, env *Envelope, rng *rand.Rand) Fate {
	f := s.Fate(env, rng)
	if f.Delay < 1 {
		f.Delay = 1
	}
	if f.Delay > MaxDelayCap {
		f.Delay = MaxDelayCap
	}
	return f
}
