// Package sched implements message-delivery schedulers for the asynchronous
// network simulator. A scheduler is the adversary's ordering power: it picks
// a finite delay for every message, which fixes the whole interleaving.
//
// The strategies here span the space the approximate-agreement literature
// cares about: lock-step synchrony (baseline), benign random asynchrony,
// bounded skew against a victim set, partitions with slow cross-links, and
// the split-views attack that maximizes disagreement between the reception
// sets of different parties (the known worst case for convergence-rate
// measurements).
//
// This package holds the mechanisms; the entry point for composing them
// into runnable adversaries is internal/scenario, whose registry owns the
// canonical parameterization of every scheduler here and pairs it with
// fault compositions in one declarative, parseable spec. New experiment
// code should enumerate scenario.Spec values rather than constructing
// schedulers directly.
package sched

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Synchronous delivers every message with the same constant delay, yielding
// lock-step rounds. The zero value is invalid; use NewSynchronous.
type Synchronous struct {
	delay sim.Time
}

// NewSynchronous returns a constant-delay scheduler. Delay must be >= 1.
func NewSynchronous(delay sim.Time) *Synchronous {
	if delay < 1 {
		delay = 1
	}
	return &Synchronous{delay: delay}
}

var _ sim.Scheduler = (*Synchronous)(nil)

// Fate implements sim.Scheduler.
func (s *Synchronous) Fate(*sim.Envelope, *rand.Rand) sim.Fate {
	return sim.Fate{Delay: s.delay}
}

// UniformRandom draws each delay independently and uniformly from
// [Min, Max]. It models benign asynchrony with no adversarial intent.
type UniformRandom struct {
	Min, Max sim.Time
}

var _ sim.Scheduler = (*UniformRandom)(nil)

// Fate implements sim.Scheduler.
func (s *UniformRandom) Fate(_ *sim.Envelope, rng *rand.Rand) sim.Fate {
	lo, hi := s.Min, s.Max
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return sim.Fate{Delay: lo + sim.Time(rng.Int63n(int64(hi-lo)+1))}
}

// Skew delays every message sent by or to a victim set by SlowDelay while
// the rest of the network runs at FastDelay. This starves victims of
// timeliness without ever dropping their messages — the canonical way an
// asynchronous adversary biases which n−t values each party collects.
// Victims is a dense membership table indexed by PartyID (parties beyond
// its length are non-victims), so the per-delivery test is an array load
// rather than a map probe on the scheduler hot path.
type Skew struct {
	Victims   []bool
	FastDelay sim.Time
	SlowDelay sim.Time
}

var _ sim.Scheduler = (*Skew)(nil)

// NewSkew builds a Skew scheduler over the given victims.
func NewSkew(victims []sim.PartyID, fast, slow sim.Time) *Skew {
	size := 0
	for _, v := range victims {
		if int(v) >= size {
			size = int(v) + 1
		}
	}
	set := make([]bool, size)
	for _, v := range victims {
		if v >= 0 {
			set[v] = true
		}
	}
	return &Skew{Victims: set, FastDelay: fast, SlowDelay: slow}
}

// Fate implements sim.Scheduler.
func (s *Skew) Fate(env *sim.Envelope, _ *rand.Rand) sim.Fate {
	if s.victim(env.From) || s.victim(env.To) {
		return sim.Fate{Delay: s.SlowDelay}
	}
	return sim.Fate{Delay: s.FastDelay}
}

func (s *Skew) victim(p sim.PartyID) bool {
	return p >= 0 && int(p) < len(s.Victims) && s.Victims[p]
}

// Partition splits the parties into two blocks: messages within a block are
// fast, messages across are slow (but still delivered — asynchrony, not a
// network split). Parties with ID < Boundary form the first block.
type Partition struct {
	Boundary sim.PartyID
	Within   sim.Time
	Across   sim.Time
}

var _ sim.Scheduler = (*Partition)(nil)

// Fate implements sim.Scheduler.
func (s *Partition) Fate(env *sim.Envelope, _ *rand.Rand) sim.Fate {
	a := env.From < s.Boundary
	b := env.To < s.Boundary
	if a == b {
		return sim.Fate{Delay: s.Within}
	}
	return sim.Fate{Delay: s.Across}
}

// SplitViews is the convergence attack: the party set is split into a low
// half (ID < Boundary) and a high half. Messages from low-half senders to
// high-half recipients are delayed by Slow, and symmetrically messages from
// high-half senders to low-half recipients; everything else travels at Fast.
// When inputs are sorted by party ID (the harness's bimodal generator does
// this) each half predominantly sees its own half's values, which maximizes
// the disagreement between reception sets round after round. This is the
// scheduler against which worst-case contraction factors are measured.
type SplitViews struct {
	Boundary sim.PartyID
	Fast     sim.Time
	Slow     sim.Time
}

var _ sim.Scheduler = (*SplitViews)(nil)

// Fate implements sim.Scheduler.
func (s *SplitViews) Fate(env *sim.Envelope, _ *rand.Rand) sim.Fate {
	fromLow := env.From < s.Boundary
	toLow := env.To < s.Boundary
	if fromLow != toLow {
		return sim.Fate{Delay: s.Slow}
	}
	return sim.Fate{Delay: s.Fast}
}

// Staggered delivers messages from party i with delay Base + i*Step, so
// higher-ID parties are systematically late. It exercises jump-over-round
// buffering in protocols without targeting any specific party set.
type Staggered struct {
	Base sim.Time
	Step sim.Time
}

var _ sim.Scheduler = (*Staggered)(nil)

// Fate implements sim.Scheduler.
func (s *Staggered) Fate(env *sim.Envelope, _ *rand.Rand) sim.Fate {
	return sim.Fate{Delay: s.Base + sim.Time(env.From)*s.Step}
}

// HeavyTail models real wide-area networks: most messages are fast, but a
// Pareto-like tail is very slow. Alpha controls the tail weight (smaller =
// heavier); Base scales the delay unit.
type HeavyTail struct {
	Base  sim.Time
	Alpha float64
	Cap   sim.Time
}

var _ sim.Scheduler = (*HeavyTail)(nil)

// Fate implements sim.Scheduler.
func (h *HeavyTail) Fate(_ *sim.Envelope, rng *rand.Rand) sim.Fate {
	alpha := h.Alpha
	if alpha <= 0 {
		alpha = 1.5
	}
	base := h.Base
	if base < 1 {
		base = 1
	}
	capd := h.Cap
	if capd < base {
		capd = 100 * base
	}
	// Inverse-CDF Pareto sample: base / U^(1/alpha).
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	d := sim.Time(float64(base) * math.Pow(1/u, 1/alpha))
	if d < base {
		d = base
	}
	if d > capd {
		d = capd
	}
	return sim.Fate{Delay: d}
}

// Named couples a scheduler with a label for experiment tables.
type Named struct {
	Name      string
	Scheduler sim.Scheduler
}
