// Package scenario is the declarative adversary layer over the simulator:
// one composable Spec value names a delivery schedule (topology + timing),
// a fault composition, and the run shape (n parties, t fault slots), and
// resolves into everything internal/harness needs to execute it. It
// replaces the per-driver wiring of sched.Named suites, fault.Behavior
// assignments, and crash schedules that each experiment used to hand-roll.
//
// Specs have a compact string form,
//
//	<scheduler>[:<arg>][+<fault>[+<fault>...]][/n=<N>[,t=<T>]]
//
// e.g. "splitviews/n=64,t=31", "skew+equivocate/n=64,t=9", or
// "sync:5+crash/n=10,t=4". Parse and String round-trip exactly; the fuzz
// harness (cmd/aafuzz) pins this, along with the guarantee that invalid
// combinations fail at spec time, never mid-run.
//
// Fault composition: a spec with T fault slots assigns its party-fault
// kinds cyclically to parties 0..T-1, so "crash" alone crashes all T
// slots, and "crash+equivocate" alternates the two kinds across them.
// Crash kinds become sim.CrashPlans; Byzantine kinds become replacement
// processes.
//
// Network faults: the "+" list also accepts lossy-network axes — "loss:P"
// (per-send Bernoulli drop), "dup:P" (duplicate delivery at a later
// tick), "outage:k:start:len" (correlated blackout of the last k parties
// over a virtual-time window), and "flap:len" (each fault slot goes dark
// for one staggered window, then resumes with its pre-outage state).
// These occupy no fault slots: they wrap the spec's sim.Scheduler, each
// layer adjusting the inner fate, composing in token order after the base
// delay draw. All drop/dup decisions come from the run's seeded
// scheduler rng (never wall clock), so lossy runs capture and replay
// bit-for-bit like every other scenario (see internal/incident).
//
// The registry (registry.go) is two map literals, schedulers and faults,
// from token names to factories, so a new kind is one entry; the built-ins
// reproduce the historical experiment parameterizations exactly, which is
// how the E1–E11 tables stayed byte-identical across the conversion.
package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Spec is one declarative scenario: who delays what, who is faulty and
// how, at what scale. The zero Spec is invalid; N is required.
type Spec struct {
	// Sched is the scheduler registry key, optionally with a ":<arg>"
	// parameter suffix (e.g. "sync:5").
	Sched string
	// Faults are fault registry keys: party faults are assigned cyclically
	// to the T fault slots (parties 0..T-1), while network-fault tokens
	// ("loss:0.05", "dup:0.1", "outage:4:50:100", "flap:60") wrap the
	// scheduler and occupy no slot. Empty means a fault-free run.
	Faults []string
	// N is the number of parties.
	N int
	// T is the number of fault slots (and what t-parameterized schedulers
	// like skew target). TUnset (-1) means "derive from the protocol" —
	// callers must normalize via WithT before Resolve.
	T int
}

// TUnset marks a spec whose fault bound is left to the consumer (aarun
// derives it from the protocol's resilience when the string omits t=).
const TUnset = -1

// maxN bounds a spec's party count. Builders size per-party state from n
// and t (skew's victim list holds t IDs), so without a bound a spec string
// could demand any allocation. 1<<16 is far above the largest simulated
// size (E12-XL's 4096).
const maxN = 1 << 16

// String renders the spec in its canonical parseable form.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Sched)
	for _, f := range s.Faults {
		b.WriteByte('+')
		b.WriteString(f)
	}
	fmt.Fprintf(&b, "/n=%d", s.N)
	if s.T != TUnset {
		fmt.Fprintf(&b, ",t=%d", s.T)
	}
	return b.String()
}

// WithT returns the spec with T filled in if it was TUnset.
func (s Spec) WithT(t int) Spec {
	if s.T == TUnset {
		s.T = t
	}
	return s
}

// tokenErrf formats a positioned single-token parse error: the raw spec,
// the 1-based token index, the offending token, and its byte offset, so
// the reader of a failed sweep knows exactly which axis to fix. The
// underlying cause wraps with %w — sentinel checks like
// errors.Is(err, ErrBadWindow) keep working through Parse.
func tokenErrf(raw string, idx, off int, tok string, err error) error {
	return fmt.Errorf("scenario: %q: token %d %q (char %d): %w", raw, idx, tok, off, err)
}

// Parse reads the canonical string form. The parsed spec is validated.
// Errors about a single token (unknown name, bad ":<arg>" suffix, bad
// parameter) name the token and its position in the string; cross-token
// shape errors (fault slots vs t, restart compositions) carry no position
// because no single token owns them.
func Parse(raw string) (Spec, error) {
	s := Spec{T: TUnset}
	head := raw
	if i := strings.IndexByte(raw, '/'); i >= 0 {
		head = raw[:i]
		off := i + 1
		for _, kv := range strings.Split(raw[i+1:], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return Spec{}, fmt.Errorf("scenario: %q: parameter %q (char %d): want k=v", raw, kv, off)
			}
			x, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: %q: parameter %q (char %d): %w", raw, kv, off, err)
			}
			switch strings.TrimSpace(k) {
			case "n":
				s.N = x
			case "t":
				// Explicit negatives are rejected here rather than left to
				// Validate: t=-1 would otherwise collide with the TUnset
				// sentinel and silently drop from the string form.
				if x < 0 {
					return Spec{}, fmt.Errorf("scenario: %q: parameter %q (char %d): t = %d, need >= 0", raw, kv, off, x)
				}
				s.T = x
			default:
				return Spec{}, fmt.Errorf("scenario: %q: parameter %q (char %d): unknown parameter %q", raw, kv, off, k)
			}
			off += len(kv) + 1
		}
	}
	// Split the head on "+", tracking each token's byte offset.
	parts := strings.Split(head, "+")
	offs := make([]int, len(parts))
	for i, off := 1, 0; i < len(parts); i++ {
		off += len(parts[i-1]) + 1
		offs[i] = off
	}
	s.Sched = strings.TrimSpace(parts[0])
	for _, f := range parts[1:] {
		s.Faults = append(s.Faults, strings.TrimSpace(f))
	}
	// Registry membership, token by token, before any shape checks: a typo
	// should name its token, not fall through to a slot-count complaint.
	name, _ := s.schedKey()
	if _, ok := schedulers[name]; !ok {
		return Spec{}, tokenErrf(raw, 1, offs[0], parts[0],
			fmt.Errorf("unknown scheduler %q (have %s)", name, strings.Join(SchedulerNames(), ", ")))
	}
	for i, f := range s.Faults {
		if _, _, ok := lookup(f); !ok {
			return Spec{}, tokenErrf(raw, i+2, offs[i+1], parts[i+1],
				fmt.Errorf("unknown fault %q (have %s)", f, strings.Join(sortedKeys(faults), ", ")))
		}
	}
	// Cross-token shape checks (fault slots vs t, restart composition, run
	// shape): these have no single offending token, so no position.
	if err := s.validateShape(); err != nil {
		return Spec{}, err
	}
	// Build the spec so ":<arg>" problems carry their token position. The
	// probe uses a safe t on TUnset specs, as Validate does.
	t := s.T
	if t == TUnset {
		t = 0
	}
	if _, _, tok, err := s.build(t); err != nil {
		return Spec{}, tokenErrf(raw, tok+1, offs[tok], parts[tok], err)
	}
	return s, nil
}

// MustParse is Parse for registered, well-formed literals in driver code.
func MustParse(raw string) Spec {
	s, err := Parse(raw)
	if err != nil {
		panic(err)
	}
	return s
}

// schedKey splits the scheduler token into registry key and argument.
func (s Spec) schedKey() (name, arg string) {
	name, arg, _ = strings.Cut(s.Sched, ":")
	return name, arg
}

// partyFaults returns the fault tokens that occupy fault slots — every
// token that is not a network-fault or restart axis. When no slot-free
// tokens are present the spec's own slice is returned without allocating.
func (s Spec) partyFaults() []string {
	for i, f := range s.Faults {
		if SlotFree(f) {
			out := make([]string, 0, len(s.Faults)-1)
			out = append(out, s.Faults[:i]...)
			for _, g := range s.Faults[i+1:] {
				if !SlotFree(g) {
					out = append(out, g)
				}
			}
			return out
		}
	}
	return s.Faults
}

// validateShape checks everything except the ":<arg>" suffixes: registry
// membership and the run shape.
func (s Spec) validateShape() error {
	name, _ := s.schedKey()
	if _, ok := schedulers[name]; !ok {
		return fmt.Errorf("scenario: unknown scheduler %q (have %s)",
			name, strings.Join(SchedulerNames(), ", "))
	}
	if s.N < 1 {
		return fmt.Errorf("scenario: %s: n = %d, need >= 1", s.Sched, s.N)
	}
	if s.N > maxN {
		return fmt.Errorf("scenario: %s: n = %d, need <= %d", s.Sched, s.N, maxN)
	}
	// Network-fault and restart tokens occupy no fault slots, so only
	// party faults count against T (and a net-only composition is fine
	// with t unset).
	party, restarts := 0, 0
	for _, f := range s.Faults {
		k, _, ok := lookup(f)
		switch {
		case !ok:
			return fmt.Errorf("scenario: unknown fault %q (have %s)", f, strings.Join(sortedKeys(faults), ", "))
		case k.Restart != nil:
			restarts++
		case !k.slotFree():
			party++
		}
	}
	if restarts > 1 {
		return fmt.Errorf("scenario: %s: at most one restart axis per spec", s.Sched)
	}
	if restarts > 0 {
		// Restart parties live in the last fault slots; party-fault kinds
		// fill every slot cyclically, so the two can only collide — the
		// combination is rejected here rather than by sim.Config.Validate
		// mid-assembly.
		if party > 0 {
			return fmt.Errorf("scenario: %s: restart axes do not compose with party faults (slots overlap)", s.Sched)
		}
		if s.T == TUnset {
			return fmt.Errorf("scenario: %s: restart axes need an explicit t", s.Sched)
		}
		if s.T < 1 {
			return fmt.Errorf("scenario: %s: restart axes need t >= 1, got t=%d", s.Sched, s.T)
		}
	}
	if s.T != TUnset {
		if s.T < 0 || s.T >= s.N {
			return fmt.Errorf("scenario: %s: t = %d out of range [0, n=%d)", s.Sched, s.T, s.N)
		}
		if party > s.T {
			return fmt.Errorf("scenario: %s: %d fault kinds for %d fault slots", s.Sched, party, s.T)
		}
	} else if party > 0 {
		return fmt.Errorf("scenario: %s: faults need an explicit t", s.Sched)
	}
	return nil
}

// build instantiates the spec's scheduler with the given fault bound,
// validating the ":<arg>" suffixes in the process, and resolves its
// restart plans. Network-fault tokens wrap the base scheduler in token
// order (the first listed is the innermost layer), fixing the per-send rng
// draw order the determinism contract requires. On error, tok names the
// token at fault: 0 for the scheduler, i+1 for Faults[i].
func (s Spec) build(t int) (named sched.Named, plans []sim.RestartPlan, tok int, err error) {
	name, arg := s.schedKey()
	scheduler, err := schedulers[name](s.N, t, arg)
	if err != nil {
		return sched.Named{}, nil, 0, err
	}
	for i, f := range s.Faults {
		k, karg, _ := lookup(f)
		switch {
		case k.Net != nil:
			scheduler, err = k.Net(s.N, t, karg, scheduler)
		case k.Restart != nil:
			// A restart axis darkens the downed parties' traffic for the
			// crash window; the state rollback rides the plans (restart.go).
			if plans, err = k.Restart(s.N, t, karg); err == nil {
				scheduler = darknessFor(scheduler, plans)
			}
		}
		if err != nil {
			return sched.Named{}, nil, i + 1, err
		}
	}
	return sched.Named{Name: s.Sched, Scheduler: scheduler}, plans, 0, nil
}

// Validate checks the spec against the registry and the run shape, so that
// every invalid combination fails here — at spec time — rather than inside
// a half-finished simulation.
func (s Spec) Validate() error {
	if err := s.validateShape(); err != nil {
		return err
	}
	// Instantiating the scheduler validates the argument too; the probe
	// uses a safe t so :arg typos surface even on TUnset specs.
	t := s.T
	if t == TUnset {
		t = 0
	}
	_, _, _, err := s.build(t)
	return err
}

// Resolved is a spec instantiated for execution: a named scheduler plus the
// concrete crash plans and Byzantine assignments. Each Resolve call builds
// fresh scheduler state, so stateful schedulers (fifo) are never shared
// across concurrent runs.
type Resolved struct {
	Scheduler sched.Named
	Crashes   []sim.CrashPlan
	Byz       map[sim.PartyID]fault.Behavior
	// Restarts carries the crash-recovery plans of a restart axis; the
	// matching darkness window is already layered into Scheduler.
	Restarts []sim.RestartPlan
}

// Resolve instantiates the spec. The spec must be valid and have a
// concrete T. The scheduler is constructed exactly once, here (Validate's
// probe is not repeated).
func (s Spec) Resolve() (*Resolved, error) {
	if s.T == TUnset {
		return nil, fmt.Errorf("scenario: %s: t unresolved (use WithT)", s)
	}
	if err := s.validateShape(); err != nil {
		return nil, err
	}
	named, plans, _, err := s.build(s.T)
	if err != nil {
		return nil, err
	}
	res := &Resolved{Scheduler: named, Restarts: plans}
	// Network-fault tokens live inside the scheduler wrapper stack built
	// above; only party faults fill the cyclic slot assignment.
	pf := s.partyFaults()
	if len(pf) > 0 {
		// Count the slot split up front so both containers are allocated
		// exactly once at their final size (spec resolution runs once per
		// enumerated engine run; see the run-context recycling notes in
		// internal/harness).
		crashSlots := 0
		for slot := 0; slot < s.T; slot++ {
			if faults[pf[slot%len(pf)]].Crash != nil {
				crashSlots++
			}
		}
		if crashSlots > 0 {
			res.Crashes = make([]sim.CrashPlan, 0, crashSlots)
		}
		if byzSlots := s.T - crashSlots; byzSlots > 0 {
			res.Byz = make(map[sim.PartyID]fault.Behavior, byzSlots)
		}
	}
	for slot := 0; slot < s.T && len(pf) > 0; slot++ {
		kind := faults[pf[slot%len(pf)]]
		if kind.Crash != nil {
			res.Crashes = append(res.Crashes, kind.Crash(s.N, s.T, slot))
		} else {
			res.Byz[sim.PartyID(slot)] = kind.Behavior
		}
	}
	return res, nil
}

// Suite returns the standard six-scheduler adversary sweep at (n, t), each
// paired with the given fault composition.
func Suite(n, t int, faultKeys ...string) []Spec {
	out := make([]Spec, 0, 6)
	for _, name := range SuiteSchedulers() {
		out = append(out, Spec{Sched: name, Faults: faultKeys, N: n, T: t})
	}
	return out
}

// Cross returns the full cross-product of schedulers × fault compositions
// × sizes, with t derived per size — the enumeration behind large-n sweep
// workloads like E12. A nil faultSets means the single fault-free
// composition.
func Cross(scheds []string, faultSets [][]string, sizes []int, tFor func(n int) int) []Spec {
	if faultSets == nil {
		faultSets = [][]string{nil}
	}
	out := make([]Spec, 0, len(scheds)*len(faultSets)*len(sizes))
	for _, n := range sizes {
		for _, sc := range scheds {
			for _, fs := range faultSets {
				out = append(out, Spec{Sched: sc, Faults: fs, N: n, T: tFor(n)})
			}
		}
	}
	return out
}
