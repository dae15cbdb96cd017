package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ErrBadWindow rejects fault windows the simulator could never open:
// zero or negative lengths, and windows starting past sim.MaxDelayCap
// (the largest virtual time any message delay can reach, so a later
// window is a silent no-op in every run). Both are spec-time errors —
// a window typo must fail at Parse, not degrade into a fault-free run.
var ErrBadWindow = errors.New("scenario: fault window outside simulable range")

// SchedulerBuilder constructs a fresh scheduler instance for an n-party run
// with fault bound t. arg is the optional ":<value>" suffix of the spec
// token ("" when absent); builders that take no argument must reject a
// non-empty one, so typos fail at spec time.
type SchedulerBuilder func(n, t int, arg string) (sim.Scheduler, error)

// FaultKind is one entry of the fault table. Exactly one field is set.
// Behavior and Crash are party faults: each fills a fault slot and takes
// no ":<arg>" suffix. Net and Restart are slot-free axes: they degrade the
// transport or roll a party back, not replace its protocol, and read the
// token's ":<value>" suffix as arg ("" when absent).
type FaultKind struct {
	// Behavior replaces the party with an adversarial process.
	Behavior fault.Behavior
	// Crash builds the crash plan for fault slot `slot` of t in an n-party
	// run (slots are parties 0..t-1).
	Crash func(n, t, slot int) sim.CrashPlan
	// Net wraps a run's scheduler with one network-fault axis (loss, dup,
	// outage, flap).
	Net func(n, t int, arg string, inner sim.Scheduler) (sim.Scheduler, error)
	// Restart resolves a crash-recovery axis (recover, amnesia) into the
	// run's restart plans; see restart.go.
	Restart func(n, t int, arg string) ([]sim.RestartPlan, error)
}

// slotFree reports whether the kind occupies no fault slot.
func (k FaultKind) slotFree() bool { return k.Net != nil || k.Restart != nil }

// lookup resolves a fault token (a table key with an optional ":<arg>"
// suffix) to its kind and argument. Party faults take no argument, so a
// suffixed party token such as "crash:3" is unknown.
func lookup(tok string) (k FaultKind, arg string, ok bool) {
	name, arg, hasArg := strings.Cut(tok, ":")
	k, ok = faults[name]
	if hasArg && !k.slotFree() {
		return FaultKind{}, "", false
	}
	return k, arg, ok
}

// SlotFree reports whether a fault token (base name, or name:arg) names a
// network-fault or crash-recovery axis, neither of which occupies a fault
// slot.
func SlotFree(token string) bool {
	k, _, ok := lookup(token)
	return ok && k.slotFree()
}

// Fault looks up a registered fault kind by name. Consumers outside the
// spec grammar (e.g. internal/incident resolving a bundle's explicit
// Byzantine assignments) use this instead of reaching into the registry.
func Fault(name string) (FaultKind, bool) {
	k, ok := faults[name]
	return k, ok
}

// CheckScheduler validates a scheduler token — a registry key with an
// optional ":<arg>" suffix, e.g. "random" or "sync:5" — without a run
// shape, so callers that take a bare token can reject it up front.
func CheckScheduler(token string) error {
	name, arg, _ := strings.Cut(token, ":")
	build, ok := schedulers[name]
	if !ok {
		return fmt.Errorf("scenario: unknown scheduler %q (have %s)", name, strings.Join(SchedulerNames(), ", "))
	}
	_, err := build(1, 0, arg)
	return err
}

// SchedulerNames returns every registered scheduler key, sorted.
func SchedulerNames() []string { return sortedKeys(schedulers) }

// sortedKeys returns a table's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SuiteSchedulers lists the standard six-scheduler adversary suite in the
// canonical experiment-table order.
func SuiteSchedulers() []string {
	return []string{"sync", "random", "skew", "partition", "splitviews", "staggered"}
}

// ByzSuite lists the standard Byzantine behaviors in experiment-table
// order.
func ByzSuite() []string {
	return []string{"silent", "extreme", "equivocate", "spam", "amplifier"}
}

// timeArg parses an optional sim.Time argument, returning def when absent.
func timeArg(arg string, def sim.Time) (sim.Time, error) {
	if arg == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("scenario: bad delay argument %q", arg)
	}
	return sim.Time(v), nil
}

// floatArg parses an optional float argument, returning def when absent.
func floatArg(arg string, def float64) (float64, error) {
	if arg == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(arg, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("scenario: bad numeric argument %q", arg)
	}
	return v, nil
}

// probArg parses an optional probability argument in (0, 1), returning
// def when absent. 0 would be a no-op axis (omit the token instead) and
// 1 a total blackout, so both are rejected at spec time.
func probArg(arg string, def float64) (float64, error) {
	if arg == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(arg, 64)
	if err != nil || v <= 0 || v >= 1 {
		return 0, fmt.Errorf("scenario: bad probability argument %q (want 0 < p < 1)", arg)
	}
	return v, nil
}

// noArg rejects a scheduler argument for schedulers that take none.
func noArg(name, arg string) error {
	if arg != "" {
		return fmt.Errorf("scenario: scheduler %s takes no argument, got %q", name, arg)
	}
	return nil
}

// firstT returns party IDs 0..t-1, the conventional victim/fault slots.
func firstT(t int) []sim.PartyID {
	out := make([]sim.PartyID, 0, t)
	for i := 0; i < t; i++ {
		out = append(out, sim.PartyID(i))
	}
	return out
}

// The built-in registry is the one place the adversary's parameters live:
// the experiment drivers, aa's WithScheduler/WithByzantine, aarun's flags
// and the fuzzers all name these entries, and TestRegistryDefaults pins
// the defaults. Optional ":<arg>" suffixes expose the one knob each
// scheduler has (e.g. "sync:5" is lock-step with delay 5).
var schedulers = map[string]SchedulerBuilder{
	"sync": func(_, _ int, arg string) (sim.Scheduler, error) {
		d, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return sched.NewSynchronous(d), nil
	},
	"random": func(_, _ int, arg string) (sim.Scheduler, error) {
		max, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return &sched.UniformRandom{Min: 1, Max: max}, nil
	},
	"skew": func(_, t int, arg string) (sim.Scheduler, error) {
		slow, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return sched.NewSkew(firstT(t), 1, slow), nil
	},
	"partition": func(n, _ int, arg string) (sim.Scheduler, error) {
		across, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return &sched.Partition{Boundary: sim.PartyID(n / 2), Within: 1, Across: across}, nil
	},
	"splitviews": func(n, _ int, arg string) (sim.Scheduler, error) {
		slow, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return &sched.SplitViews{Boundary: sim.PartyID(n / 2), Fast: 1, Slow: slow}, nil
	},
	"staggered": func(_, _ int, arg string) (sim.Scheduler, error) {
		step, err := timeArg(arg, 2)
		if err != nil {
			return nil, err
		}
		return &sched.Staggered{Base: 1, Step: step}, nil
	},
	"heavytail": func(_, _ int, arg string) (sim.Scheduler, error) {
		alpha, err := floatArg(arg, 1.5)
		if err != nil {
			return nil, err
		}
		return &sched.HeavyTail{Base: 1, Alpha: alpha, Cap: 400}, nil
	},
	// unordered/fifo are the E11 channel-model pair: the same benign
	// scheduler, bare and wrapped with per-link FIFO ordering. FIFO is
	// stateful, which is why builders return fresh instances per run.
	"unordered": func(_, _ int, arg string) (sim.Scheduler, error) {
		if err := noArg("unordered", arg); err != nil {
			return nil, err
		}
		return &sched.UniformRandom{Min: 1, Max: 25}, nil
	},
	"fifo": func(_, _ int, arg string) (sim.Scheduler, error) {
		if err := noArg("fifo", arg); err != nil {
			return nil, err
		}
		return sched.NewFIFO(&sched.UniformRandom{Min: 1, Max: 25}), nil
	},
}

// faults is the one fault table: party faults, network axes and
// crash-recovery axes share the spec's "+" list, so they share one key
// space, and a duplicate name is a compile error.
var faults = map[string]FaultKind{
	// "crash" is the standard staggered mid-multicast schedule (harness
	// maxCrashes): early slots die mid-INIT-multicast, later ones survive
	// longer. "crashinit" kills every slot just past its INIT multicast —
	// the overload demonstration's schedule.
	"crash": {Crash: func(n, _, slot int) sim.CrashPlan {
		return sim.CrashPlan{Party: sim.PartyID(slot), AfterSends: n/2 + slot*n*2}
	}},
	"crashinit": {Crash: func(n, _, slot int) sim.CrashPlan {
		return sim.CrashPlan{Party: sim.PartyID(slot), AfterSends: n + slot}
	}},
	// Every Byzantine kind is range-relative, reading the run's true
	// promised range through fault.Env at instantiation (extreme pushes 100
	// range-widths past the high end, whatever the range).
	"silent":     {Behavior: fault.Silent{}},
	"extreme":    {Behavior: fault.ExtremeRel{Scale: 100}},
	"equivocate": {Behavior: fault.Equivocate{Stretch: 2}},
	"spam":       {Behavior: fault.Spam{}},
	"amplifier":  {Behavior: fault.Amplifier{Push: 1}},

	// The lossy-network axes. These wrap the spec's scheduler (they occupy
	// no fault slots) and compose in token order: in "random+loss:0.05+dup:0.1"
	// the base delay is drawn first, then loss rolls, then dup — the fixed
	// rng-draw order the determinism contract (sim.Scheduler) requires.
	"loss": {Net: func(_, _ int, arg string, inner sim.Scheduler) (sim.Scheduler, error) {
		p, err := probArg(arg, 0.05)
		if err != nil {
			return nil, err
		}
		return &sched.Loss{Inner: inner, P: p}, nil
	}},
	"dup": {Net: func(_, _ int, arg string, inner sim.Scheduler) (sim.Scheduler, error) {
		p, err := probArg(arg, 0.05)
		if err != nil {
			return nil, err
		}
		return &sched.Dup{Inner: inner, P: p, MaxExtra: 20}, nil
	}},
	// "outage[:k:start:len]" blacks out the LAST k parties (a region
	// disjoint from the fault slots at 0..t-1, so outages stack with
	// crash/byz compositions) for the window [start, start+len).
	"outage": {Net: func(n, _ int, arg string, inner sim.Scheduler) (sim.Scheduler, error) {
		k, start, length := max(1, n/4), sim.Time(50), sim.Time(100)
		if arg != "" {
			parts := strings.Split(arg, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("scenario: outage argument %q (want k:start:len)", arg)
			}
			kk, err := strconv.Atoi(parts[0])
			if err != nil || kk < 1 || kk > n {
				return nil, fmt.Errorf("scenario: outage region size %q out of range [1, n=%d]", parts[0], n)
			}
			st, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil || st < 0 || sim.Time(st) > sim.MaxDelayCap {
				return nil, fmt.Errorf("%w: outage start %q (want 0 <= start <= %d)", ErrBadWindow, parts[1], sim.MaxDelayCap)
			}
			ln, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil || ln < 1 {
				return nil, fmt.Errorf("%w: outage length %q (want >= 1)", ErrBadWindow, parts[2])
			}
			k, start, length = kk, sim.Time(st), sim.Time(ln)
		}
		return &fault.Outage{
			Inner: inner,
			First: sim.PartyID(n - k),
			Last:  sim.PartyID(n - 1),
			Start: start,
			Len:   length,
		}, nil
	}},
	// "flap[:len]" takes each fault slot (parties 0..t-1) dark for one
	// len-tick window apiece, staggered in time; the party resumes with
	// its pre-outage state, unlike a sim.CrashPlan crash.
	"flap": {Net: func(_, t int, arg string, inner sim.Scheduler) (sim.Scheduler, error) {
		length := sim.Time(60)
		if arg != "" {
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || v < 1 || sim.Time(v) > sim.MaxDelayCap {
				return nil, fmt.Errorf("%w: flap window length %q (want 1 <= len <= %d)", ErrBadWindow, arg, sim.MaxDelayCap)
			}
			length = sim.Time(v)
		}
		return &fault.Flap{Inner: inner, Slots: t, Base: 40, Stagger: 60, Len: length}, nil
	}},
	// The crash-recovery axes (restart.go): "recover:k:down:lag" and its
	// zero-checkpoint form "amnesia:k:down".
	"recover": {Restart: buildRecover("recover", false)},
	"amnesia": {Restart: buildRecover("amnesia", true)},
}
