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

// FaultKind is one registered fault: either a Byzantine behavior (Behavior
// non-nil) or a crash schedule (Crash non-nil). Exactly one is set.
type FaultKind struct {
	// Behavior replaces the party with an adversarial process.
	Behavior fault.Behavior
	// Crash builds the crash plan for fault slot `slot` of t in an n-party
	// run (slots are parties 0..t-1).
	Crash func(n, t, slot int) sim.CrashPlan
}

// NetFaultBuilder wraps a run's scheduler with one network-fault axis
// (loss, dup, outage, flap) for an n-party run with fault bound t. arg is
// the token's ":<value>" suffix ("" when absent). Unlike FaultKind, a
// network fault occupies no fault slot: it degrades the transport, not a
// party's protocol state.
type NetFaultBuilder func(n, t int, arg string, inner sim.Scheduler) (sim.Scheduler, error)

var (
	schedulers = map[string]SchedulerBuilder{}
	faults     = map[string]FaultKind{}
	netFaults  = map[string]NetFaultBuilder{}
)

// specMetachars are the bytes the spec grammar reserves; a registered name
// containing one would break the documented String → Parse round trip.
const specMetachars = "+/:,= \t\n"

// RegisterScheduler adds a scheduler to the registry. It panics on a
// duplicate, empty, or grammar-breaking name; registration happens at
// init time.
func RegisterScheduler(name string, b SchedulerBuilder) {
	if name == "" || b == nil {
		panic("scenario: RegisterScheduler: empty name or nil builder")
	}
	if strings.ContainsAny(name, specMetachars) {
		panic(fmt.Sprintf("scenario: scheduler name %q contains spec grammar characters (%q)", name, specMetachars))
	}
	if _, dup := schedulers[name]; dup {
		panic("scenario: duplicate scheduler " + name)
	}
	schedulers[name] = b
}

// RegisterFault adds a fault kind to the registry. Exactly one of Behavior
// and Crash must be set.
func RegisterFault(name string, k FaultKind) {
	if name == "" || (k.Behavior == nil) == (k.Crash == nil) {
		panic("scenario: RegisterFault: need exactly one of Behavior/Crash for " + name)
	}
	if strings.ContainsAny(name, specMetachars) {
		panic(fmt.Sprintf("scenario: fault name %q contains spec grammar characters (%q)", name, specMetachars))
	}
	if _, dup := faults[name]; dup {
		panic("scenario: duplicate fault " + name)
	}
	faults[name] = k
}

// RegisterNetFault adds a network-fault axis to the registry. Its name
// must not collide with a party fault: both appear in the same "+" list.
func RegisterNetFault(name string, b NetFaultBuilder) {
	if name == "" || b == nil {
		panic("scenario: RegisterNetFault: empty name or nil builder")
	}
	if strings.ContainsAny(name, specMetachars) {
		panic(fmt.Sprintf("scenario: net fault name %q contains spec grammar characters (%q)", name, specMetachars))
	}
	if _, dup := netFaults[name]; dup {
		panic("scenario: duplicate net fault " + name)
	}
	if _, dup := faults[name]; dup {
		panic("scenario: net fault " + name + " collides with a party fault")
	}
	netFaults[name] = b
}

// IsNetFault reports whether a fault token (base name, or name:arg) names
// a registered network-fault axis.
func IsNetFault(token string) bool {
	base, _, _ := strings.Cut(token, ":")
	_, ok := netFaults[base]
	return ok
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
func SchedulerNames() []string {
	out := make([]string, 0, len(schedulers))
	for name := range schedulers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FaultNames returns every registered fault key, sorted.
func FaultNames() []string {
	out := make([]string, 0, len(faults))
	for name := range faults {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NetFaultNames returns every registered network-fault key, sorted.
func NetFaultNames() []string {
	out := make([]string, 0, len(netFaults))
	for name := range netFaults {
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
func init() {
	RegisterScheduler("sync", func(_, _ int, arg string) (sim.Scheduler, error) {
		d, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return sched.NewSynchronous(d), nil
	})
	RegisterScheduler("random", func(_, _ int, arg string) (sim.Scheduler, error) {
		max, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return &sched.UniformRandom{Min: 1, Max: max}, nil
	})
	RegisterScheduler("skew", func(_, t int, arg string) (sim.Scheduler, error) {
		slow, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return sched.NewSkew(firstT(t), 1, slow), nil
	})
	RegisterScheduler("partition", func(n, _ int, arg string) (sim.Scheduler, error) {
		across, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return &sched.Partition{Boundary: sim.PartyID(n / 2), Within: 1, Across: across}, nil
	})
	RegisterScheduler("splitviews", func(n, _ int, arg string) (sim.Scheduler, error) {
		slow, err := timeArg(arg, 10)
		if err != nil {
			return nil, err
		}
		return &sched.SplitViews{Boundary: sim.PartyID(n / 2), Fast: 1, Slow: slow}, nil
	})
	RegisterScheduler("staggered", func(_, _ int, arg string) (sim.Scheduler, error) {
		step, err := timeArg(arg, 2)
		if err != nil {
			return nil, err
		}
		return &sched.Staggered{Base: 1, Step: step}, nil
	})
	RegisterScheduler("heavytail", func(_, _ int, arg string) (sim.Scheduler, error) {
		alpha, err := floatArg(arg, 1.5)
		if err != nil {
			return nil, err
		}
		return &sched.HeavyTail{Base: 1, Alpha: alpha, Cap: 400}, nil
	})
	// unordered/fifo are the E11 channel-model pair: the same benign
	// scheduler, bare and wrapped with per-link FIFO ordering. FIFO is
	// stateful, which is why builders return fresh instances per run.
	RegisterScheduler("unordered", func(_, _ int, arg string) (sim.Scheduler, error) {
		if err := noArg("unordered", arg); err != nil {
			return nil, err
		}
		return &sched.UniformRandom{Min: 1, Max: 25}, nil
	})
	RegisterScheduler("fifo", func(_, _ int, arg string) (sim.Scheduler, error) {
		if err := noArg("fifo", arg); err != nil {
			return nil, err
		}
		return sched.NewFIFO(&sched.UniformRandom{Min: 1, Max: 25}), nil
	})

	// "crash" is the standard staggered mid-multicast schedule (harness
	// maxCrashes): early slots die mid-INIT-multicast, later ones survive
	// longer. "crashinit" kills every slot just past its INIT multicast —
	// the overload demonstration's schedule.
	RegisterFault("crash", FaultKind{Crash: func(n, _, slot int) sim.CrashPlan {
		return sim.CrashPlan{Party: sim.PartyID(slot), AfterSends: n/2 + slot*n*2}
	}})
	RegisterFault("crashinit", FaultKind{Crash: func(n, _, slot int) sim.CrashPlan {
		return sim.CrashPlan{Party: sim.PartyID(slot), AfterSends: n + slot}
	}})
	// Every Byzantine kind is range-relative, reading the run's true
	// promised range through fault.Env at instantiation (extreme pushes 100
	// range-widths past the high end, whatever the range).
	RegisterFault("silent", FaultKind{Behavior: fault.Silent{}})
	RegisterFault("extreme", FaultKind{Behavior: fault.ExtremeRel{Scale: 100}})
	RegisterFault("equivocate", FaultKind{Behavior: fault.Equivocate{Stretch: 2}})
	RegisterFault("spam", FaultKind{Behavior: fault.Spam{}})
	RegisterFault("amplifier", FaultKind{Behavior: fault.Amplifier{Push: 1}})

	// The lossy-network axes. These wrap the spec's scheduler (they occupy
	// no fault slots) and compose in token order: in "random+loss:0.05+dup:0.1"
	// the base delay is drawn first, then loss rolls, then dup — the fixed
	// rng-draw order the determinism contract (sim.Scheduler) requires.
	RegisterNetFault("loss", func(_, _ int, arg string, inner sim.Scheduler) (sim.Scheduler, error) {
		p, err := probArg(arg, 0.05)
		if err != nil {
			return nil, err
		}
		return &sched.Loss{Inner: inner, P: p}, nil
	})
	RegisterNetFault("dup", func(_, _ int, arg string, inner sim.Scheduler) (sim.Scheduler, error) {
		p, err := probArg(arg, 0.05)
		if err != nil {
			return nil, err
		}
		return &sched.Dup{Inner: inner, P: p, MaxExtra: 20}, nil
	})
	// "outage[:k:start:len]" blacks out the LAST k parties (a region
	// disjoint from the fault slots at 0..t-1, so outages stack with
	// crash/byz compositions) for the window [start, start+len).
	RegisterNetFault("outage", func(n, _ int, arg string, inner sim.Scheduler) (sim.Scheduler, error) {
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
	})
	// "flap[:len]" takes each fault slot (parties 0..t-1) dark for one
	// len-tick window apiece, staggered in time; the party resumes with
	// its pre-outage state, unlike a sim.CrashPlan crash.
	RegisterNetFault("flap", func(_, t int, arg string, inner sim.Scheduler) (sim.Scheduler, error) {
		length := sim.Time(60)
		if arg != "" {
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || v < 1 || sim.Time(v) > sim.MaxDelayCap {
				return nil, fmt.Errorf("%w: flap window length %q (want 1 <= len <= %d)", ErrBadWindow, arg, sim.MaxDelayCap)
			}
			length = sim.Time(v)
		}
		return &fault.Flap{Inner: inner, Slots: t, Base: 40, Stagger: 60, Len: length}, nil
	})
}
