package scenario

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// parseRoundTripSpecs are canonical specs; FuzzParse seeds from these
// tables too.
var parseRoundTripSpecs = []string{
	"sync/n=9,t=4",
	"sync:5+crash/n=10,t=4",
	"skew+equivocate/n=64,t=9",
	"splitviews/n=64",
	"random+crash+equivocate/n=13,t=6",
	"fifo/n=7,t=2",
}

func TestParseRoundTrip(t *testing.T) {
	for _, raw := range parseRoundTripSpecs {
		s, err := Parse(raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		if got := s.String(); got != raw {
			t.Errorf("round trip %q -> %q", raw, got)
		}
		again, err := Parse(s.String())
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Errorf("re-parse of %q drifted: %+v vs %+v (%v)", raw, again, s, err)
		}
	}
}

// parseRejectSpecs maps specs Parse must reject to the reason.
var parseRejectSpecs = map[string]string{
	"warp/n=9,t=2":                 "unknown scheduler",
	"sync/n=9,t=2,x=1":             "unknown parameter",
	"sync/n=0,t=0":                 "n out of range",
	"sync/n=65537":                 "n above maxN",
	"sync/n=9,t=9":                 "t out of range",
	"sync+gremlin/n=9,t=2":         "unknown fault",
	"sync+crash":                   "faults without n",
	"sync+crash/n=9":               "faults without t",
	"sync+crash+spam+spam/n=9,t=2": "more fault kinds than slots",
	"sync:0/n=9,t=2":               "bad scheduler argument",
	"sync/n=9,t=-1":                "explicit negative t (TUnset sentinel collision)",
	"unordered:3/n=9,t=2":          "argument on arg-less scheduler",
	"sync/n=":                      "empty parameter value",
	"":                             "empty spec",
}

func TestParseRejects(t *testing.T) {
	for raw, why := range parseRejectSpecs {
		if _, err := Parse(raw); err == nil {
			t.Errorf("Parse(%q) accepted (%s)", raw, why)
		}
	}
}

// parseErrorCases pairs rejected specs with what their errors must say.
var parseErrorCases = []struct {
	raw  string
	want []string
}{
	{"warp/n=9,t=2", []string{`token 1 "warp"`, `(char 0)`, `unknown scheduler "warp"`}},
	{"sync:0/n=9,t=2", []string{`token 1 "sync:0"`, `(char 0)`}},
	{"sync+gremlin/n=9,t=2", []string{`token 2 "gremlin"`, `(char 5)`, `unknown fault "gremlin"`}},
	{"random+crash+gremlin/n=9,t=2", []string{`token 3 "gremlin"`, `(char 13)`}},
	{"random+loss:2/n=9,t=2", []string{`token 2 "loss:2"`, `(char 7)`}},
	{"random+crash+flap:0/n=9,t=2", []string{`token 3 "flap:0"`, `(char 13)`}},
	{"random+outage:2:50:0/n=9,t=2", []string{`token 2 "outage:2:50:0"`, `(char 7)`}},
	{"random+recover:1:9999999:0/n=9,t=2", []string{`token 2 "recover:1:9999999:0"`, `(char 7)`}},
	{"sync/n=9,x=1", []string{`parameter "x=1"`, `(char 9)`}},
	{"sync/n=", []string{`parameter "n="`, `(char 5)`}},
	{"sync/n=9,t=-1", []string{`parameter "t=-1"`, `(char 9)`, "need >= 0"}},
	// Shape errors stay positionless: both tokens are individually fine.
	{"sync+crash+spam+spam/n=9,t=2", []string{"fault kinds for"}},
}

// TestParseErrorNamesToken pins the satellite contract: a parse error
// about a single token names the token, its 1-based index, and its byte
// position in the raw string, so a failed sweep row says which axis to
// fix. Cross-token shape errors (slot counts, restart composition) carry
// no position — no single token owns them.
func TestParseErrorNamesToken(t *testing.T) {
	for _, tc := range parseErrorCases {
		_, err := Parse(tc.raw)
		if err == nil {
			t.Errorf("Parse(%q) accepted", tc.raw)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Parse(%q) error %q missing %q", tc.raw, err, want)
			}
		}
	}
}

// TestRegistryDefaults pins the registry's default parameters, which every
// adversary name in the repository resolves to: the six-scheduler suite,
// the Byzantine behaviors, and the staggered crash schedule. Every suite
// scheduler must also produce legal delays for arbitrary pairs.
func TestRegistryDefaults(t *testing.T) {
	n, tf := 15, 2
	half := sim.PartyID(n / 2)
	wantSched := []sim.Scheduler{
		sched.NewSynchronous(10),
		&sched.UniformRandom{Min: 1, Max: 10},
		sched.NewSkew([]sim.PartyID{0, 1}, 1, 10),
		&sched.Partition{Boundary: half, Within: 1, Across: 10},
		&sched.SplitViews{Boundary: half, Fast: 1, Slow: 10},
		&sched.Staggered{Base: 1, Step: 2},
	}
	suite := Suite(n, tf)
	if len(suite) != len(wantSched) {
		t.Fatalf("suite size %d, want %d", len(suite), len(wantSched))
	}
	rng := rand.New(rand.NewSource(1))
	for i, spec := range suite {
		if spec.Sched != SuiteSchedulers()[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, spec.Sched, SuiteSchedulers()[i])
		}
		res, err := spec.Resolve()
		if err != nil {
			t.Fatalf("resolve %s: %v", spec, err)
		}
		if res.Scheduler.Name != spec.Sched {
			t.Errorf("%s: resolved name %q", spec, res.Scheduler.Name)
		}
		if !reflect.DeepEqual(res.Scheduler.Scheduler, wantSched[i]) {
			t.Errorf("%s: scheduler %+v, want %+v", spec, res.Scheduler.Scheduler, wantSched[i])
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				env := sim.Envelope{From: sim.PartyID(from), To: sim.PartyID(to)}
				if d := sim.FateOf(res.Scheduler.Scheduler, &env, rng).Delay; d < 1 || d > sim.MaxDelayCap {
					t.Fatalf("%s: illegal delay %d", spec.Sched, d)
				}
			}
		}
	}

	res, err := Spec{Sched: "sync", Faults: []string{"crash"}, N: 9, T: 4}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for slot, plan := range res.Crashes {
		want := sim.CrashPlan{Party: sim.PartyID(slot), AfterSends: 9/2 + slot*9*2}
		if plan != want {
			t.Errorf("crash slot %d: %+v, want %+v", slot, plan, want)
		}
	}

	wantByz := []fault.Behavior{
		fault.Silent{},
		fault.ExtremeRel{Scale: 100},
		fault.Equivocate{Stretch: 2},
		fault.Spam{},
		fault.Amplifier{Push: 1},
	}
	for i, name := range ByzSuite() {
		res, err := Spec{Sched: "splitviews", Faults: []string{name}, N: 10, T: 3}.Resolve()
		if err != nil {
			t.Fatalf("resolve %s: %v", name, err)
		}
		if len(res.Byz) != 3 || len(res.Crashes) != 0 {
			t.Fatalf("%s: %d byz, %d crashes", name, len(res.Byz), len(res.Crashes))
		}
		if !reflect.DeepEqual(res.Byz[0], wantByz[i]) {
			t.Errorf("%s: behavior %+v, want %+v", name, res.Byz[0], wantByz[i])
		}
		if res.Byz[0].Name() != name {
			t.Errorf("%s: behavior names itself %q", name, res.Byz[0].Name())
		}
	}
}

// TestCheckScheduler pins the bare-token check callers run before they
// know the run shape.
func TestCheckScheduler(t *testing.T) {
	for _, tok := range append(SchedulerNames(), "sync:5", "heavytail:1.5", "staggered:3") {
		if err := CheckScheduler(tok); err != nil {
			t.Errorf("CheckScheduler(%q): %v", tok, err)
		}
	}
	for _, tok := range []string{"", "warp", "sync:x", "fifo:1", "random+loss:0.1", "splitviews/n=4"} {
		if err := CheckScheduler(tok); err == nil {
			t.Errorf("CheckScheduler(%q) accepted", tok)
		}
	}
}

// TestResolveMixedFaults pins the cyclic slot assignment of composite
// fault lists.
func TestResolveMixedFaults(t *testing.T) {
	res, err := MustParse("random+crash+equivocate/n=13,t=5").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashes) != 3 { // slots 0, 2, 4
		t.Fatalf("crashes %+v", res.Crashes)
	}
	if len(res.Byz) != 2 { // slots 1, 3
		t.Fatalf("byz %+v", res.Byz)
	}
	for _, p := range []sim.PartyID{1, 3} {
		if _, ok := res.Byz[p]; !ok {
			t.Errorf("slot %d not byzantine", p)
		}
	}
}

// TestResolveFreshInstances pins that stateful schedulers are never shared
// across resolutions.
func TestResolveFreshInstances(t *testing.T) {
	spec := MustParse("fifo/n=7,t=2")
	a, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Scheduler.Scheduler == b.Scheduler.Scheduler {
		t.Fatal("fifo scheduler instance shared across resolutions")
	}
}

func TestSchedulerArg(t *testing.T) {
	res, err := MustParse("sync:5/n=9,t=4").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Scheduler.Scheduler.Fate(&sim.Envelope{}, nil).Delay; d != 5 {
		t.Fatalf("sync:5 delay = %d", d)
	}
	if res.Scheduler.Name != "sync:5" {
		t.Fatalf("resolved name %q", res.Scheduler.Name)
	}
}

func TestCross(t *testing.T) {
	specs := Cross([]string{"sync", "splitviews"}, [][]string{nil, {"crash"}},
		[]int{64, 128}, func(n int) int { return (n - 1) / 2 })
	if len(specs) != 8 {
		t.Fatalf("cross product size %d", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
		if s.T != (s.N-1)/2 {
			t.Errorf("%s: t not derived", s)
		}
	}
}

func TestFuzzRegistry(t *testing.T) {
	stats, err := Fuzz(800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Valid == 0 || stats.Invalid == 0 {
		t.Fatalf("degenerate fuzz distribution: %+v", stats)
	}
}

// TestRegisterRejectsGrammarNames pins that no registry key contains a byte
// the spec grammar reserves, which would break the String → Parse round trip.
func TestRegisterRejectsGrammarNames(t *testing.T) {
	const specMetachars = "+/:,= \t\n"
	for _, name := range append(SchedulerNames(), sortedKeys(faults)...) {
		if name == "" || strings.ContainsAny(name, specMetachars) {
			t.Errorf("registry key %q is empty or contains spec grammar characters (%q)", name, specMetachars)
		}
	}
}

// TestRegistryNames pins the tables' keys: the suites name registered
// entries, and every fault entry sets exactly one of its four fields.
func TestRegistryNames(t *testing.T) {
	for _, name := range SuiteSchedulers() {
		if _, ok := schedulers[name]; !ok {
			t.Errorf("suite scheduler %q unregistered", name)
		}
	}
	for _, name := range append(ByzSuite(), "crash", "crashinit") {
		if _, ok := faults[name]; !ok {
			t.Errorf("fault %q unregistered", name)
		}
	}
	for name, k := range faults {
		set := 0
		for _, on := range []bool{k.Behavior != nil, k.Crash != nil, k.Net != nil, k.Restart != nil} {
			if on {
				set++
			}
		}
		if set != 1 {
			t.Errorf("fault %q sets %d of Behavior/Crash/Net/Restart, want 1", name, set)
		}
	}
}
