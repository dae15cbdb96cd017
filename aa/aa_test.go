package aa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 0.01, Lo: 0, Hi: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero model", Config{N: 5, T: 2, Epsilon: 0.01, Hi: 1}},
		{"bad model", Config{Model: Model(99), N: 5, T: 2, Epsilon: 0.01, Hi: 1}},
		{"crash resilience", Config{Model: ModelCrash, N: 4, T: 2, Epsilon: 0.01, Hi: 1}},
		{"trim resilience", Config{Model: ModelByzantineTrim, N: 7, T: 1, Epsilon: 0.01, Hi: 1}},
		{"witness resilience", Config{Model: ModelByzantineWitness, N: 3, T: 1, Epsilon: 0.01, Hi: 1}},
		{"zero epsilon", Config{Model: ModelCrash, N: 5, T: 2, Hi: 1}},
		{"negative epsilon", Config{Model: ModelCrash, N: 5, T: 2, Epsilon: -1, Hi: 1}},
		{"inverted range", Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 0.01, Lo: 2, Hi: 1}},
		{"nan range", Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 0.01, Lo: math.NaN(), Hi: 1}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestMinN(t *testing.T) {
	cases := []struct {
		model Model
		t     int
		want  int
	}{
		{ModelCrash, 0, 1},
		{ModelCrash, 3, 7},
		{ModelByzantineTrim, 1, 8},
		{ModelByzantineTrim, 2, 15},
		{ModelByzantineWitness, 1, 4},
		{ModelByzantineWitness, 3, 10},
	}
	for _, c := range cases {
		got, err := MinN(c.model, c.t)
		if err != nil {
			t.Fatalf("MinN(%v, %d): %v", c.model, c.t, err)
		}
		if got != c.want {
			t.Errorf("MinN(%v, %d) = %d, want %d", c.model, c.t, got, c.want)
		}
	}
	if _, err := MinN(Model(0), 1); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("MinN with bad model: got %v, want ErrUnknownModel", err)
	}
}

func TestConfigRounds(t *testing.T) {
	c := Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 1.0 / 1024, Lo: 0, Hi: 1}
	r, err := c.Rounds()
	if err != nil {
		t.Fatal(err)
	}
	if r != 10 {
		t.Errorf("Rounds() = %d, want 10 (log2(1024) halvings)", r)
	}
	adaptive := Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 0.01, Adaptive: true}
	r, err = adaptive.Rounds()
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("adaptive Rounds() = %d, want 0 (input-dependent)", r)
	}
}

func TestSimulateEveryModel(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		sched string
	}{
		{"crash", Config{Model: ModelCrash, N: 7, T: 3, Epsilon: 1e-3, Lo: 0, Hi: 10}, SchedRandom},
		{"byz-trim", Config{Model: ModelByzantineTrim, N: 8, T: 1, Epsilon: 1e-3, Lo: 0, Hi: 10}, SchedRandom},
		{"byz-witness", Config{Model: ModelByzantineWitness, N: 7, T: 2, Epsilon: 1e-3, Lo: 0, Hi: 10}, SchedRandom},
		{"synchronous", Config{Model: ModelCrash, N: 7, T: 3, Epsilon: 1e-3, Lo: 0, Hi: 10}, SchedSynchronous},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			inputs := make([]float64, c.cfg.N)
			for i := range inputs {
				inputs[i] = 10 * float64(i) / float64(c.cfg.N-1)
			}
			out, err := Simulate(c.cfg, inputs, WithSeed(3), WithScheduler(c.sched))
			if err != nil {
				t.Fatal(err)
			}
			if !out.OK() {
				t.Fatalf("outcome not OK: spread=%v agreed=%v valid=%v err=%v",
					out.Spread, out.Agreed, out.Valid, out.Err)
			}
			if len(out.Values) != c.cfg.N {
				t.Errorf("got %d decisions, want %d", len(out.Values), c.cfg.N)
			}
			if out.Messages == 0 || out.Bytes == 0 {
				t.Error("no traffic recorded")
			}
		})
	}
}

func TestSimulateWithFaults(t *testing.T) {
	cfg := Config{Model: ModelByzantineWitness, N: 10, T: 3, Epsilon: 1e-3, Lo: -5, Hi: 5}
	inputs := make([]float64, 10)
	for i := range inputs {
		inputs[i] = -5 + float64(i)
	}
	out, err := Simulate(cfg, inputs,
		WithSeed(11),
		WithScheduler(SchedSplitViews),
		WithByzantine(0, ByzEquivocate),
		WithByzantine(4, ByzExtreme),
		WithByzantine(9, ByzSpam),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("outcome not OK under byzantine attack: spread=%v valid=%v err=%v",
			out.Spread, out.Valid, out.Err)
	}
}

func TestSimulateCrashFaults(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 9, T: 4, Epsilon: 1e-3, Lo: 0, Hi: 1}
	inputs := make([]float64, 9)
	for i := range inputs {
		inputs[i] = float64(i) / 8
	}
	out, err := Simulate(cfg, inputs,
		WithScheduler(SchedSkew),
		WithCrash(0, 3),  // dies mid-first-multicast
		WithCrash(1, 30), // dies a few rounds in
		WithCrash(2, 0),  // never sends anything
		WithCrash(3, 100),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("outcome not OK with 4 crashes: %+v", out)
	}
}

func TestSimulateOptionErrors(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 3, T: 1, Epsilon: 0.1, Lo: 0, Hi: 1}
	inputs := []float64{0, 0.5, 1}
	if _, err := Simulate(cfg, inputs, WithScheduler("warp")); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := Simulate(cfg, inputs, WithScheduler("sync:x")); err == nil {
		t.Error("bad scheduler argument accepted")
	}
	if _, err := Simulate(cfg, inputs, WithByzantine(0, "gremlin")); err == nil {
		t.Error("unknown behavior accepted")
	}
	if _, err := Simulate(cfg, inputs, WithByzantine(0, "crash")); err == nil {
		t.Error("crash kind accepted as a byzantine behavior")
	}
	if _, err := Simulate(cfg, inputs, WithCrash(3, 1)); err == nil {
		t.Error("out-of-range crash party accepted")
	}
	if _, err := Simulate(cfg, inputs, WithScenario("sync+crash/n=3,t=1"), WithCrash(0, 1)); err == nil {
		t.Error("explicit crash alongside a scenario's party faults accepted")
	}
	if _, err := Simulate(cfg, inputs[:2]); err == nil {
		t.Error("wrong input count accepted")
	}
}

// TestFlagOptionsLowerToRegistry pins the one vocabulary: WithScheduler
// and WithByzantine build exactly what the same names build in a scenario
// spec, for every standard scheduler and behavior, down to the outcome.
func TestFlagOptionsLowerToRegistry(t *testing.T) {
	cfg := Config{Model: ModelByzantineWitness, N: 10, T: 3, Epsilon: 1e-3, Lo: -5, Hi: 5}
	p, err := cfg.params()
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]float64, cfg.N)
	for i := range inputs {
		inputs[i] = -5 + float64(i)
	}
	for _, sched := range scenario.SuiteSchedulers() {
		for _, byz := range scenario.ByzSuite() {
			raw := fmt.Sprintf("%s+%s/n=10,t=3", sched, byz)
			flags := []SimOption{WithScheduler(sched), WithByzantine(0, byz), WithByzantine(1, byz), WithByzantine(2, byz)}
			got, err := lower(cfg, inputs, flags)
			if err != nil {
				t.Fatalf("%s: %v", raw, err)
			}
			want, err := harness.SpecFrom(p, inputs, scenario.MustParse(raw), 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Scheduler, want.Scheduler) || !reflect.DeepEqual(got.Byz, want.Byz) ||
				len(got.Crashes)+len(want.Crashes) != 0 {
				t.Errorf("%s: flags lower to %+v / %+v, registry builds %+v / %+v",
					raw, got.Scheduler, got.Byz, want.Scheduler, want.Byz)
			}
			a, err := Simulate(cfg, inputs, flags...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Simulate(cfg, inputs, WithScenario(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: flag outcome %+v, scenario outcome %+v", raw, a, b)
			}
		}
	}
}

func TestSimulateDeterminism(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 7, T: 3, Epsilon: 1e-6, Lo: 0, Hi: 100}
	inputs := []float64{3, 14, 15, 92, 65, 35, 89}
	a, err := Simulate(cfg, inputs, WithSeed(5), WithScheduler(SchedRandom))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, inputs, WithSeed(5), WithScheduler(SchedRandom))
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range a.Values {
		if b.Values[id] != v {
			t.Fatalf("nondeterministic: party %d got %v then %v", id, v, b.Values[id])
		}
	}
	if a.Messages != b.Messages || a.Rounds != b.Rounds {
		t.Errorf("nondeterministic stats: %+v vs %+v", a, b)
	}
}

func TestRunLive(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 1e-3, Lo: 0, Hi: 1}
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := RunLive(ctx, cfg, inputs, LiveOptions{MaxJitter: 500 * time.Microsecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("live run not OK: spread=%v valid=%v", out.Spread, out.Valid)
	}
	if len(out.Values) != 5 {
		t.Errorf("got %d decisions, want 5", len(out.Values))
	}
}

func TestSimulateReliableSurvivesLoss(t *testing.T) {
	// The raw transport stalls under sustained loss; WithReliable heals it
	// by retransmission — the E13 resilience claim through the public API.
	cfg := Config{Model: ModelCrash, N: 16, T: 3, Epsilon: 1e-2, Lo: 0, Hi: 100}
	inputs := make([]float64, 16)
	for i := range inputs {
		inputs[i] = float64(i) * 100 / 15
	}
	const scen = "random+loss:0.1/n=16,t=3"
	raw, err := Simulate(cfg, inputs, WithSeed(7), WithScenario(scen), WithMaxEvents(20_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if raw.OK() {
		t.Fatal("raw transport converged under 10% loss; loss axis not applied?")
	}
	rel, err := Simulate(cfg, inputs, WithSeed(7), WithScenario(scen), WithMaxEvents(20_000_000), WithReliable())
	if err != nil {
		t.Fatal(err)
	}
	if !rel.OK() {
		t.Fatalf("reliable transport failed under 10%% loss: %+v", rel.Err)
	}
	if rel.Dropped == 0 {
		t.Error("loss axis dropped nothing")
	}
	if rel.Retransmits == 0 {
		t.Error("reliable transport never retransmitted under loss")
	}
}

// TestRunLiveScenario: LiveOptions.Scenario runs at the config's shape, so
// a spec that names its own is an error, as is a token the live runtime
// cannot run; an outage window on the last party, open from the start,
// drops sends, and the reliable transport heals it.
func TestRunLiveScenario(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 1e-3, Lo: 0, Hi: 1}
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for scen, want := range map[string]string{"random/n=7,t=2": "parameter", "random+crash": `"crash"`} {
		if _, err := RunLive(ctx, cfg, inputs, LiveOptions{Scenario: scen}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Scenario %q: %v, want an error naming %s", scen, err, want)
		}
	}
	out, err := RunLive(ctx, cfg, inputs, LiveOptions{MaxJitter: 500 * time.Microsecond, Seed: 4,
		Scenario: "random+outage:1:0:20", Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() || out.Dropped == 0 {
		t.Errorf("outage run: ok %v, %d dropped", out.OK(), out.Dropped)
	}
}

func TestRunLivePartialOutcomeOnTimeout(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 1e-3, Lo: 0, Hi: 1}
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	// 60% raw loss cannot converge: the timeout must surface the partial
	// outcome (drop counters, any decisions) alongside the error.
	out, err := RunLive(ctx, cfg, inputs, LiveOptions{Seed: 9, Scenario: "random+loss:0.6"})
	if err == nil {
		t.Fatal("expected a timeout error under 60% raw loss")
	}
	if out == nil {
		t.Fatal("timeout discarded the partial outcome")
	}
	if out.Dropped == 0 {
		t.Error("loss injection dropped nothing")
	}
	if !errors.Is(out.Err, err) && out.Err == nil {
		t.Error("partial outcome does not carry the error")
	}
	if len(out.Values) < cfg.N && out.Valid {
		t.Errorf("%d of %d parties decided, yet the outcome reads valid", len(out.Values), cfg.N)
	}
}

func TestModelString(t *testing.T) {
	for m, want := range map[Model]string{
		ModelCrash:            "crash",
		ModelByzantineTrim:    "byzantine-trim",
		ModelByzantineWitness: "byzantine-witness",
		Model(42):             "model(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Model(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

// TestSimulateWitnessDefaultBudget pins that the default event budget
// follows the run's shape: a fault-free witness run at (n, t) = (64, 9)
// sends about 9 M messages, more than sim's flat default allows, through
// both Simulate and a one-dimensional SimulateVector.
func TestSimulateWitnessDefaultBudget(t *testing.T) {
	cfg := Config{Model: ModelByzantineWitness, N: 64, T: 9, Epsilon: 1e-3, Lo: 0, Hi: 100}
	inputs := make([]float64, cfg.N)
	points := make([][]float64, cfg.N)
	for i := range inputs {
		inputs[i] = 100 * float64(i) / float64(cfg.N-1)
		points[i] = []float64{inputs[i]}
	}
	out, err := Simulate(cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("outcome not OK: spread=%v valid=%v err=%v", out.Spread, out.Valid, out.Err)
	}
	if out.Messages <= sim.DefaultMaxEvents {
		t.Errorf("%d messages: the run no longer exceeds sim's default budget", out.Messages)
	}
	vout, err := SimulateVector(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	if !vout.OK() {
		t.Fatalf("vector outcome not OK: err=%v", vout.Err)
	}
}
