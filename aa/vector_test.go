package aa

import (
	"errors"
	"testing"
)

func TestSimulateVector2D(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 7, T: 3, Epsilon: 1e-3, Lo: -10, Hi: 10}
	inputs := [][]float64{
		{-10, 3}, {-5, -7}, {0, 10}, {2, 2}, {5, -10}, {8, 0}, {10, 6},
	}
	out, err := SimulateVector(cfg, inputs,
		WithSeed(3),
		WithScheduler(SchedSplitViews),
		WithCrash(0, 10),
		WithCrash(1, 40),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("vector run failed: spread=%v valid=%v err=%v", out.MaxSpread, out.Valid, out.Err)
	}
	for id, pt := range out.Points {
		if len(pt) != 2 {
			t.Fatalf("party %d point %v", id, pt)
		}
	}
}

func TestSimulateVectorByzantine(t *testing.T) {
	cfg := Config{Model: ModelByzantineWitness, N: 7, T: 2, Epsilon: 1e-2, Lo: 0, Hi: 1}
	inputs := make([][]float64, 7)
	for i := range inputs {
		f := float64(i) / 6
		inputs[i] = []float64{f, 1 - f, 0.5}
	}
	out, err := SimulateVector(cfg, inputs,
		WithSeed(7),
		WithByzantine(0, ByzEquivocate),
		WithByzantine(3, ByzExtreme),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("byzantine vector run failed: spread=%v valid=%v err=%v",
			out.MaxSpread, out.Valid, out.Err)
	}
	if len(out.Points) != 5 {
		t.Errorf("got %d honest points, want 5", len(out.Points))
	}
}

// TestSimulateVectorScenario pins that the vector path runs the adversary
// WithScenario names: the spec's crash slots (parties 0 and 1) die before
// deciding, so they are absent from Points.
func TestSimulateVectorScenario(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 7, T: 2, Epsilon: 1e-3, Lo: 0, Hi: 1}
	inputs := make([][]float64, cfg.N)
	for i := range inputs {
		f := float64(i) / 6
		inputs[i] = []float64{f, 1 - f}
	}
	out, err := SimulateVector(cfg, inputs, WithSeed(5), WithScenario("splitviews+crash/n=7,t=2"))
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("vector scenario run failed: spread=%v valid=%v err=%v", out.MaxSpread, out.Valid, out.Err)
	}
	for _, id := range []int{0, 1} {
		if _, ok := out.Points[id]; ok {
			t.Errorf("crashed party %d has a point", id)
		}
	}
	if len(out.Points) != 5 {
		t.Errorf("got %d points, want the 5 surviving parties", len(out.Points))
	}
	if _, err := SimulateVector(cfg, inputs, WithReliable()); err == nil {
		t.Error("WithReliable accepted on the vector path")
	}
}

func TestSimulateVectorValidation(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 3, T: 1, Epsilon: 0.1, Lo: 0, Hi: 1}
	ok := [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}}
	if _, err := SimulateVector(cfg, ok[:2]); err == nil {
		t.Error("wrong point count accepted")
	}
	ragged := [][]float64{{0, 0}, {1}, {0.5, 0.5}}
	if _, err := SimulateVector(cfg, ragged); err == nil {
		t.Error("ragged dimensions accepted")
	}
	unknown := cfg
	unknown.Model = Model(42)
	if _, err := SimulateVector(unknown, ok); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: got %v, want ErrUnknownModel", err)
	}
	if _, err := SimulateVector(cfg, ok, WithCrash(0, 1), WithCrash(1, 1)); err == nil {
		t.Error("overfaulted vector spec accepted")
	}
}

func TestSimulateVectorDeterminism(t *testing.T) {
	cfg := Config{Model: ModelCrash, N: 5, T: 2, Epsilon: 1e-4, Lo: 0, Hi: 1}
	inputs := [][]float64{{0, 1}, {0.2, 0.8}, {0.4, 0.6}, {0.6, 0.4}, {1, 0}}
	a, err := SimulateVector(cfg, inputs, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateVector(cfg, inputs, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for id, pt := range a.Points {
		for d := range pt {
			if b.Points[id][d] != pt[d] {
				t.Fatalf("nondeterministic vector outcome at party %d dim %d", id, d)
			}
		}
	}
}
