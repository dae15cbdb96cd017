package sched

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// buildRun assembles a crash-protocol network over the given scheduler.
func buildRun(t *testing.T, scheduler sim.Scheduler, seed int64) *sim.Result {
	t.Helper()
	p := core.Params{Protocol: core.ProtoCrash, N: 5, T: 2, Eps: 1e-4, Lo: 0, Hi: 1}
	net, err := sim.New(sim.Config{N: 5, Scheduler: scheduler, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := 0; i < 5; i++ {
		proc, err := core.NewAsyncAA(p, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetProcess(sim.PartyID(i), proc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHeavyTailShape(t *testing.T) {
	h := &HeavyTail{Base: 2, Alpha: 1.5, Cap: 200}
	rng := rand.New(rand.NewSource(3))
	slow := 0
	for i := 0; i < 5000; i++ {
		d := delay(h, 0, 0, rng)
		if d < 2 || d > 200 {
			t.Fatalf("delay %d outside [2, 200]", d)
		}
		if d > 20 {
			slow++
		}
	}
	// A Pareto(1.5) tail puts a few percent of mass past 10x the base.
	if slow == 0 {
		t.Error("no heavy-tail samples at all")
	}
	if slow > 2500 {
		t.Errorf("tail too heavy: %d/5000 slow", slow)
	}
	// Defaults are repaired.
	d := (&HeavyTail{}).Fate(&sim.Envelope{}, rng).Delay
	if d < 1 {
		t.Errorf("default delay %d", d)
	}
}

// A protocol run under heavy-tail asynchrony still satisfies everything.
func TestHeavyTailProtocolRun(t *testing.T) {
	res := buildRun(t, &HeavyTail{Base: 1, Alpha: 1.2, Cap: 500}, 11)
	if len(res.Decisions) != 5 {
		t.Fatalf("decisions %v", res.Decisions)
	}
	if s := res.HonestSpread(); s > 1e-4 {
		t.Errorf("spread %v", s)
	}
}
