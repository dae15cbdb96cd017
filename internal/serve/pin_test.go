package serve

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// summaryHash folds a Simulate result into one FNV-1a hash: every field of
// every RequestOutcome, in order, then the counters, the instance totals
// and the decided-latency p50 and p99.
func summaryHash(sum *Summary) uint64 {
	h := fnv.New64a()
	for _, ro := range sum.Outcomes {
		fmt.Fprintf(h, "%+v\n", ro)
	}
	fmt.Fprintf(h, "%+v %d %d %d %d %d %d\n", sum.Counters, sum.Horizon, sum.End,
		sum.Instances, sum.InstanceMsgs, sum.LatencyP(0.5), sum.LatencyP(0.99))
	return h.Sum64()
}

// TestSimulatePinned pins Simulate's whole output on the twelve E15
// configurations and on the benchmark's serve.Simulate probe
// configuration: a rewrite of the serve loop that keeps these hashes keeps
// E15's table and golden.json byte-identical.
func TestSimulatePinned(t *testing.T) {
	// Recorded against the engine that kept separate virtual and
	// wall-clock loops.
	want := map[string]uint64{
		"e15/clean/0.5": 0x95a707e8d7733763,
		"e15/clean/1":   0xf2eea3ca76b9c520,
		"e15/clean/2":   0xe950544f5c928951,
		"e15/clean/4":   0x20c70d67f48835e0,
		"e15/lossy/0.5": 0x9b4aa8ccbf35fc3d,
		"e15/lossy/1":   0xdbb40f6ebe1a4c98,
		"e15/lossy/2":   0x99b7503aab77f12f,
		"e15/lossy/4":   0x60fe3ffa41beb1c9,
		"e15/flaky/0.5": 0x797e03ae39053a0e,
		"e15/flaky/1":   0xc41b35b8177c30ef,
		"e15/flaky/2":   0xa2e6f74a1a32f36c,
		"e15/flaky/4":   0xce9dc0bef0991d48,
		"probe":         0x79ac577cd3fac798,
	}
	check := func(name string, w workload.Spec, cfg Config, opts Options, horizon int64) {
		t.Helper()
		sum, err := Simulate(w, cfg, opts, horizon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := summaryHash(sum); got != want[name] {
			t.Errorf("%s: summary hash %#x, want %#x", name, got, want[name])
		}
	}
	for _, mix := range []struct {
		name     string
		flaky    bool
		scenario string
		reliable bool
	}{
		{"clean", false, "random", false},
		{"lossy", false, "random+loss:0.05+dup:0.02", true},
		{"flaky", true, "random", false},
	} {
		base, err := e15Workload(mix.flaky)
		if err != nil {
			t.Fatal(err)
		}
		sat := base.SaturationRate(e15Workers)
		cfg := Config{Protocol: core.ProtoCrash, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 100,
			Scenario: mix.scenario, Reliable: mix.reliable, Seed: e15Seed}
		for _, mult := range []float64{0.5, 1, 2, 4} {
			check(fmt.Sprintf("e15/%s/%g", mix.name, mult), base.Scale(mult), cfg, e15Options(sat), e15Horizon)
		}
	}
	probe := workload.MustParse("poisson:130+lognormal:4:0.5+cohort:web:0.7:300:1+cohort:batch:0.3:1200:0")
	check("probe", probe, Config{Protocol: core.ProtoCrash, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 100, Scenario: "random", Seed: 1},
		Options{Workers: 4, QueueDepth: 64}, 40000)
}
