package harness

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file pins the batched tick-delivery core (sim.BatchOn, the default)
// to the per-envelope reference loop (sim.BatchOff): byte-identical
// experiment tables across the full driver set, on both event cores, at
// engine parallelism 1 and 8 — the experiment-level form of the trace
// equivalence pinned in internal/sim. Together with the core- and
// recycling-equivalence suites this keeps every fast path honest against
// the same reference semantics.

// renderBatched renders the listed experiments (E12 reduced) with the given
// batch mode, event core, and worker count.
func renderBatched(t *testing.T, mode sim.BatchMode, eventCore sim.EventCore, workers int) map[string]string {
	t.Helper()
	SetBatching(mode)
	SetEventCore(eventCore)
	SetParallelism(workers)
	defer SetBatching(sim.BatchDefault)
	defer SetEventCore(sim.CoreDefault)
	defer SetParallelism(0)
	out := make(map[string]string)
	for _, exp := range Experiments(1) {
		run := exp.Run
		if exp.ID == "E12" {
			run = func() (*trace.Table, error) { return E12LargeNSizes([]int{16, 32}) }
		}
		tbl, err := run()
		if err != nil {
			t.Fatalf("%s (batch=%v, core=%v, workers=%d): %v", exp.ID, mode, eventCore, workers, err)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		out[exp.ID] = sb.String()
	}
	return out
}

// TestBatchDeliveryByteIdentical regenerates the full E1–E12 table set with
// batching off (the reference loop) and compares byte-for-byte against
// batching on, across both event cores and at one and eight workers. Any
// leak in the deferred-flush equivalence machinery — send order, Seq
// assignment, rng draws, mid-tick completion, stats repair — perturbs some
// run's schedule and surfaces as a table diff.
func TestBatchDeliveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment table five times; run without -short")
	}
	want := renderBatched(t, sim.BatchOff, sim.CoreDefault, 1) // reference loop, sequential
	for _, cfg := range []struct {
		mode    sim.BatchMode
		core    sim.EventCore
		workers int
	}{
		{sim.BatchOn, sim.CoreDefault, 1},
		{sim.BatchOn, sim.CoreDefault, 8},
		{sim.BatchOn, sim.CoreHeap, 1},
		{sim.BatchOff, sim.CoreDefault, 8},
	} {
		got := renderBatched(t, cfg.mode, cfg.core, cfg.workers)
		for id, ref := range want {
			if got[id] != ref {
				t.Errorf("%s diverges (batch=%v, core=%v, workers=%d):\n--- reference ---\n%s\n--- got ---\n%s",
					id, cfg.mode, cfg.core, cfg.workers, ref, got[id])
			}
		}
	}
}

// TestShardedTablesByteIdentical keeps its name from when it compared the
// tables across shard counts; the shard workers' merge (deferred-op
// concatenation, stats folding, completion trigger, payload arena) is now
// the one batched tick body. The reduced sizes above keep ticks small, so
// this renders the E12 driver at n=64, where multicast storms are
// 4096-event ticks, with batching on (at one and eight workers) and off,
// and requires byte-identical tables.
func TestShardedTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a large-n E12 sweep three times; run without -short")
	}
	render := func(mode sim.BatchMode, workers int) string {
		SetBatching(mode)
		SetParallelism(workers)
		defer SetBatching(sim.BatchDefault)
		defer SetParallelism(0)
		tbl, err := E12LargeNSizes([]int{64})
		if err != nil {
			t.Fatalf("E12 n=64 (batch=%v, workers=%d): %v", mode, workers, err)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := render(sim.BatchOff, 1)
	for _, workers := range []int{1, 8} {
		if got := render(sim.BatchOn, workers); got != want {
			t.Errorf("E12 n=64 diverges (workers=%d):\n--- reference ---\n%s\n--- batched ---\n%s", workers, want, got)
		}
	}
}

// TestE12LargeN512Smoke exercises the n=512 scale axis the batched
// delivery + SoA work unlocks: a reduced scenario slice (one benign and
// two adversarial schedulers, fault-free and crash-storm) at n=512 on the
// crash protocol, asserting full invariant success. It runs from the CI
// bench-smoke job (make e12-smoke); locally it is opt-in via
// E12_LARGE_SMOKE=1 because a single run pushes ~3M messages.
func TestE12LargeN512Smoke(t *testing.T) {
	if os.Getenv("E12_LARGE_SMOKE") == "" {
		t.Skip("set E12_LARGE_SMOKE=1 to run the n=512 sweep smoke")
	}
	const n = 512
	p := core.Params{Protocol: core.ProtoCrash, N: n, T: (n - 1) / 2, Eps: 1e-3, Lo: 0, Hi: 1}
	var specs []Spec
	var labels []string
	for _, scen := range []string{
		"random/n=512,t=255",
		"splitviews/n=512,t=255",
		"splitviews+crash/n=512,t=255",
		"staggered+crash/n=512,t=255",
	} {
		spec, err := SpecFrom(p, BimodalInputs(n, 0, 1), scenario.MustParse(scen), 17)
		if err != nil {
			t.Fatal(err)
		}
		spec.MaxEvents = 50_000_000
		specs = append(specs, spec)
		labels = append(labels, scen)
	}
	reps, err := RunAllLabeled(specs, func(i int) string { return "E12-512 " + labels[i] })
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if !rep.OK() {
			t.Errorf("%s: %s", labels[i], rep.Failure())
		}
		t.Logf("%s: %d msgs, %d delivered, rounds %.2f",
			labels[i], rep.Result.Stats.MessagesSent, rep.Result.Stats.MessagesDelivered, rep.Result.Rounds())
	}
}

// TestE12XL1024Smoke exercises the n=1024 scale axis: the reduced E12-XL
// slice with full invariant success. It runs from the CI bench-smoke job
// (make e12-xl); locally it is opt-in via E12_XL_SMOKE=1 because a single
// fault-free n=1024 run pushes ~10M messages.
func TestE12XL1024Smoke(t *testing.T) {
	if os.Getenv("E12_XL_SMOKE") == "" {
		t.Skip("set E12_XL_SMOKE=1 to run the n=1024 smoke")
	}
	tbl, err := E12XLSizes([]int{1024})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "false") {
		t.Errorf("E12-XL row failed invariants:\n%s", sb.String())
	}
	t.Logf("E12-XL n=1024:\n%s", sb.String())
}
