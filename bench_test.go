// Benchmark harness: one benchmark per evaluation artifact (experiments
// E1–E14 in DESIGN.md — every table and figure), plus micro-benchmarks of
// the substrates. Each experiment benchmark regenerates its table per
// iteration; run with -v to see a rendered table. cmd/aabench prints all
// tables with more seeds.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/microbench"
	"repro/internal/multiset"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runExperiment drives one experiment per iteration and logs the final
// table under -v.
func runExperiment(b *testing.B, run func() (*trace.Table, error)) {
	b.Helper()
	var tbl *trace.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if tbl != nil {
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + sb.String())
	}
}

// BenchmarkE1Resilience regenerates Table E1 (resilience thresholds).
func BenchmarkE1Resilience(b *testing.B) {
	runExperiment(b, func() (*trace.Table, error) { return harness.E1Resilience(1) })
}

// BenchmarkE2Convergence regenerates Table E2 (per-round convergence rate).
func BenchmarkE2Convergence(b *testing.B) {
	runExperiment(b, func() (*trace.Table, error) { return harness.E2Convergence(1) })
}

// BenchmarkE3Rounds regenerates Table E3 (round complexity vs spread).
func BenchmarkE3Rounds(b *testing.B) {
	runExperiment(b, harness.E3Rounds)
}

// BenchmarkE4Messages regenerates Table E4 (message and bit complexity).
func BenchmarkE4Messages(b *testing.B) {
	runExperiment(b, harness.E4Messages)
}

// BenchmarkE5Trajectories regenerates Figure E5 (diameter by round under
// each Byzantine behavior).
func BenchmarkE5Trajectories(b *testing.B) {
	runExperiment(b, harness.E5Trajectories)
}

// BenchmarkE6Scaling regenerates Figure E6 (scaling with n), capped at
// n=32 to keep the iteration under a second; aabench runs the full sweep.
// It runs on the parallel experiment engine at the default worker count;
// compare against BenchmarkE6ScalingSequential for the engine's speedup
// (~GOMAXPROCS on a multi-core machine).
func BenchmarkE6Scaling(b *testing.B) {
	runExperiment(b, func() (*trace.Table, error) {
		return harness.E6ScalingSizes([]int{8, 16, 32})
	})
}

// BenchmarkE6ScalingSequential is BenchmarkE6Scaling pinned to one engine
// worker: the sequential baseline for the parallel-speedup acceptance
// criterion (the tables rendered by both are byte-identical).
func BenchmarkE6ScalingSequential(b *testing.B) {
	harness.SetParallelism(1)
	defer harness.SetParallelism(0)
	runExperiment(b, func() (*trace.Table, error) {
		return harness.E6ScalingSizes([]int{8, 16, 32})
	})
}

// BenchmarkE7Functions regenerates Table E7 (approximation-function
// ablation).
func BenchmarkE7Functions(b *testing.B) {
	runExperiment(b, func() (*trace.Table, error) { return harness.E7Functions(1) })
}

// BenchmarkE8Adaptive regenerates Table E8 (adaptive vs fixed-range
// termination).
func BenchmarkE8Adaptive(b *testing.B) {
	runExperiment(b, func() (*trace.Table, error) { return harness.E8Adaptive(1) })
}

// BenchmarkE9Attacks regenerates Table E9 (Byzantine strategy
// effectiveness).
func BenchmarkE9Attacks(b *testing.B) {
	runExperiment(b, func() (*trace.Table, error) { return harness.E9Attacks(1) })
}

// BenchmarkE10Vector regenerates Table E10 (coordinate-wise agreement in
// R^d).
func BenchmarkE10Vector(b *testing.B) {
	runExperiment(b, harness.E10Vector)
}

// BenchmarkE11FIFO regenerates Table E11 (FIFO vs unordered channels).
func BenchmarkE11FIFO(b *testing.B) {
	runExperiment(b, harness.E11FIFO)
}

// BenchmarkE12LargeN regenerates Table E12 (large-n scenario sweep),
// capped at n=64 to keep the iteration in the hundreds of milliseconds;
// aabench runs the full sweep up to n=256.
func BenchmarkE12LargeN(b *testing.B) {
	runExperiment(b, func() (*trace.Table, error) {
		return harness.E12LargeNSizes([]int{32, 64})
	})
}

// BenchmarkE13Resilience regenerates Table E13 (lossy-network resilience:
// raw vs reliable transport under loss/dup/outage/flap).
func BenchmarkE13Resilience(b *testing.B) {
	runExperiment(b, harness.E13Resilience)
}

// BenchmarkE14Recovery regenerates Table E14 (crash-recovery sweep:
// checkpoint lag vs transport, rollback-rejoin episodes).
func BenchmarkE14Recovery(b *testing.B) {
	runExperiment(b, harness.E14Recovery)
}

// BenchmarkE15Overload regenerates Table E15 (serving-layer overload
// sweep: offered-load multiplier x fault mix through the admission
// envelope).
func BenchmarkE15Overload(b *testing.B) {
	runExperiment(b, serve.E15Overload)
}

// --- micro-benchmarks of the substrates and a single protocol run ---

func benchOneRun(b *testing.B, p core.Params) {
	b.Helper()
	inputs := harness.LinearInputs(p.N, p.Lo, p.Hi)
	var msgs, bytes int
	for i := 0; i < b.N; i++ {
		rep, err := harness.Run(harness.Spec{
			Params:    p,
			Inputs:    inputs,
			Scheduler: sched.Named{Name: "random", Scheduler: &sched.UniformRandom{Min: 1, Max: 10}},
			Seed:      int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("run failed: %s", rep.Failure())
		}
		msgs = rep.Result.Stats.MessagesSent
		bytes = rep.Result.Stats.BytesSent
	}
	b.ReportMetric(float64(msgs), "msgs/run")
	b.ReportMetric(float64(bytes), "bytes/run")
}

// BenchmarkRunCrashAA measures one full crash-protocol execution
// (n=10, t=4, eps=1e-3).
func BenchmarkRunCrashAA(b *testing.B) {
	benchOneRun(b, core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: 1})
}

// BenchmarkRunByzTrimAA measures one full trim-protocol execution
// (n=15, t=2).
func BenchmarkRunByzTrimAA(b *testing.B) {
	benchOneRun(b, core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1})
}

// BenchmarkRunWitnessAA measures one full witness-protocol execution
// (n=10, t=3), the cubic-message member of the family.
func BenchmarkRunWitnessAA(b *testing.B) {
	benchOneRun(b, core.Params{Protocol: core.ProtoWitness, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 1})
}

// BenchmarkRBCRound measures n concurrent reliable broadcasts among n=16
// parties delivered to completion. The body lives in internal/microbench
// (shared with cmd/aabench's -json snapshot as "rbc/round").
func BenchmarkRBCRound(b *testing.B) {
	microbench.RBCRound(b)
}

// benchFuncs is the approximation-function inventory the micro-benchmarks
// sweep, on a quorum-sized multiset. The benchmark bodies live in
// internal/microbench, shared with cmd/aabench's -json snapshot so the two
// measurements can never drift apart.
func benchFuncs() []multiset.Func {
	return []multiset.Func{
		multiset.MidExtremes{Trim: 8},
		multiset.TrimmedMean{Trim: 8},
		multiset.Median{},
		multiset.SelectDouble{Trim: 8, K: 4},
	}
}

// BenchmarkApproxFuncs measures the per-round approximation functions on
// the trusted-sorted fast path — the path every protocol round actually
// takes (multiset.ApplyInPlace → ApplySorted).
func BenchmarkApproxFuncs(b *testing.B) {
	for _, fn := range benchFuncs() {
		fn := fn
		b.Run(fn.Name(), func(b *testing.B) { microbench.ApplySorted(b, fn) })
	}
}

// BenchmarkApproxFuncsValidated measures the validating Apply path (with
// its O(n) sortedness re-scan), the comparison point for the fast path.
func BenchmarkApproxFuncsValidated(b *testing.B) {
	for _, fn := range benchFuncs() {
		fn := fn
		b.Run(fn.Name(), func(b *testing.B) { microbench.ApplyValidated(b, fn) })
	}
}

// BenchmarkWireRoundtrip measures encode+decode of the core round message.
func BenchmarkWireRoundtrip(b *testing.B) {
	microbench.WireRoundtrip(b)
}

// BenchmarkWireAppendReuse measures the buffer-reusing encoder on a scratch
// buffer, the zero-allocation form of the wire hot path.
func BenchmarkWireAppendReuse(b *testing.B) {
	microbench.WireAppendReuse(b)
}

// BenchmarkContractionSearch measures the adversarial one-round contraction
// search used by E2/E7.
func BenchmarkContractionSearch(b *testing.B) {
	microbench.ContractionSearch(b)
}

// BenchmarkSimLoop measures the raw simulator event loop on each event
// core — the calendar-queue-vs-heap comparison the large-n sweeps ride on.
// The bodies live in internal/microbench (shared with cmd/aabench's -json
// snapshot as "simloop/calendar" and "simloop/heap").
func BenchmarkSimLoop(b *testing.B) {
	b.Run("calendar", func(b *testing.B) { microbench.SimLoop(b, sim.CoreCalendar) })
	b.Run("heap", func(b *testing.B) { microbench.SimLoop(b, sim.CoreHeap) })
}

// BenchmarkScenarioE12 measures one representative E12 unit: a full
// crash-protocol run at n=64 under the "splitviews+crash" scenario
// (shared with the snapshot as "scenario/e12").
func BenchmarkScenarioE12(b *testing.B) {
	microbench.ScenarioE12(b)
}

// BenchmarkDeliverBatch measures the tick-delivery core A/B — batched
// destination-grouped delivery versus the per-envelope reference loop on
// the same (observably identical) E12-style run (shared with the snapshot
// as "deliverbatch/on" and "deliverbatch/off").
func BenchmarkDeliverBatch(b *testing.B) {
	b.Run("on", func(b *testing.B) { microbench.DeliverBatch(b, sim.BatchOn) })
	b.Run("off", func(b *testing.B) { microbench.DeliverBatch(b, sim.BatchOff) })
}

// BenchmarkRunReused measures a full crash-protocol run on a warm recycled
// harness.RunContext — the zero-steady-state-allocation engine path
// (shared with the snapshot as "harness/run-reused").
func BenchmarkRunReused(b *testing.B) {
	microbench.RunReused(b)
}

// BenchmarkLiveRun measures one whole crash-protocol run at n=32 on the
// goroutine runtime with 200 µs injected jitter, reporting ns/msg and
// allocs/msg next to the per-run figures (shared with the snapshot as
// "livenet/run-n32").
func BenchmarkLiveRun(b *testing.B) {
	microbench.LiveRun(b)
}

// BenchmarkShardedTick measures the sharded tick-execution path A/B — the
// same dense-tick crash run at shards=1 (sequential reference) and
// shards=4 (partitioned workers + barrier merge). On a single-core host
// the s4 number reports the merge overhead; the wall-clock win needs
// GOMAXPROCS > 1 (shared with the snapshot as "shardedtick/s1" and
// "shardedtick/s4").
func BenchmarkShardedTick(b *testing.B) {
	b.Run("s1", func(b *testing.B) { microbench.ShardedTick(b, 1) })
	b.Run("s4", func(b *testing.B) { microbench.ShardedTick(b, 4) })
}
