package main

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/microbench"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Probes are fixed-count measurements of one layer outside any workload.
// rbc, multiset and wire have no seam that can be reached inside a run —
// they are called from within core, not through sim.Process or sim.API —
// so a probe is all they get until the program carries its own timers.

// microProbe runs one of the repository's micro-benchmark bodies, looked
// up by name, for a fixed number of iterations.
type microProbe struct {
	metric string
	bench  string
	iters  int
	per    float64 // divides ns per iteration into the metric's unit
}

var microProbes = []microProbe{
	// One simloop iteration is 64 parties × 300 sends.
	{"sim.storm_ns_per_event", "simloop/calendar", 15, 64 * 300},
	{"multiset.apply_ns", "multiset/apply-sorted/midextremes", 5_000_000, 1},
	{"multiset.selectdouble_ns", "multiset/apply-sorted/selectdouble", 3_000_000, 1},
	{"wire.roundtrip_ns", "wire/value-roundtrip", 20_000_000, 1},
	{"rbc.round_us", "rbc/round", 200, 1e3},
	{"harness.run_reused_us", "harness/run-reused", 200, 1e3},
}

// probeReps executions of each probe; the median is reported.
const probeReps = 3

func init() { testing.Init() } // registers test.benchtime, set per probe below

func runMicroProbes(res *layerResult) error {
	cases := map[string]func(*testing.B){}
	for _, c := range microbench.Cases() {
		cases[c.Name] = c.Fn
	}
	for _, p := range microProbes {
		fn, ok := cases[p.bench]
		if !ok {
			return fmt.Errorf("probe %s: microbench has no case %q", p.metric, p.bench)
		}
		if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", p.iters)); err != nil {
			return err
		}
		var vals []float64
		for range probeReps {
			r := testing.Benchmark(fn)
			if r.N != p.iters {
				return fmt.Errorf("probe %s: ran %d iterations, want %d", p.metric, r.N, p.iters)
			}
			vals = append(vals, float64(r.T)/float64(r.N)/p.per)
		}
		res.set(p.metric, median(vals), p.iters*probeReps)
	}
	return nil
}

// relnetPairs is how many raw/reliable pairs the overhead probe runs.
const relnetPairs = 4

// probeRelnet runs the same clean n=64 scenario raw and through the
// reliable transport: what relnet costs when there is nothing to heal.
func probeRelnet(res *layerResult, seed int64) error {
	var raw, rel time.Duration
	var rawMsgs, relMsgs int
	for j := -1; j < relnetPairs; j++ { // run -1 warms both pool shapes
		for _, side := range []struct {
			c    simCase
			wall *time.Duration
			msgs *int
		}{{relnetRaw, &raw, &rawMsgs}, {relnetReliable, &rel, &relMsgs}} {
			start := time.Now()
			out, err := side.c.simulate(seed, max(j, 0))
			if err != nil {
				return err
			}
			if !out.OK() {
				res.problemf("relnet probe run %d: outcome not OK", j)
			}
			if j >= 0 {
				*side.wall += time.Since(start)
				*side.msgs += out.Messages
			}
		}
	}
	res.set("relnet.overhead_x", float64(rel)/float64(raw), relnetPairs)
	res.set("relnet.msgs_amplification", float64(relMsgs)/float64(rawMsgs), relnetPairs)
	return nil
}

// The serve.Simulate probe: the envelope and the harness path in virtual
// time, offered about twice what four workers sustain (saturation for
// lognormal:4:0.5 is 64.6 requests per kilotick), over 40 000 ticks.
const (
	simulateSpec    = "poisson:130+lognormal:4:0.5+cohort:web:0.7:300:1+cohort:batch:0.3:1200:0"
	simulateHorizon = 40_000
)

// simulateCounts are the virtual-time results of the probe. They are a
// pure function of the seed, so they are compared exactly.
type simulateCounts struct {
	Offered  int64 `json:"offered"`
	Decided  int64 `json:"decided"`
	Shed     int64 `json:"shed"`
	Deadline int64 `json:"deadline_exceeded"`
	P50      int64 `json:"p50_ticks"`
	P99      int64 `json:"p99_ticks"`
	EndTick  int64 `json:"end_tick"`
}

func probeSimulate(res *layerResult, seed int64, golden *simulateCounts) (simulateCounts, error) {
	w, err := workload.Parse(simulateSpec)
	if err != nil {
		return simulateCounts{}, err
	}
	cfg := serve.Config{Protocol: core.ProtoCrash, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 100, Scenario: "random", Seed: seed}
	var counts [2]simulateCounts
	var took [2]time.Duration
	for i := range counts {
		start := time.Now()
		sum, err := serve.Simulate(w, cfg, serve.Options{Workers: 4, QueueDepth: 64}, simulateHorizon)
		took[i] = time.Since(start)
		if err != nil {
			return simulateCounts{}, err
		}
		counts[i] = simulateCounts{
			Offered: sum.Offered, Decided: sum.Decided, Shed: sum.Shed, Deadline: sum.DeadlineExceeded,
			P50: sum.LatencyP(0.5), P99: sum.LatencyP(0.99), EndTick: sum.End,
		}
	}
	if counts[0] != counts[1] {
		res.problemf("serve.Simulate: two executions disagree: %+v, %+v", counts[0], counts[1])
	}
	if golden != nil && counts[0] != *golden {
		res.problemf("serve.Simulate: got %+v, golden %+v", counts[0], *golden)
	}
	c := counts[0]
	res.set("serve.simulate_us_per_req", float64(min(took[0], took[1]))/1e3/float64(c.Offered), int(c.Offered))
	res.notes = append(res.notes, fmt.Sprintf(
		"serve.Simulate probe (virtual time, exact): offered %d, decided %d, shed %d, deadline %d, p50 %d ticks, p99 %d ticks, goodput %.2f per kilotick",
		c.Offered, c.Decided, c.Shed, c.Deadline, c.P50, c.P99, float64(c.Decided)*1000/float64(c.EndTick)))
	return c, nil
}

// processMetrics reads the memory statistics at the end of a traced pass.
func processMetrics(res *layerResult) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.set("process.mem_sys_mb", float64(m.Sys)/(1<<20), 1)
	res.set("process.gc_cycles", float64(m.NumGC), 1)
	res.set("process.gc_pause_ms", float64(m.PauseTotalNs)/1e6, int(m.NumGC))
}

// runProbes runs every probe.
func runProbes(seed int64, golden *simulateCounts) (*layerResult, error) {
	res := newLayerResult()
	if err := runMicroProbes(res); err != nil {
		return nil, err
	}
	if err := probeRelnet(res, seed); err != nil {
		return nil, err
	}
	if _, err := probeSimulate(res, seed, golden); err != nil {
		return nil, err
	}
	return res, nil
}
