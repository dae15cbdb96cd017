package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/aa"
	"repro/internal/harness"
	"repro/internal/relnet"
	"repro/internal/scenario"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.5, 50.5, true},
		{100, 0.9, 90.1, true}, // exactly ten beyond
		{99, 0.9, 89.2, false}, // 9.9 beyond
		{999, 0.99, 989.02, false},
		{1000, 0.99, 990.01, true},
		{19, 0.5, 10, false}, // 9.5 beyond
		{20, 0.5, 10.5, true},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if math.Abs(got-c.want) > 1e-9 || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported as supported")
	}
}

func TestTickPercentileInterpolatesInsideTheTick(t *testing.T) {
	// Ten requests at 30 ticks and ten at 31: the median is the boundary.
	var ticks []int64
	for i := 0; i < 10; i++ {
		ticks = append(ticks, 31, 30)
	}
	if got, ok := tickPercentile(ticks, 0.5); got != 31 || !ok {
		t.Errorf("median of 10×30 and 10×31 = %v, %v; want 31, true", got, ok)
	}
	// A quarter of the way through the 30s is a quarter... of half the sample.
	if got, _ := tickPercentile(ticks, 0.25); got != 30.5 {
		t.Errorf("p25 = %v, want 30.5", got)
	}
	if got, ok := tickPercentile(ticks, 0.9); got != 31.8 || ok {
		t.Errorf("p90 = %v, %v; want 31.8 and unsupported with twenty samples", got, ok)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 3, Parent: 1, Name: "a1", Start: 15, End: 25}, // nested in a
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120}, // sticks out
		{ID: 5, Parent: 0, Name: "d", Start: 35, End: 38},  // inside a∪b
		{ID: 6, Parent: 4, Name: "c1", Start: 100, End: 110},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // a∪b∪d covers 10..60, c covers 90..100
		30 - 10,
		30,
		10,
		30 - 10,
		3,
		10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := selfByName(spans)["root"]; got != 40 {
		t.Errorf("root self = %d, want 40", got)
	}
}

// TestSeamsAreTransparent: a run assembled at sim.New level with seams
// around every layer gives the same decisions and the same statistics as
// harness.Run of the same spec, on one core and on two.
func TestSeamsAreTransparent(t *testing.T) {
	cases := []struct {
		name string
		c    simCase
	}{
		{"crash-n16", simCase{
			cfg:       aa.Config{Model: aa.ModelCrash, N: 16, T: 7, Epsilon: 1e-3, Lo: 0, Hi: 1},
			scenarios: []string{"splitviews+crash/n=16,t=7"}, inputs: uniform,
		}},
		{"witness-n7", simCase{
			cfg:       aa.Config{Model: aa.ModelByzantineWitness, N: 7, T: 2, Epsilon: 1e-3, Lo: 0, Hi: 1},
			scenarios: []string{"random/n=7"}, inputs: uniform,
		}},
		{"reliable-lossy-n16", simCase{
			cfg: aa.Config{Model: aa.ModelCrash, N: 16, T: 5, Epsilon: 1e-3, Lo: 0, Hi: 1}, reliable: true,
			scenarios: []string{"random+loss:0.1+dup:0.05/n=16"}, inputs: uniform,
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			scen, inputs, seed := tc.c.plan(42, 0)
			p := params(tc.c.cfg)
			parsed, err := scenario.Parse(scen)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := harness.SpecFrom(p, inputs, parsed, seed)
			if err != nil {
				t.Fatal(err)
			}
			spec.Reliable = tc.c.reliable
			rep, err := harness.Run(spec)
			if err != nil || !rep.OK() {
				t.Fatalf("%s: harness.Run: %v, ok %v", tc.name, err, rep != nil && rep.OK())
			}
			run, err := assembleRun(p, scen, inputs, seed, tc.c.reliable, true)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !reflect.DeepEqual(run.result, rep.Result) {
				t.Errorf("%s at GOMAXPROCS %d: traced result %+v, harness %+v", tc.name, procs, run.result, rep.Result)
			}
			if run.transport.Retransmits != rep.Transport.Retransmits || run.transport.GiveUps != rep.Transport.GiveUps {
				t.Errorf("%s: traced transport %+v, harness %+v", tc.name, run.transport, rep.Transport)
			}
			var sp split
			sp.add(run, tc.c.reliable)
			if sp.simLoop < 0 || sp.simAPI < 0 || sp.coreBusy < 0 || sp.relnetSelf < 0 {
				t.Errorf("%s: negative self time in %+v", tc.name, sp)
			}
			if got := sp.simLoop + sp.simAPI + sp.coreBusy + sp.relnetSelf; got != int64(sp.wall) {
				t.Errorf("%s: parts add up to %d ns, Network.Run took %d", tc.name, got, sp.wall)
			}
			if run.outer.procCalls == 0 || run.outer.apiCalls == 0 || (tc.c.reliable && run.inner.apiCalls == 0) {
				t.Errorf("%s: a seam saw no calls: outer %+v inner %+v", tc.name, run.outer, run.inner)
			}
			// The public entry point agrees too.
			out, err := tc.c.simulate(42, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameOutput(run, out); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

func TestSeamKeepsBatchingOnlyWhereTheProcessHasIt(t *testing.T) {
	party, err := newParty(params(simLossy.cfg), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := newSeam(party).(*seamBatch); !ok {
		t.Error("seam around a batching party does not batch")
	}
	// relnet.Proc takes one envelope at a time.
	if _, ok := newSeam(relnet.Wrap(party)).(*seamBatch); ok {
		t.Error("seam around a per-envelope process batches")
	}
}

func TestGoldenCompareFlagsADifference(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim-scale", "sim-witness", "sim-lossy", "sweep-small"} {
		if len(g.Workloads[name]) != goldenOps {
			t.Errorf("golden.json has %d ops for %s, want %d", len(g.Workloads[name]), name, goldenOps)
		}
	}
	got := append([]opStats(nil), g.Workloads["sim-lossy"][:3]...)
	if p := g.compare("sim-lossy", got); len(p) != 0 {
		t.Errorf("identical ops flagged: %v", p)
	}
	got[1].Retransmits++
	if p := g.compare("sim-lossy", got); len(p) != 1 {
		t.Errorf("one changed op gave %d problems", len(p))
	}
	// The first op of the cheapest simulated workload is executed for real.
	op, err := simLossy.loop().build(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := op(0)
	if err != nil || !res.ok {
		t.Fatalf("sim-lossy op 0: %v, ok %v", err, res.ok)
	}
	if p := g.compare("sim-lossy", []opStats{res.stats}); len(p) != 0 {
		t.Errorf("sim-lossy op 0 differs from golden.json: %v", p)
	}
}

// TestBenchmarkJSONAgrees: BENCHMARK.json at the root of the repository
// names exactly the workloads and metrics the program reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	bounded := endToEnd // failed_share travels as failed over attempted
	if len(file.EndToEnd) != len(bounded) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(file.EndToEnd), len(bounded))
	}
	for i, m := range file.EndToEnd {
		d := bounded[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
