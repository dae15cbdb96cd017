package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trace"
)

// renderAt renders one experiment table on a production engine with the
// given worker count.
func renderAt(t *testing.T, workers int, run func(e *Engine) (*trace.Table, error)) string {
	t.Helper()
	tbl, err := run(&Engine{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestEngineDeterminism is the core engine contract: for fixed seeds the
// parallel path must render byte-identical tables to the sequential path.
// E1 (sweeps + overload batch), E2 (sweeps + contraction searches), and E7
// (function-ablation sweeps) cover every aggregation shape the engine has.
func TestEngineDeterminism(t *testing.T) {
	cases := []struct {
		id  string
		run func(e *Engine) (*trace.Table, error)
	}{
		{"E1", func(e *Engine) (*trace.Table, error) { return E1Resilience(e, 2) }},
		{"E2", func(e *Engine) (*trace.Table, error) { return E2Convergence(e, 1) }},
		{"E7", func(e *Engine) (*trace.Table, error) { return E7Functions(e, 1) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			seq := renderAt(t, 1, c.run)
			par := renderAt(t, 8, c.run)
			if seq != par {
				t.Fatalf("%s: parallel table differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
					c.id, seq, par)
			}
			again := renderAt(t, 8, c.run)
			if par != again {
				t.Fatalf("%s: two parallel renders differ", c.id)
			}
		})
	}
}

// TestMapOrderedPreservesOrder checks slot assignment under heavy fan-out.
func TestMapOrderedPreservesOrder(t *testing.T) {
	const n = 500
	out, err := mapOrdered(8, n, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
		}
	}
}

// TestMapOrderedLowestIndexError checks the error the engine reports is the
// one a sequential loop would have hit first, regardless of completion
// order.
func TestMapOrderedLowestIndexError(t *testing.T) {
	_, err := mapOrdered(8, 100, func(i int) (int, error) {
		if i%30 == 7 { // fails at 7, 37, 67, 97
			return 0, fmt.Errorf("boom %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom 7" {
		t.Fatalf("got error %v, want boom 7", err)
	}
}

// TestRunAllMatchesRun checks engine-executed reports carry the same
// verdicts as direct sequential Run calls.
func TestRunAllMatchesRun(t *testing.T) {
	var specs []Spec
	for seed := int64(1); seed <= 6; seed++ {
		specs = append(specs, Spec{
			Params:    core.Params{Protocol: core.ProtoCrash, N: 7, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
			Inputs:    LinearInputs(7, 0, 1),
			Scheduler: sched.Named{Name: "random", Scheduler: &sched.UniformRandom{Min: 1, Max: 10}},
			Seed:      seed,
		})
	}
	got, err := (&Engine{Workers: 4}).RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		g := got[i]
		if g.FinalSpread != want.FinalSpread ||
			g.Result.Stats != want.Result.Stats ||
			g.OK() != want.OK() {
			t.Fatalf("spec %d: engine report diverges from direct Run (spread %v vs %v, stats %+v vs %+v)",
				i, g.FinalSpread, want.FinalSpread, g.Result.Stats, want.Result.Stats)
		}
	}
}

// TestRunAllSpecError checks spec-level errors abort the batch with the
// labeled context.
func TestRunAllSpecError(t *testing.T) {
	specs := []Spec{{
		Params:    core.Params{Protocol: core.ProtoCrash, N: 7, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
		Inputs:    LinearInputs(5, 0, 1), // wrong input count
		Scheduler: sched.Named{Name: "sync", Scheduler: sched.NewSynchronous(1)},
	}}
	_, err := RunAllLabeled(specs, func(i int) string { return "ctx" })
	if err == nil || !strings.HasPrefix(err.Error(), "ctx: ") {
		t.Fatalf("got %v, want ctx-labeled error", err)
	}
}

// TestEngineStats checks an engine's counters see every run it executed
// and only those: runs on another engine leave them untouched.
func TestEngineStats(t *testing.T) {
	e := &Engine{Workers: 8}
	spec := Spec{
		Params:    core.Params{Protocol: core.ProtoCrash, N: 7, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
		Inputs:    LinearInputs(7, 0, 1),
		Scheduler: sched.Named{Name: "sync", Scheduler: sched.NewSynchronous(1)},
		Seed:      1,
	}
	reps, err := e.RunAll([]Spec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAll([]Spec{spec}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Runs != 3 {
		t.Fatalf("Runs = %d, want 3", s.Runs)
	}
	var wantMsgs int64
	for _, rep := range reps {
		wantMsgs += int64(rep.Result.Stats.MessagesSent)
	}
	if s.MessagesSent != wantMsgs {
		t.Fatalf("MessagesSent = %d, want %d", s.MessagesSent, wantMsgs)
	}
	if s := (&Engine{Workers: 1}).Stats(); s != (EngineStats{}) {
		t.Fatalf("fresh engine counters %+v, want zero", s)
	}
}

// TestSetParallelism keeps its name from the process-global knob Engine
// replaced; it pins Engine.Workers' semantics: a positive count is used as
// is, and zero or negative means GOMAXPROCS.
func TestSetParallelism(t *testing.T) {
	for _, c := range []struct{ workers, want int }{
		{1, 1}, {3, 3}, {8, 8},
		{0, runtime.GOMAXPROCS(0)}, {-5, runtime.GOMAXPROCS(0)},
	} {
		if got := (&Engine{Workers: c.workers}).workers(); got != c.want {
			t.Errorf("Engine{Workers: %d} runs %d workers, want %d", c.workers, got, c.want)
		}
	}
}

// errSentinel exercises error passthrough without labeling.
var errSentinel = errors.New("sentinel")

func TestRunAllUnlabeledError(t *testing.T) {
	_, err := mapOrdered(1, 1, func(int) (struct{}, error) { return struct{}{}, errSentinel })
	if !errors.Is(err, errSentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}
