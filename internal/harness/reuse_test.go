package harness

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// This file pins the run-context recycling contract's economy side: a warm
// context executes full protocol runs with zero steady-state heap
// allocations on the reused-report path. Its equivalence side — recycled
// contexts render the same tables as fresh ones — is in equivalence_test.go
// (TestRunContextReuseByteIdentical and its LargeN arm).

// TestRunReusedAllocs pins the tentpole economy claim: after a one-run
// warm-up, a context's reused-report Run performs zero steady-state heap
// allocations for the crash, trim, and witness protocols. 200 measured
// runs amortize away the residual warm-up effects (map geometry, slice
// growth), which testing.AllocsPerRun's integer average then floors.
func TestRunReusedAllocs(t *testing.T) {
	cases := []struct {
		name     string
		p        core.Params
		scen     string
		reliable bool
	}{
		{"crash-aa", core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+crash/n=10,t=4", false},
		{"byztrim-aa", core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews/n=15,t=2", false},
		{"witness-aa", core.Params{Protocol: core.ProtoWitness, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews/n=10,t=3", false},
		// The reliable-transport wrapper recycles its link state through
		// Reset (dedup maps survive the rcv reslice), so the ack/retransmit
		// path rides the same zero-alloc budget as the raw one.
		{"crash-aa-reliable", core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: 1},
			"random+loss:0.05/n=10,t=4", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := SpecFrom(c.p, BimodalInputs(c.p.N, 0, 1), scenario.MustParse(c.scen), 7)
			if err != nil {
				t.Fatal(err)
			}
			spec.Reliable = c.reliable
			ctx := NewRunContext()
			if rep, err := ctx.Run(spec); err != nil {
				t.Fatalf("warm-up failed: %v", err)
			} else if !rep.OK() {
				t.Fatalf("warm-up run failed: %s", rep.Failure())
			}
			var runErr error
			var runFail string
			allocs := testing.AllocsPerRun(200, func() {
				rep, err := ctx.Run(spec)
				switch {
				case err != nil:
					runErr = err
				case !rep.OK():
					runFail = rep.Failure()
				}
			})
			if runErr != nil {
				t.Fatalf("run failed: %v", runErr)
			}
			if runFail != "" {
				t.Fatalf("run failed: %s", runFail)
			}
			if allocs != 0 {
				t.Errorf("warm steady state allocates %.2f/run, want 0", allocs)
			}
		})
	}
}

// TestShardedRunReusedAllocs keeps its name from when a dense tick was
// split across shard workers; their scratch (deferred ops, delivery
// triggers, Batch iterator, payload arena) is now Network state recycled
// by Reset. "dispatch" pins the dense shape at zero steady-state
// allocations (n=34 multicast storms are 1156-event ticks). Each "inline"
// case first runs that dense shape on its context, so the small run must
// settle to zero on scratch a dense tick grew, after one warm-up.
func TestShardedRunReusedAllocs(t *testing.T) {
	denseP := core.Params{Protocol: core.ProtoCrash, N: 34, T: 16, Eps: 1e-3, Lo: 0, Hi: 1}
	dense, err := SpecFrom(denseP, BimodalInputs(denseP.N, 0, 1), scenario.MustParse("random+crash/n=34,t=16"), 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    core.Params
		scen string
		runs int
	}{
		{"crash-inline", core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+crash/n=10,t=4", 200},
		{"byztrim-inline", core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews/n=15,t=2", 200},
		{"crash-dispatch", denseP, "random+crash/n=34,t=16", 50},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := SpecFrom(c.p, BimodalInputs(c.p.N, 0, 1), scenario.MustParse(c.scen), 7)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewRunContext()
			for _, warm := range []Spec{dense, spec} {
				if rep, err := ctx.Run(warm); err != nil {
					t.Fatalf("warm-up failed: %v", err)
				} else if !rep.OK() {
					t.Fatalf("warm-up run failed: %s", rep.Failure())
				}
			}
			var runErr error
			var runFail string
			allocs := testing.AllocsPerRun(c.runs, func() {
				rep, err := ctx.Run(spec)
				switch {
				case err != nil:
					runErr = err
				case !rep.OK():
					runFail = rep.Failure()
				}
			})
			if runErr != nil {
				t.Fatalf("run failed: %v", runErr)
			}
			if runFail != "" {
				t.Fatalf("run failed: %s", runFail)
			}
			if allocs != 0 {
				t.Errorf("warm steady state allocates %.2f/run, want 0", allocs)
			}
		})
	}
}

// TestByzRunReusedAllocs pins the Byzantine arm of the economy claim:
// behavior processes are pooled through the run context (fault.Renewer)
// and encode into reusable scratch, so a warm Byzantine run — scripted
// one-shot attackers and the reactive amplifier alike, on both the trim
// and the witness protocol — performs zero steady-state heap allocations,
// exactly like the fault-free path.
func TestByzRunReusedAllocs(t *testing.T) {
	cases := []struct {
		name string
		p    core.Params
		scen string
	}{
		{"byztrim-scripted", core.Params{Protocol: core.ProtoByzTrim, N: 22, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+extreme+equivocate+spam/n=22,t=3"},
		{"byztrim-amplifier", core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+amplifier/n=15,t=2"},
		{"witness-equivocate", core.Params{Protocol: core.ProtoWitness, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+equivocate+silent/n=10,t=3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := SpecFrom(c.p, BimodalInputs(c.p.N, 0, 1), scenario.MustParse(c.scen), 7)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewRunContext()
			if rep, err := ctx.Run(spec); err != nil {
				t.Fatalf("warm-up failed: %v", err)
			} else if !rep.OK() {
				t.Fatalf("warm-up run failed: %s", rep.Failure())
			}
			var runErr error
			var runFail string
			allocs := testing.AllocsPerRun(100, func() {
				rep, err := ctx.Run(spec)
				switch {
				case err != nil:
					runErr = err
				case !rep.OK():
					runFail = rep.Failure()
				}
			})
			if runErr != nil {
				t.Fatalf("run failed: %v", runErr)
			}
			if runFail != "" {
				t.Fatalf("run failed: %s", runFail)
			}
			if allocs != 0 {
				t.Errorf("warm Byzantine steady state allocates %.2f/run, want 0", allocs)
			}
		})
	}
}

// TestRunReusedAllocsAcrossN pins the small-sweep shape: one context
// cycling through n ∈ {8, 10, 13, 16} for the crash and trim protocols,
// each at its own resilience bound, as table regeneration does. Once every
// n has been warmed, the parties re-fit their stores and pooled round
// buckets to each n by capacity, so a whole further cycle allocates
// nothing on the reused-report path.
func TestRunReusedAllocsAcrossN(t *testing.T) {
	var cycle []Spec
	for _, n := range []int{8, 10, 13, 16} {
		for _, c := range []struct {
			proto core.Protocol
			t     int
			scen  string
		}{
			{core.ProtoCrash, (n - 1) / 2, "splitviews+crash"},
			{core.ProtoByzTrim, (n - 1) / 7, "random+equivocate"},
		} {
			p := core.Params{Protocol: c.proto, N: n, T: c.t, Eps: 1e-3, Lo: 0, Hi: 1}
			scen := scenario.MustParse(fmt.Sprintf("%s/n=%d,t=%d", c.scen, n, c.t))
			spec, err := SpecFrom(p, UniformInputs(n, 0, 1, int64(n)), scen, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			cycle = append(cycle, spec)
		}
	}
	ctx := NewRunContext()
	var runErr error
	var runFail string
	runCycle := func() {
		for _, spec := range cycle {
			rep, err := ctx.Run(spec)
			switch {
			case err != nil:
				runErr = err
			case !rep.OK():
				runFail = rep.Failure()
			}
		}
	}
	runCycle()
	allocs := testing.AllocsPerRun(50, runCycle)
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	if runFail != "" {
		t.Fatalf("run failed: %s", runFail)
	}
	if allocs != 0 {
		t.Errorf("warm n-cycling sweep allocates %.2f/cycle of %d runs, want 0", allocs, len(cycle))
	}
}

// TestTrajectoryReusedAllocs pins the trajectory-recording arm (the E5
// path): the observer closure is cached on the context and the trajectory
// storage is preallocated from the round budget, so warm sampled runs
// allocate nothing.
func TestTrajectoryReusedAllocs(t *testing.T) {
	p := core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}
	spec, err := SpecFrom(p, BimodalInputs(p.N, 0, 1), scenario.MustParse("splitviews+amplifier/n=15,t=2"), 7)
	if err != nil {
		t.Fatal(err)
	}
	spec.RecordTrajectory = true
	ctx := NewRunContext()
	rep, err := ctx.Run(spec)
	if err != nil {
		t.Fatalf("warm-up failed: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("warm-up run failed: %s", rep.Failure())
	}
	if len(rep.Trajectory) == 0 {
		t.Fatal("no trajectory recorded")
	}
	var runErr error
	allocs := testing.AllocsPerRun(100, func() {
		if rep, err := ctx.Run(spec); err != nil {
			runErr = err
		} else if len(rep.Trajectory) == 0 {
			runErr = errNoTrajectory
		}
	})
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	if allocs != 0 {
		t.Errorf("warm trajectory steady state allocates %.2f/run, want 0", allocs)
	}
}

var errNoTrajectory = errors.New("no trajectory recorded")

// TestRunContextSurvivesShapeChanges drives one context through a sweep
// that changes protocol, n, and fault composition between consecutive runs
// — the E12 usage pattern — and checks each report against a fresh-context
// run of the same spec.
func TestRunContextSurvivesShapeChanges(t *testing.T) {
	specs := []struct {
		p    core.Params
		scen string
	}{
		{core.Params{Protocol: core.ProtoCrash, N: 9, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}, "random+crash/n=9,t=4"},
		{core.Params{Protocol: core.ProtoWitness, N: 7, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}, "splitviews/n=7,t=2"},
		{core.Params{Protocol: core.ProtoCrash, N: 17, T: 8, Eps: 1e-3, Lo: 0, Hi: 1}, "skew+crash/n=17,t=8"},
		{core.Params{Protocol: core.ProtoWitness, N: 13, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}, "partition+equivocate/n=13,t=4"},
		{core.Params{Protocol: core.ProtoCrash, N: 9, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}, "sync:5/n=9,t=2"},
		{core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}, "staggered+extreme/n=15,t=2"},
	}
	ctx := NewRunContext()
	for _, c := range specs {
		spec, err := SpecFrom(c.p, BimodalInputs(c.p.N, 0, 1), scenario.MustParse(c.scen), 23)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", c.scen, err)
		}
		want, err := NewRunContext().Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK() != want.OK() || got.FinalSpread != want.FinalSpread ||
			got.Result.Stats != want.Result.Stats ||
			got.Result.FinishTime != want.Result.FinishTime {
			t.Errorf("%s: recycled run diverges from fresh: got %+v stats %+v, want %+v stats %+v",
				c.scen, got.FinalSpread, got.Result.Stats, want.FinalSpread, want.Result.Stats)
		}
	}
}
