package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// This file pins the crash-recovery path (scenario recover/amnesia axes →
// sim.RestartPlan → checkpoint snapshot/restore) at the harness level:
//
//   - Equivalence: a recovery run — snapshot mid-run, crash, darkness,
//     restore, catch-up — produces identical decisions, stats, finish time,
//     and checkpoint digests in production and the reference
//     configuration. Restart actions fire at tick boundaries, which the
//     batching equivalence contract keeps identical in both.
//   - Economy: warm runs with recovery enabled stay 0 allocs/run — the
//     snapshot appends into recycled per-plan buffers and the restore pulls
//     protocol state from the existing free lists.

// recoverySpec is a run where the restart lands mid-execution: the
// adaptive baseline finishes around t=88, so checkpoint at 20, crash at
// 50, rejoin at 114 exercise rollback and catch-up rather than firing
// after the decisions.
// Reliable transport is what makes catch-up converge: traffic sent into
// the darkness window is retransmitted after the rejoin.
func recoverySpec(t *testing.T) Spec {
	t.Helper()
	p := core.Params{Protocol: core.ProtoCrash, N: 9, T: 2, Eps: 1e-3, Lo: 0, Hi: 1, Adaptive: true}
	spec, err := SpecFrom(p, BimodalInputs(p.N, 0, 1), scenario.MustParse("random+recover:2:50:30/n=9,t=2"), 7)
	if err != nil {
		t.Fatal(err)
	}
	spec.Reliable = true
	return spec
}

// TestRecoveryRunConverges pins the semantic content of one recovery run:
// the run converges, both planned parties checkpoint (two digests, in
// firing order), and both re-decide after the rejoin — the rollback
// actually discarded their pre-crash decisions.
func TestRecoveryRunConverges(t *testing.T) {
	spec := recoverySpec(t)
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("recovery run failed: %s", rep.Failure())
	}
	if len(rep.Checkpoints) != 2 {
		t.Fatalf("checkpoint digests %v, want 2 (one per planned party)", rep.Checkpoints)
	}
	for i, d := range rep.Checkpoints {
		if d == 0 {
			t.Errorf("checkpoint %d digest is zero", i)
		}
	}
	for _, rp := range spec.Restarts {
		at, ok := rep.Result.DecidedAt[rp.Party]
		if !ok {
			t.Fatalf("restarted party %d never re-decided", rp.Party)
		}
		if at <= rp.Rejoin {
			t.Errorf("party %d decided at t=%d, want after rejoin t=%d (rollback did not fire)",
				rp.Party, at, rp.Rejoin)
		}
	}
}

// TestRecoveryEquivalenceAcrossModes runs the same recovery spec on the
// reference and the production engine and requires identical decisions,
// message stats, finish time, and checkpoint digests. A restart action
// observing mid-tick state in one configuration and tick-boundary state in
// the other would surface here as a digest or decision diff.
func TestRecoveryEquivalenceAcrossModes(t *testing.T) {
	spec := recoverySpec(t)
	want, err := (&Engine{Reference: true}).Run(spec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !want.OK() {
		t.Fatalf("reference recovery run failed: %s", want.Failure())
	}
	if len(want.Checkpoints) != 2 {
		t.Fatalf("reference checkpoints %v, want 2", want.Checkpoints)
	}
	got, err := (&Engine{}).Run(spec)
	if err != nil {
		t.Fatalf("production: %v", err)
	}
	if got.FinalSpread != want.FinalSpread || got.Result.FinishTime != want.Result.FinishTime ||
		got.Result.Stats != want.Result.Stats {
		t.Errorf("production diverges: spread %v finish %d stats %+v, want %v %d %+v",
			got.FinalSpread, got.Result.FinishTime, got.Result.Stats,
			want.FinalSpread, want.Result.FinishTime, want.Result.Stats)
	}
	if len(got.Checkpoints) != len(want.Checkpoints) {
		t.Fatalf("production checkpoint count %d, want %d", len(got.Checkpoints), len(want.Checkpoints))
	}
	for i := range want.Checkpoints {
		if got.Checkpoints[i] != want.Checkpoints[i] {
			t.Errorf("production checkpoint %d digest %#x, want %#x", i, got.Checkpoints[i], want.Checkpoints[i])
		}
	}
	for id, at := range want.Result.DecidedAt {
		if got.Result.DecidedAt[id] != at {
			t.Errorf("production party %d decided at %d, want %d", id, got.Result.DecidedAt[id], at)
		}
	}
}

// TestRecoveryRunReusedAllocs extends the zero-alloc warm-run contract to
// recovery runs: the snapshot frame codec appends into the network's recycled
// per-plan snapshot buffers, the restore pulls round state from the
// protocol free lists, and the digest log reuses the report's slice, so a
// warm recovery run allocates nothing.
func TestRecoveryRunReusedAllocs(t *testing.T) {
	spec := recoverySpec(t)
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
		case len(rep.Checkpoints) != 2:
			runFail = "checkpoint digests missing"
		}
	})
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	if runFail != "" {
		t.Fatalf("run failed: %s", runFail)
	}
	if allocs != 0 {
		t.Errorf("warm recovery steady state allocates %.2f/run, want 0", allocs)
	}
}
