package incident

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// These tests drive captureProbe and replayProbe directly on a bare
// simulator network: a trace recorded under one scheduler, seed and engine
// configuration must replay the same execution under another.

// runProbeNet runs the crash protocol at n parties, t = (n-1)/2, with
// inputs spread evenly over [0, 1], over the given scheduler, in the
// simulator's reference configuration or in production.
func runProbeNet(t *testing.T, n int, eps float64, scheduler sim.Scheduler, seed int64, reference bool) *sim.Result {
	t.Helper()
	p := core.Params{Protocol: core.ProtoCrash, N: n, T: (n - 1) / 2, Eps: eps, Lo: 0, Hi: 1}
	net, err := sim.New(sim.Config{N: n, Scheduler: scheduler, Seed: seed, Reference: reference})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		proc, err := core.NewAsyncAA(p, float64(i)/float64(n-1))
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

// replayOf builds a replay probe over everything rec recorded.
func replayOf(rec *captureProbe) *replayProbe {
	return newReplayProbe(rec.delays, rec.sums, rec.drops, rec.dups)
}

// requireSameExecution fails unless got is the execution want, and the
// replay saw no send whose content differs from the recording.
func requireSameExecution(t *testing.T, name string, want, got *sim.Result, replay *replayProbe) {
	t.Helper()
	if replay.firstBad != NoDivergentSend {
		t.Errorf("%s: first divergent send %d", name, replay.firstBad)
	}
	if got.FinishTime != want.FinishTime {
		t.Errorf("%s: finish time %d vs %d", name, got.FinishTime, want.FinishTime)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: stats %+v vs %+v", name, got.Stats, want.Stats)
	}
	for id, v := range want.Decisions {
		if got.Decisions[id] != v {
			t.Errorf("%s: party %d decided %v vs %v", name, id, got.Decisions[id], v)
		}
	}
}

func TestRecordReplayReproducesExecution(t *testing.T) {
	rec := &captureProbe{inner: &sched.UniformRandom{Min: 1, Max: 20}}
	original := runProbeNet(t, 5, 1e-4, rec, 42, false)

	// Replay under a different network seed: the recorded fates alone must
	// reproduce the execution exactly.
	replay := replayOf(rec)
	replayed := runProbeNet(t, 5, 1e-4, replay, 999, false)
	requireSameExecution(t, "replay", original, replayed, replay)
	if want := uint64(original.Stats.MessagesSent); replay.sends != want {
		t.Errorf("replay saw %d sends, recording %d", replay.sends, want)
	}
}

// TestRecorderBatchModeIdentity pins the batch-awareness contract: a run
// dense enough to trigger batched tick delivery (n=24, so ticks carry
// hundreds of deliveries) records the same delays and send checksums in
// production and in the reference configuration (per-envelope delivery),
// and a trace recorded in either replays the execution exactly in the
// other. This holds because batched delivery defers sends as
// trigger-ordered pending ops and assigns sequence numbers and scheduler
// draws at flush in exactly the per-envelope order.
func TestRecorderBatchModeIdentity(t *testing.T) {
	const n, seed = 24, 77
	inner := &sched.UniformRandom{Min: 1, Max: 9}

	recRef := &captureProbe{inner: inner}
	resRef := runProbeNet(t, n, 1e-3, recRef, seed, true)
	recProd := &captureProbe{inner: inner}
	resProd := runProbeNet(t, n, 1e-3, recProd, seed, false)

	if len(recRef.delays) == 0 {
		t.Fatal("empty recorded trace")
	}
	if !slices.Equal(recRef.delays, recProd.delays) || !slices.Equal(recRef.sums, recProd.sums) {
		t.Fatalf("traces differ: %d delays (reference) vs %d (production)", len(recRef.delays), len(recProd.delays))
	}
	if resRef.Stats != resProd.Stats {
		t.Errorf("stats %+v vs %+v", resRef.Stats, resProd.Stats)
	}

	// Cross-replay: a trace recorded in the reference drives a production
	// run (and vice versa) to the identical execution.
	intoProd := replayOf(recRef)
	requireSameExecution(t, "reference trace in production", resRef, runProbeNet(t, n, 1e-3, intoProd, seed+1, false), intoProd)
	intoRef := replayOf(recProd)
	requireSameExecution(t, "production trace in the reference", resRef, runProbeNet(t, n, 1e-3, intoRef, seed+2, true), intoRef)
}

// TestReplayFallback pins how a replay treats sends the recording does not
// hold: a recorded send replays its delay, while an unrecorded one (a zero
// entry, or a sequence past the end of the log) gets delay 0, which the
// network's clamp turns into 1, and is reported as divergent.
func TestReplayFallback(t *testing.T) {
	recorded := &sim.Envelope{From: 1, To: 2, Seq: 1, Data: []byte{7}}
	p := newReplayProbe([]sim.Time{0, 5, 0}, []uint32{0, sendSum(recorded), 0}, nil, nil)
	if d := sim.FateOf(p, recorded, nil).Delay; d != 5 {
		t.Errorf("recorded delay %d, want 5", d)
	}
	if p.firstBad != NoDivergentSend {
		t.Fatalf("recorded send reported divergent at %d", p.firstBad)
	}
	for _, seq := range []uint64{9, 2} {
		if d := sim.FateOf(p, &sim.Envelope{Seq: seq}, nil).Delay; d != 1 {
			t.Errorf("unrecorded seq %d: delay %d, want the clamp's 1", seq, d)
		}
	}
	if p.firstBad != 2 || p.sends != 3 {
		t.Errorf("first divergent send %d after %d sends, want 2 after 3", p.firstBad, p.sends)
	}
}
