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

// buildRunN assembles a crash-protocol network of the given size over the
// given scheduler, in the simulator's reference configuration or in
// production.
func buildRunN(t *testing.T, n int, scheduler sim.Scheduler, seed int64, reference bool) *sim.Result {
	t.Helper()
	p := core.Params{Protocol: core.ProtoCrash, N: n, T: (n - 1) / 2, Eps: 1e-3, Lo: 0, Hi: 1}
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

func TestRecordReplayReproducesExecution(t *testing.T) {
	rec := NewRecorder(&UniformRandom{Min: 1, Max: 20})
	original := buildRun(t, rec, 42)

	// Replay with a different fallback and a different network seed: the
	// recorded delays alone must reproduce the execution exactly.
	replay := NewReplay(rec.Log(), 1)
	replayed := buildRun(t, replay, 999)

	if original.FinishTime != replayed.FinishTime {
		t.Errorf("finish time %d vs %d", original.FinishTime, replayed.FinishTime)
	}
	if original.Stats != replayed.Stats {
		t.Errorf("stats %+v vs %+v", original.Stats, replayed.Stats)
	}
	for id, v := range original.Decisions {
		if replayed.Decisions[id] != v {
			t.Errorf("party %d decided %v vs %v", id, v, replayed.Decisions[id])
		}
	}
}

// TestRecorderBatchModeIdentity pins the batch-awareness contract: a run
// dense enough to trigger batched tick delivery (n=24, so ticks carry
// hundreds of deliveries) records byte-for-byte the same delay log in
// production and in the reference configuration (per-envelope delivery),
// and a log recorded in either replays the execution exactly in the other.
// This holds because batched delivery defers sends as trigger-ordered
// pending ops and assigns sequence numbers and scheduler draws at flush in
// exactly the per-envelope order.
func TestRecorderBatchModeIdentity(t *testing.T) {
	const n, seed = 24, 77
	sched := &UniformRandom{Min: 1, Max: 9}

	recRef := NewRecorder(sched)
	resRef := buildRunN(t, n, recRef, seed, true)
	recProd := NewRecorder(sched)
	resProd := buildRunN(t, n, recProd, seed, false)

	logRef, logProd := recRef.Dense(), recProd.Dense()
	if len(logRef) != len(logProd) {
		t.Fatalf("log length %d (reference) vs %d (production)", len(logRef), len(logProd))
	}
	if len(logRef) == 0 {
		t.Fatal("empty recorded log")
	}
	for seq := range logRef {
		if logRef[seq] != logProd[seq] {
			t.Fatalf("seq %d: delay %d (reference) vs %d (production)", seq, logRef[seq], logProd[seq])
		}
	}
	if resRef.Stats != resProd.Stats {
		t.Errorf("stats %+v vs %+v", resRef.Stats, resProd.Stats)
	}

	// Cross-replay: a log recorded in the reference drives a production
	// run (and vice versa) to the identical execution.
	crossProd := buildRunN(t, n, NewReplayDense(logRef, 1), seed+1, false)
	crossRef := buildRunN(t, n, NewReplayDense(logProd, 1), seed+2, true)
	for _, pair := range []struct {
		name string
		got  *sim.Result
	}{{"reference log in production", crossProd}, {"production log in the reference", crossRef}} {
		if pair.got.FinishTime != resRef.FinishTime {
			t.Errorf("%s: finish time %d vs %d", pair.name, pair.got.FinishTime, resRef.FinishTime)
		}
		if pair.got.Stats != resRef.Stats {
			t.Errorf("%s: stats %+v vs %+v", pair.name, pair.got.Stats, resRef.Stats)
		}
		for id, v := range resRef.Decisions {
			if pair.got.Decisions[id] != v {
				t.Errorf("%s: party %d decided %v vs %v", pair.name, id, pair.got.Decisions[id], v)
			}
		}
	}
}

func TestRecorderDenseLog(t *testing.T) {
	rec := NewRecorder(NewSynchronous(4))
	rng := rand.New(rand.NewSource(1))
	rec.Delay(sim.Envelope{Seq: 0}, 0, rng)
	rec.Delay(sim.Envelope{Seq: 2}, 0, rng)
	dense := rec.Dense()
	if len(dense) != 3 || dense[0] != 4 || dense[1] != 0 || dense[2] != 4 {
		t.Fatalf("dense log %v", dense)
	}
	// Dense returns a copy.
	dense[0] = 99
	if rec.Dense()[0] != 4 {
		t.Error("dense log not copied")
	}
	// The map view skips unrecorded sequences.
	m := rec.Log()
	if len(m) != 2 || m[0] != 4 || m[2] != 4 {
		t.Fatalf("map log %v", m)
	}
}

func TestRecorderClampsAndLogs(t *testing.T) {
	rec := NewRecorder(NewSynchronous(1))
	env := sim.Envelope{Seq: 7}
	d := rec.Delay(env, 0, rand.New(rand.NewSource(1)))
	if d != 1 {
		t.Errorf("delay %d", d)
	}
	log := rec.Log()
	if log[7] != 1 {
		t.Errorf("log %v", log)
	}
	// Log returns a copy.
	log[7] = 99
	if rec.Log()[7] != 1 {
		t.Error("log not copied")
	}
}

func TestReplayFallback(t *testing.T) {
	r := NewReplay(map[uint64]sim.Time{1: 5}, 3)
	if d := r.Delay(sim.Envelope{Seq: 1}, 0, nil); d != 5 {
		t.Errorf("recorded delay %d", d)
	}
	if d := r.Delay(sim.Envelope{Seq: 2}, 0, nil); d != 3 {
		t.Errorf("fallback delay %d", d)
	}
	zero := NewReplay(nil, 0)
	if d := zero.Delay(sim.Envelope{Seq: 9}, 0, nil); d != 1 {
		t.Errorf("zero fallback not clamped: %d", d)
	}
}

func TestHeavyTailShape(t *testing.T) {
	h := &HeavyTail{Base: 2, Alpha: 1.5, Cap: 200}
	rng := rand.New(rand.NewSource(3))
	slow := 0
	for i := 0; i < 5000; i++ {
		d := h.Delay(sim.Envelope{}, 0, rng)
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
	d := (&HeavyTail{}).Delay(sim.Envelope{}, 0, rng)
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
