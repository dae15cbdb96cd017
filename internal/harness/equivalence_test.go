package harness

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file pins production to the reference configuration. Production
// runs the calendar queue, batched dense ticks, and pooled recycled run
// contexts; the reference runs the binary heap, per-envelope ticks, and a
// fresh context per run. Every table, delivery trace, and stats counter
// must be identical. That is the contract that lets the fast paths stand
// in for the plain ones.

// largeArm is the E12 arm at n ∈ {64, 128}. It engages what the reduced
// sizes do not: 4096-event dense ticks, calendar overflow migration,
// multi-block payload turnover, and recycled contexts growing and
// shrinking mid-sweep.
const largeArm = "E12-large"

// tableSet is the compared table set on e: every Experiments table, with
// E12 reduced to n ∈ {16, 32}, plus largeArm.
func tableSet(e *Engine) []Experiment {
	exps := Experiments(e, 1)
	for i := range exps {
		if exps[i].ID == "E12" {
			exps[i].Run = func() (*trace.Table, error) { return E12LargeNSizes(e, []int{16, 32}) }
		}
	}
	return append(exps, Experiment{ID: largeArm, Run: func() (*trace.Table, error) {
		return E12LargeNSizes(e, []int{64, 128})
	}})
}

// tableIDs lists the IDs of tableSet, in order, minus the excluded ones.
func tableIDs(exclude ...string) []string {
	var ids []string
	for _, exp := range tableSet(&Engine{}) {
		if !slices.Contains(exclude, exp.ID) {
			ids = append(ids, exp.ID)
		}
	}
	return ids
}

// rendered is one rendered table and the engine counters its runs added.
type rendered struct {
	text  string
	stats EngineStats
}

// renderTables renders the listed tables of e's set in the given order. It
// returns errors rather than failing the test, so it can run off the test
// goroutine.
func renderTables(e *Engine, ids []string) (map[string]rendered, error) {
	byID := make(map[string]Experiment)
	for _, exp := range tableSet(e) {
		byID[exp.ID] = exp
	}
	out := make(map[string]rendered, len(ids))
	for _, id := range ids {
		exp, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("no table %q", id)
		}
		before := e.Stats()
		tbl, err := exp.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			return nil, err
		}
		after := e.Stats()
		out[id] = rendered{text: sb.String(), stats: EngineStats{
			Runs:              after.Runs - before.Runs,
			MessagesSent:      after.MessagesSent - before.MessagesSent,
			MessagesDelivered: after.MessagesDelivered - before.MessagesDelivered,
			BytesSent:         after.BytesSent - before.BytesSent,
		}}
	}
	return out, nil
}

// referenceTables renders the whole table set once per test binary, each
// table on its own sequential reference engine, the tables spread over
// GOMAXPROCS goroutines (the reference E6 alone is most of the work).
// Every test below compares one production configuration against it.
var referenceTables = sync.OnceValues(func() (map[string]rendered, error) {
	ids := tableIDs()
	tables, err := mapOrdered(runtime.GOMAXPROCS(0), len(ids), func(i int) (rendered, error) {
		out, err := renderTables(&Engine{Reference: true, Workers: 1}, ids[i:i+1])
		return out[ids[i]], err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]rendered, len(ids))
	for i, id := range ids {
		out[id] = tables[i]
	}
	return out, nil
})

// requireReference renders ids, in order, on the production engine e while
// the reference renders (or has rendered) the whole set, every engine
// running concurrently in one process, and requires each table to be
// byte-identical to the reference's and to add the same engine counters.
// Any leak in the deferred-flush machinery (send order, Seq assignment, rng
// draws, mid-tick completion, stats repair), in the calendar queue, or
// across a Reset perturbs some run's schedule and surfaces as a table diff;
// any state the engines shared would too.
func requireReference(t *testing.T, e *Engine, ids []string) {
	t.Helper()
	if testing.Short() {
		t.Skip("renders experiment tables on two engines; run without -short")
	}
	t.Parallel()
	var want map[string]rendered
	var refErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		want, refErr = referenceTables()
	}()
	got, err := renderTables(e, ids)
	<-done
	if refErr != nil {
		t.Fatalf("reference: %v", refErr)
	}
	if err != nil {
		t.Fatalf("production (workers=%d): %v", e.Workers, err)
	}
	for _, id := range ids {
		w, g := want[id], got[id]
		if g.text != w.text {
			t.Errorf("%s diverges (workers=%d):\n--- reference ---\n%s\n--- production ---\n%s", id, e.Workers, w.text, g.text)
		}
		if g.stats != w.stats {
			t.Errorf("%s engine counters diverge (workers=%d): reference %+v, production %+v", id, e.Workers, w.stats, g.stats)
		}
	}
}

// TestProductionMatchesReference renders the whole table set on a
// production engine at eight workers against the reference.
func TestProductionMatchesReference(t *testing.T) {
	requireReference(t, &Engine{Workers: 8}, tableIDs())
}

// TestTablesByteIdenticalAcrossCores keeps its name from when it compared
// the calendar event core against the binary heap; the heap is now part of
// the reference configuration. It renders the table set it always did, E1–
// E11 and the reduced E12, on a production engine at the default worker
// count.
func TestTablesByteIdenticalAcrossCores(t *testing.T) {
	requireReference(t, &Engine{}, tableIDs("E13", "E14", largeArm))
}

// TestBatchDeliveryByteIdentical keeps its name from when it compared
// batched tick delivery against the per-envelope loop; per-envelope ticks
// are now part of the reference configuration. It renders the table set on
// a sequential production engine, so every dense tick runs through the
// batched body with no worker interleaving.
func TestBatchDeliveryByteIdentical(t *testing.T) {
	requireReference(t, &Engine{Workers: 1}, tableIDs(largeArm))
}

// TestRunContextReuseByteIdentical keeps its name from when it compared
// recycled run contexts against per-run fresh construction; fresh contexts
// are now part of the reference configuration. It renders the table set in
// reverse order at eight workers, so the pooled contexts arrive at each
// table recycled from a different predecessor than in forward order:
// large-n contexts shrink into the small sweeps.
func TestRunContextReuseByteIdentical(t *testing.T) {
	ids := tableIDs(largeArm)
	slices.Reverse(ids)
	requireReference(t, &Engine{Workers: 8}, ids)
}

// TestRunContextReuseByteIdenticalLargeN is the large-n arm of the
// recycling pin: the E12 sweep at n ∈ {64, 128}, whose mixed shapes force
// pooled contexts to grow and shrink mid-sweep, at the default worker
// count.
func TestRunContextReuseByteIdenticalLargeN(t *testing.T) {
	requireReference(t, &Engine{}, []string{largeArm})
}

// TestShardedTablesByteIdentical keeps its name from when it compared the
// tables across shard counts; the shard workers' merge is now the one
// batched tick body. It renders the E12 sweep at n ∈ {64, 128}, where
// multicast storms are 4096-event ticks, on a sequential production engine.
func TestShardedTablesByteIdentical(t *testing.T) {
	requireReference(t, &Engine{Workers: 1}, []string{largeArm})
}

// deliveryRecord is one observed delivery, in observer order.
type deliveryRecord struct {
	Now      sim.Time
	From, To sim.PartyID
	Seq      uint64
	Len      int
}

// runTraced executes one scenario on the engine and returns the full
// delivery trace plus the report.
func runTraced(t *testing.T, e *Engine, p core.Params, scen scenario.Spec) ([]deliveryRecord, *Report) {
	t.Helper()
	spec, err := SpecFrom(p, BimodalInputs(p.N, 0, 1), scen, 11)
	if err != nil {
		t.Fatalf("%s: %v", scen, err)
	}
	var trace []deliveryRecord
	spec.Observer = func(now sim.Time, env sim.Envelope) {
		trace = append(trace, deliveryRecord{
			Now: now, From: env.From, To: env.To, Seq: env.Seq, Len: len(env.Data),
		})
	}
	rep, err := e.Run(spec)
	if err != nil {
		t.Fatalf("%s (reference=%v): %v", scen, e.Reference, err)
	}
	return trace, rep
}

// TestCoreEquivalenceTraces runs the full scheduler suite × fault matrix
// on the reference and the production engine with a delivery-trace
// observer and asserts event-for-event identical orders, plus identical
// decisions and stats.
func TestCoreEquivalenceTraces(t *testing.T) {
	ref, prod := &Engine{Reference: true}, &Engine{}
	faultKinds := []string{"", "crash", "silent", "extreme", "equivocate", "spam", "amplifier"}
	for _, faultKind := range faultKinds {
		// Crash-kind (and fault-free) runs use the crash protocol at its
		// bound; Byzantine kinds need a Byzantine-tolerant protocol — the
		// witness protocol, whose RBC traffic is the hardest queue load.
		p := core.Params{Protocol: core.ProtoCrash, N: 9, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}
		var faults []string
		switch faultKind {
		case "":
		case "crash":
			faults = []string{"crash"}
		default:
			p = core.Params{Protocol: core.ProtoWitness, N: 7, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}
			faults = []string{faultKind}
		}
		for _, scen := range scenario.Suite(p.N, p.T, faults...) {
			name := scen.String()
			if faultKind == "" {
				name = scen.Sched + "+none"
			}
			t.Run(name, func(t *testing.T) {
				refTrace, refRep := runTraced(t, ref, p, scen)
				gotTrace, gotRep := runTraced(t, prod, p, scen)
				if len(refTrace) == 0 {
					t.Fatal("empty delivery trace")
				}
				if len(refTrace) != len(gotTrace) {
					t.Fatalf("trace lengths diverge: reference %d, production %d", len(refTrace), len(gotTrace))
				}
				for i := range refTrace {
					if refTrace[i] != gotTrace[i] {
						t.Fatalf("delivery %d diverges: reference %+v, production %+v",
							i, refTrace[i], gotTrace[i])
					}
				}
				if refRep.Result.Stats != gotRep.Result.Stats {
					t.Fatalf("stats diverge: reference %+v, production %+v",
						refRep.Result.Stats, gotRep.Result.Stats)
				}
				if len(refRep.Result.Decisions) != len(gotRep.Result.Decisions) {
					t.Fatal("decision counts diverge")
				}
				for id, v := range refRep.Result.Decisions {
					if gotRep.Result.Decisions[id] != v {
						t.Fatalf("party %d decision diverges", id)
					}
					if gotRep.Result.DecidedAt[id] != refRep.Result.DecidedAt[id] {
						t.Fatalf("party %d decision time diverges", id)
					}
				}
			})
		}
	}
}
