package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// This file pins the calendar-queue event core to the binary-heap
// reference: event-for-event identical delivery traces across the full
// scheduler × fault matrix, and byte-identical experiment tables. It is
// the contract that let the calendar queue replace the heap on the hot
// path (and what keeps sim.CoreHeap a faithful reference).

// deliveryRecord is one observed delivery, in observer order.
type deliveryRecord struct {
	Now      sim.Time
	From, To sim.PartyID
	Seq      uint64
	Len      int
}

// runTraced executes one scenario on the given core and returns the full
// delivery trace plus the report.
func runTraced(t *testing.T, p core.Params, scen scenario.Spec, eventCore sim.EventCore) ([]deliveryRecord, *Report) {
	t.Helper()
	SetEventCore(eventCore)
	defer SetEventCore(sim.CoreDefault)
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
	rep, err := Run(spec)
	if err != nil {
		t.Fatalf("%s on %v: %v", scen, eventCore, err)
	}
	return trace, rep
}

// TestCoreEquivalenceTraces runs the full scheduler suite × fault matrix
// on both event cores with a delivery-trace observer and asserts
// event-for-event identical orders, plus identical decisions and stats.
func TestCoreEquivalenceTraces(t *testing.T) {
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
				heapTrace, heapRep := runTraced(t, p, scen, sim.CoreHeap)
				calTrace, calRep := runTraced(t, p, scen, sim.CoreCalendar)
				if len(heapTrace) == 0 {
					t.Fatal("empty delivery trace")
				}
				if len(heapTrace) != len(calTrace) {
					t.Fatalf("trace lengths diverge: heap %d, calendar %d", len(heapTrace), len(calTrace))
				}
				for i := range heapTrace {
					if heapTrace[i] != calTrace[i] {
						t.Fatalf("delivery %d diverges: heap %+v, calendar %+v",
							i, heapTrace[i], calTrace[i])
					}
				}
				if heapRep.Result.Stats != calRep.Result.Stats {
					t.Fatalf("stats diverge: heap %+v, calendar %+v",
						heapRep.Result.Stats, calRep.Result.Stats)
				}
				if len(heapRep.Result.Decisions) != len(calRep.Result.Decisions) {
					t.Fatal("decision counts diverge")
				}
				for id, v := range heapRep.Result.Decisions {
					if calRep.Result.Decisions[id] != v {
						t.Fatalf("party %d decision diverges", id)
					}
					if calRep.Result.DecidedAt[id] != heapRep.Result.DecidedAt[id] {
						t.Fatalf("party %d decision time diverges", id)
					}
				}
			})
		}
	}
}

// renderAll renders every listed experiment on the given core.
func renderAll(t *testing.T, eventCore sim.EventCore, ids map[string]bool) map[string]string {
	t.Helper()
	SetEventCore(eventCore)
	defer SetEventCore(sim.CoreDefault)
	out := make(map[string]string)
	for _, exp := range Experiments(1) {
		if !ids[exp.ID] {
			continue
		}
		tbl, err := exp.Run()
		if err != nil {
			t.Fatalf("%s on %v: %v", exp.ID, eventCore, err)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		out[exp.ID] = sb.String()
	}
	return out
}

// TestTablesByteIdenticalAcrossCores regenerates the full E1–E11 table set
// on each event core and asserts byte-identical renderings — the
// experiment-level form of the trace equivalence, covering every driver,
// seed schedule, and aggregation path. E12 is compared at reduced sizes
// (its full sweep exists to measure the calendar core, not to gate it).
func TestTablesByteIdenticalAcrossCores(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment table twice; run without -short")
	}
	ids := map[string]bool{}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"} {
		ids[id] = true
	}
	heapTables := renderAll(t, sim.CoreHeap, ids)
	calTables := renderAll(t, sim.CoreCalendar, ids)
	for id, want := range heapTables {
		if got := calTables[id]; got != want {
			t.Errorf("%s diverges across cores:\n--- heap ---\n%s\n--- calendar ---\n%s", id, want, got)
		}
	}

	run12 := func(eventCore sim.EventCore) string {
		SetEventCore(eventCore)
		defer SetEventCore(sim.CoreDefault)
		tbl, err := E12LargeNSizes([]int{16, 32})
		if err != nil {
			t.Fatalf("E12 on %v: %v", eventCore, err)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if heap12, cal12 := run12(sim.CoreHeap), run12(sim.CoreCalendar); heap12 != cal12 {
		t.Errorf("E12 diverges across cores:\n--- heap ---\n%s\n--- calendar ---\n%s", heap12, cal12)
	}
}
