package core

import (
	"math/rand"
	"testing"

	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/wire"
)

// unitDelay is a deterministic unit-delay scheduler for protocol-level
// tests that exert control via crafted adversaries rather than scheduling.
type unitDelay struct{}

var _ sim.Scheduler = unitDelay{}

func (unitDelay) Fate(*sim.Envelope, *rand.Rand) sim.Fate { return sim.Fate{Delay: 1} }

// witnessNet builds an n-party witness network with the given adversarial
// processes occupying the listed parties.
func witnessNet(t *testing.T, n, tf int, byz map[sim.PartyID]sim.Process, inputs []float64) (*sim.Network, []*WitnessAA) {
	t.Helper()
	p := Params{Protocol: ProtoWitness, N: n, T: tf, Eps: 1e-3, Lo: 0, Hi: 1}
	net, err := sim.New(sim.Config{N: n, Scheduler: unitDelay{}, Seed: 5, Byzantine: byz})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*WitnessAA, n)
	for i := 0; i < n; i++ {
		if _, isByz := byz[sim.PartyID(i)]; isByz {
			continue
		}
		w, err := NewWitnessAA(p, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = w
		if err := net.SetProcess(sim.PartyID(i), w); err != nil {
			t.Fatal(err)
		}
	}
	return net, procs
}

// fakeReporter floods forged witness reports: reports naming origins that
// never broadcast, oversized reports, and reports for absurd rounds. The
// honest parties must converge regardless — forged reports can only ever
// be satisfied if the claimed values were actually RBC-delivered.
type fakeReporter struct{ n int }

func (f *fakeReporter) Init(api sim.API) {
	all := make([]uint16, f.n)
	for i := range all {
		all[i] = uint16(i)
	}
	for r := uint32(1); r <= 30; r++ {
		api.Multicast(wire.MarshalReport(wire.Report{Round: r, Senders: all}))
		api.Multicast(wire.MarshalReport(wire.Report{Round: r + 1000, Senders: all}))
	}
	// Also participate in RBC with an extreme value so its reports are not
	// pure noise.
	api.Multicast(wire.MarshalRBC(wire.RBC{
		Phase: wire.RBCSend, Origin: uint16(api.ID()), Round: 1, Value: 1e9,
	}))
}

func (f *fakeReporter) Deliver(sim.PartyID, []byte) {}

func TestWitnessSurvivesForgedReports(t *testing.T) {
	n, tf := 7, 2
	inputs := []float64{0, 0, 1, 1, 0.5, 1, 0}
	byz := map[sim.PartyID]sim.Process{
		0: &fakeReporter{n: n},
		1: &fakeReporter{n: n},
	}
	net, procs := witnessNet(t, n, tf, byz, inputs)
	res, err := net.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertWitnessOutcome(t, res, procs, inputs, byz, 1e-3)
}

// echoDiverger attacks the RBC layer directly: it echoes and readies
// values nobody sent, trying to split deliveries.
type echoDiverger struct{ n int }

func (e *echoDiverger) Init(api sim.API) {
	for r := uint32(1); r <= 15; r++ {
		for origin := 0; origin < e.n; origin++ {
			api.Multicast(wire.MarshalRBC(wire.RBC{
				Phase: wire.RBCEcho, Origin: uint16(origin), Round: r, Value: -5,
			}))
			api.Multicast(wire.MarshalRBC(wire.RBC{
				Phase: wire.RBCReady, Origin: uint16(origin), Round: r, Value: 7,
			}))
		}
	}
}

func (e *echoDiverger) Deliver(sim.PartyID, []byte) {}

func TestWitnessSurvivesRBCForgery(t *testing.T) {
	n, tf := 7, 2
	inputs := []float64{0.1, 0.9, 0.4, 0.6, 0.5, 0.2, 0.8}
	byz := map[sim.PartyID]sim.Process{
		3: &echoDiverger{n: n},
		6: &echoDiverger{n: n},
	}
	net, procs := witnessNet(t, n, tf, byz, inputs)
	res, err := net.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertWitnessOutcome(t, res, procs, inputs, byz, 1e-3)
}

// TestWitnessReleasesRBCState pins the end-of-run memory fix: cleanup
// releases each completed round's RBC arena (rbc.ReleaseRound), so a
// party's broadcaster no longer holds one instance per (origin, round)
// for the whole run. Without the release the fault-free run below would
// end holding n·horizon instances; with it only the last round or two can
// still be in flight.
func TestWitnessReleasesRBCState(t *testing.T) {
	n, tf := 7, 2
	inputs := []float64{0.1, 0.9, 0.4, 0.6, 0.5, 0.2, 0.8}
	net, procs := witnessNet(t, n, tf, nil, inputs)
	res, err := net.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	assertWitnessOutcome(t, res, procs, inputs, nil, 1e-3)
	for i, w := range procs {
		if w.horizon < 5 {
			t.Fatalf("horizon %d too small for the leak check to mean anything", w.horizon)
		}
		leakCeiling := n * int(w.horizon)
		held := w.bcast.Instances()
		if held > 2*n {
			t.Errorf("party %d broadcaster holds %d instances after the run, want <= %d (pre-release ceiling %d)",
				i, held, 2*n, leakCeiling)
		}
	}
}

func assertWitnessOutcome(t *testing.T, res *sim.Result, procs []*WitnessAA,
	inputs []float64, byz map[sim.PartyID]sim.Process, eps float64) {
	t.Helper()
	lo, hi := 2.0, -1.0
	for i, in := range inputs {
		if _, isByz := byz[sim.PartyID(i)]; isByz {
			continue
		}
		if in < lo {
			lo = in
		}
		if in > hi {
			hi = in
		}
	}
	for i, w := range procs {
		if w == nil {
			continue
		}
		if err := w.Err(); err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
		y, ok := res.Decisions[sim.PartyID(i)]
		if !ok {
			t.Fatalf("party %d did not decide", i)
		}
		if y < lo-1e-9 || y > hi+1e-9 {
			t.Errorf("party %d output %v outside hull [%v, %v]", i, y, lo, hi)
		}
	}
	if s := multiset.Spread(res.HonestDecisions()); s > eps+1e-9 {
		t.Errorf("spread %v > eps", s)
	}
}
