package core

import (
	"testing"

	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/wire"
)

// trimNet builds a ByzTrim network with crafted adversaries.
func trimNet(t *testing.T, n, tf int, byz map[sim.PartyID]sim.Process, inputs []float64) (*sim.Network, []*AsyncAA) {
	t.Helper()
	p := Params{Protocol: ProtoByzTrim, N: n, T: tf, Eps: 1e-3, Lo: 0, Hi: 1}
	net, err := sim.New(sim.Config{N: n, Scheduler: unitDelay{}, Seed: 7, Byzantine: byz})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*AsyncAA, n)
	for i := 0; i < n; i++ {
		if _, isByz := byz[sim.PartyID(i)]; isByz {
			continue
		}
		a, err := NewAsyncAA(p, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = a
		if err := net.SetProcess(sim.PartyID(i), a); err != nil {
			t.Fatal(err)
		}
	}
	return net, procs
}

// roundFlooder sends a distinct extreme value for every round up front,
// plus duplicate conflicting values per round (testing the first-value-
// wins dedupe) and absurd round numbers (testing the buffering cap).
type roundFlooder struct{ rounds int }

func (f *roundFlooder) Init(api sim.API) {
	for r := 1; r <= f.rounds; r++ {
		api.Multicast(wire.MarshalValue(wire.Value{Round: uint32(r), Value: -1e9}))
		api.Multicast(wire.MarshalValue(wire.Value{Round: uint32(r), Value: 1e9})) // dup, ignored
	}
	for _, r := range []uint32{1 << 20, 1 << 24, 1 << 30, ^uint32(0)} {
		api.Multicast(wire.MarshalValue(wire.Value{Round: r, Value: 0.5}))
	}
}

func (f *roundFlooder) Deliver(sim.PartyID, []byte) {}

func TestByzTrimSurvivesRoundFlood(t *testing.T) {
	n, tf := 8, 1
	inputs := []float64{0, 1, 0.25, 0.75, 0.5, 0, 1, 0.5}
	p := Params{Protocol: ProtoByzTrim, N: n, T: tf, Eps: 1e-3, Lo: 0, Hi: 1}
	rounds, err := p.FixedRounds()
	if err != nil {
		t.Fatal(err)
	}
	byz := map[sim.PartyID]sim.Process{2: &roundFlooder{rounds: rounds}}
	net, procs := trimNet(t, n, tf, byz, inputs)
	res, err := net.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, a := range procs {
		if a == nil {
			continue
		}
		if err := a.Err(); err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
		y := res.Decisions[sim.PartyID(i)]
		if y < 0 || y > 1 {
			t.Errorf("party %d output %v outside honest hull [0,1]", i, y)
		}
	}
	if s := multiset.Spread(res.HonestDecisions()); s > 1e-3 {
		t.Errorf("spread %v", s)
	}
}

// TestAsyncAAFutureRoundMemoryBound: absurd round tags from a Byzantine
// sender must not grow the buffer beyond horizon + slack.
func TestAsyncAAFutureRoundMemoryBound(t *testing.T) {
	p := crashParams(3, 1)
	p.Eps = 1.0 / 1024 // horizon 10
	a, err := NewAsyncAA(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Init(newFakeAPI(0, 3))
	for r := uint32(1); r <= 100_000; r += 97 {
		a.Deliver(1, wire.MarshalValue(wire.Value{Round: r, Value: 0.5}))
	}
	if got := a.activeBuckets(); got > int(a.horizon)+futureRoundSlack+1 {
		t.Fatalf("round buffer grew to %d entries", got)
	}
}

// TestAsyncAAHorizonCannotShrink: a Byzantine party piggybacking horizon 0
// must not shorten an honest party's round budget.
func TestAsyncAAHorizonCannotShrink(t *testing.T) {
	p := crashParams(3, 1)
	p.Adaptive = true
	a, err := NewAsyncAA(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Init(newFakeAPI(0, 3))
	a.Deliver(0, wire.MarshalInit(wire.Init{Value: 0}))
	a.Deliver(1, wire.MarshalInit(wire.Init{Value: 100}))
	h := a.horizon
	if h == 0 {
		t.Fatal("no horizon established")
	}
	a.Deliver(2, wire.MarshalValue(wire.Value{Round: 1, Horizon: 0, Value: 50}))
	if a.horizon != h {
		t.Fatalf("horizon shrank from %d to %d", h, a.horizon)
	}
}

// TestByzTrimEquivocationAtProvenBound runs the canonical equivocation
// attack at n = 7t+1 end to end on the simulator: the protocol must
// converge (this is the scenario that stalls forever at n = 5t+1, pinned
// by multiset.TestByzTrimStallsBelowProvenResilience and E1).
func TestByzTrimEquivocationAtProvenBound(t *testing.T) {
	n, tf := 8, 1
	inputs := make([]float64, n)
	for i := range inputs {
		if i >= n/2 {
			inputs[i] = 1
		}
	}
	byz := map[sim.PartyID]sim.Process{0: &perRecipientLiar{n: n, rounds: 12}}
	net, procs := trimNet(t, n, tf, byz, inputs)
	res, err := net.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, a := range procs {
		if a == nil {
			continue
		}
		if err := a.Err(); err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	if s := multiset.Spread(res.HonestDecisions()); s > 1e-3 {
		t.Errorf("equivocation at 7t+1 prevented convergence: spread %v", s)
	}
}

// perRecipientLiar tells every recipient a different extreme each round.
type perRecipientLiar struct{ n, rounds int }

func (l *perRecipientLiar) Init(api sim.API) {
	for r := 1; r <= l.rounds; r++ {
		for p := 0; p < l.n; p++ {
			v := -100.0 - float64(p)
			if p >= l.n/2 {
				v = 100.0 + float64(p)
			}
			api.Send(sim.PartyID(p), wire.MarshalValue(wire.Value{Round: uint32(r), Value: v}))
		}
	}
}

func (l *perRecipientLiar) Deliver(sim.PartyID, []byte) {}

// TestAsyncAARoundRingSpillSurvivesSlotFree pins the ring/spill interaction:
// a round whose ring slot was occupied at first touch spills to the map, and
// must remain reachable (same bucket, duplicate detection intact) after the
// slot's occupant is dropped — a freed slot must not shadow spilled state.
func TestAsyncAARoundRingSpillSurvivesSlotFree(t *testing.T) {
	a, err := NewAsyncAA(crashParams(5, 2), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	far := uint32(1 + roundRingLen) // collides with round 1's slot
	b1 := a.bucket(1, true)
	spilled := a.bucket(far, true)
	if spilled == b1 {
		t.Fatal("colliding rounds share a bucket")
	}
	spilled.add(0, 0.25)
	a.dropBucket(1) // free the slot round far collided with
	got := a.bucket(far, false)
	if got != spilled {
		t.Fatalf("spilled round %d no longer reachable after slot free: got %p, want %p", far, got, spilled)
	}
	if got := a.bucket(far, true); got != spilled {
		t.Fatalf("create path built a second bucket for spilled round %d", far)
	}
	if !spilled.has(0) || spilled.cnt != 1 {
		t.Fatal("spilled state lost")
	}
	a.dropBucket(far)
	if a.bucket(far, false) != nil {
		t.Fatal("dropped spilled round still reachable")
	}
}
