package sched

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/multiset"
	"repro/internal/sim"
)

// reversing always gives later sends smaller delays, the maximal
// reordering adversary.
type reversing struct{ next sim.Time }

func (r *reversing) Fate(*sim.Envelope, *rand.Rand) sim.Fate {
	if r.next == 0 {
		r.next = 100
	}
	d := r.next
	if r.next > 1 {
		r.next--
	}
	return sim.Fate{Delay: d}
}

// scripted returns its fates in order, one per send.
type scripted struct{ fates []sim.Fate }

func (s *scripted) Fate(*sim.Envelope, *rand.Rand) sim.Fate {
	f := s.fates[0]
	s.fates = s.fates[1:]
	return f
}

func TestFIFOOrdersPerLink(t *testing.T) {
	f := NewFIFO(&reversing{})
	var lastAt sim.Time
	for i := 0; i < 50; i++ {
		at := delay(f, 1, 2, nil)
		if at <= lastAt {
			t.Fatalf("send %d delivered at %d, not after %d", i, at, lastAt)
		}
		lastAt = at
	}
}

func TestFIFOIndependentLinks(t *testing.T) {
	f := NewFIFO(NewSynchronous(10))
	// Different links are not serialized against each other.
	d1 := delay(f, 1, 2, nil)
	d2 := delay(f, 1, 3, nil)
	d3 := delay(f, 2, 2, nil)
	if d1 != 10 || d2 != 10 || d3 != 10 {
		t.Errorf("cross-link interference: %d %d %d", d1, d2, d3)
	}
	// Same link at the same instant is pushed strictly later.
	d4 := delay(f, 1, 2, nil)
	if d4 != 11 {
		t.Errorf("same-link second delay %d, want 11", d4)
	}
}

// TestFIFODropDoesNotHoldLink pins that FIFO passes its inner scheduler's
// drop and dup verdicts through, and that a dropped send, which never
// arrives, does not push later sends on its link back.
func TestFIFODropDoesNotHoldLink(t *testing.T) {
	f := NewFIFO(&scripted{fates: []sim.Fate{
		{Delay: 100, Drop: true},
		{Delay: 5, DupExtra: 3},
	}})
	env := &sim.Envelope{From: 1, To: 2}
	if got := f.Fate(env, nil); !got.Drop {
		t.Fatalf("first send: fate %+v, want the inner drop", got)
	}
	if got := f.Fate(env, nil); got != (sim.Fate{Delay: 5, DupExtra: 3}) {
		t.Fatalf("second send: fate %+v, want delay 5 and the inner dup, unheld by the dropped send", got)
	}
}

// greeter multicasts one greeting in Init and never decides, so its runs
// end when the network has nothing left to deliver.
type greeter struct{ got *int }

func (g greeter) Init(api sim.API)            { api.Multicast([]byte{1}) }
func (g greeter) Deliver(sim.PartyID, []byte) { *g.got++ }

// TestFIFOKeepsInnerLoss runs FIFO over certain loss on the simulator:
// every send is dropped and counted, and nothing is delivered.
func TestFIFOKeepsInnerLoss(t *testing.T) {
	const n = 4
	scheduler := NewFIFO(&Loss{Inner: &UniformRandom{Min: 1, Max: 25}, P: 1})
	net, err := sim.New(sim.Config{N: n, Scheduler: scheduler, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < n; i++ {
		if err := net.SetProcess(sim.PartyID(i), greeter{got: &got}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Run()
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("run error %v, want ErrStalled", err)
	}
	if st := res.Stats; st.MessagesSent != n*n || st.MessagesDropped != n*n || st.MessagesDelivered != 0 || got != 0 {
		t.Fatalf("stats %+v with %d deliveries, want all %d sends dropped", st, got, n*n)
	}
}

// The protocols' round tags make them order-insensitive: the same
// execution under maximal reordering and under FIFO-forced ordering both
// satisfy every invariant.
func TestProtocolsAgnosticToFIFO(t *testing.T) {
	raw := buildRun(t, &UniformRandom{Min: 1, Max: 30}, 5)
	fifo := buildRun(t, NewFIFO(&UniformRandom{Min: 1, Max: 30}), 5)
	for _, res := range []*sim.Result{raw, fifo} {
		if len(res.Decisions) != 5 {
			t.Fatalf("decisions %v", res.Decisions)
		}
		if s := multiset.Spread(res.HonestDecisions()); s > 1e-4 {
			t.Errorf("spread %v", s)
		}
	}
}
