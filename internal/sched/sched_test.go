package sched

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func delay(s sim.Scheduler, from, to sim.PartyID, rng *rand.Rand) sim.Time {
	return sim.FateOf(s, &sim.Envelope{From: from, To: to}, rng).Delay
}

func TestSynchronous(t *testing.T) {
	s := NewSynchronous(7)
	for i := 0; i < 5; i++ {
		if d := delay(s, sim.PartyID(i), 0, nil); d != 7 {
			t.Fatalf("delay = %d, want 7", d)
		}
	}
	if d := delay(NewSynchronous(0), 0, 1, nil); d != 1 {
		t.Errorf("zero delay not clamped: %d", d)
	}
}

func TestUniformRandomBounds(t *testing.T) {
	s := &UniformRandom{Min: 3, Max: 9}
	rng := rand.New(rand.NewSource(1))
	seen := map[sim.Time]bool{}
	for i := 0; i < 500; i++ {
		d := delay(s, 0, 1, rng)
		if d < 3 || d > 9 {
			t.Fatalf("delay %d outside [3,9]", d)
		}
		seen[d] = true
	}
	if len(seen) < 5 {
		t.Errorf("poor delay diversity: %v", seen)
	}
	// Degenerate configurations are repaired.
	bad := &UniformRandom{Min: 0, Max: 0}
	if d := delay(bad, 0, 1, rng); d != 1 {
		t.Errorf("degenerate range delay = %d", d)
	}
	inverted := &UniformRandom{Min: 5, Max: 2}
	if d := delay(inverted, 0, 1, rng); d != 5 {
		t.Errorf("inverted range delay = %d", d)
	}
}

func TestSkew(t *testing.T) {
	s := NewSkew([]sim.PartyID{0, 1}, 1, 50)
	if d := delay(s, 0, 3, nil); d != 50 {
		t.Errorf("victim sender delay = %d", d)
	}
	if d := delay(s, 3, 1, nil); d != 50 {
		t.Errorf("victim recipient delay = %d", d)
	}
	if d := delay(s, 2, 3, nil); d != 1 {
		t.Errorf("bystander delay = %d", d)
	}
}

func TestPartition(t *testing.T) {
	s := &Partition{Boundary: 2, Within: 1, Across: 40}
	if d := delay(s, 0, 1, nil); d != 1 {
		t.Errorf("within-low delay = %d", d)
	}
	if d := delay(s, 2, 3, nil); d != 1 {
		t.Errorf("within-high delay = %d", d)
	}
	if d := delay(s, 1, 2, nil); d != 40 {
		t.Errorf("across delay = %d", d)
	}
	if d := delay(s, 3, 0, nil); d != 40 {
		t.Errorf("across delay = %d", d)
	}
}

func TestSplitViews(t *testing.T) {
	s := &SplitViews{Boundary: 2, Fast: 1, Slow: 30}
	if d := delay(s, 0, 1, nil); d != 1 {
		t.Errorf("same-half delay = %d", d)
	}
	if d := delay(s, 0, 3, nil); d != 30 {
		t.Errorf("cross-half delay = %d", d)
	}
	if d := delay(s, 3, 1, nil); d != 30 {
		t.Errorf("cross-half delay = %d", d)
	}
}

func TestStaggered(t *testing.T) {
	s := &Staggered{Base: 2, Step: 3}
	if d := delay(s, 0, 1, nil); d != 2 {
		t.Errorf("party 0 delay = %d", d)
	}
	if d := delay(s, 4, 1, nil); d != 14 {
		t.Errorf("party 4 delay = %d", d)
	}
}
