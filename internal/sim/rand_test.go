package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// These tests pin lazy party seeding: a party's source is seeded on its
// first Rand call of a run, never in Reset, and must still produce exactly
// the stream of a source built from partySeed(seed, id) — whenever the
// first draw happens and whatever earlier runs on the same Network drew.

// freshDraws is the reference: k draws from a freshly built party source.
func freshDraws(seed int64, id, k int) []int64 {
	rng := rand.New(rand.NewSource(partySeed(seed, id)))
	out := make([]int64, k)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// drawInto appends k draws from api's source to *dst.
func drawInto(dst *[]int64, api API, k int) {
	for i := 0; i < k; i++ {
		*dst = append(*dst, api.Rand().Int63())
	}
}

// attachDrawers gives every party of net a process that multicasts one
// greeting and decides in Init, except that the parties in draw take k
// draws first. It returns each party's draws.
func attachDrawers(t *testing.T, net *Network, n, k int, draw ...int) [][]int64 {
	t.Helper()
	got := make([][]int64, n)
	for i := 0; i < n; i++ {
		i := i
		if err := net.SetProcess(PartyID(i), &funcProc{init: func(api API) {
			if slices.Contains(draw, i) {
				drawInto(&got[i], api, k)
			}
			api.Multicast([]byte{byte(i)})
			api.Decide(0)
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

func checkDraws(t *testing.T, run string, seed int64, got [][]int64, k int, draw ...int) {
	t.Helper()
	for _, id := range draw {
		if want := freshDraws(seed, id, k); !slices.Equal(got[id], want) {
			t.Errorf("%s: party %d drew %v, want the fresh source's %v", run, id, got[id], want)
		}
	}
}

// TestLazyRandFirstDrawInInit draws from party 1 in Init; the parties that
// never draw must be left with no source built at all.
func TestLazyRandFirstDrawInInit(t *testing.T) {
	const n, k, seed = 4, 5, 41
	net, err := New(Config{N: n, Scheduler: randomSched{}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got := attachDrawers(t, net, n, k, 1)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	checkDraws(t, "init", seed, got, k, 1)
	for _, id := range []int{0, 2, 3} {
		if net.parties[id].rng != nil {
			t.Errorf("party %d never drew but its record holds a source", id)
		}
	}
}

// TestLazyRandFirstDrawAtLateTick draws from party 2 only when its timer
// fires at t=50, after the other parties' traffic (and the scheduler's
// own draws) has run, in production and in the reference configuration.
func TestLazyRandFirstDrawAtLateTick(t *testing.T) {
	const n, k, seed = 4, 6, 99
	for _, reference := range []bool{false, true} {
		net, err := New(Config{N: n, Scheduler: randomSched{}, Seed: seed, Reference: reference})
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		var late Time
		for i := 0; i < n; i++ {
			proc := &funcProc{}
			if i == 2 {
				var api API
				proc.init = func(a API) { api = a; a.Multicast([]byte{2}); a.SetTimer(50, 7) }
				proc.timer = func(uint64) {
					late = net.Now()
					drawInto(&got, api, k)
					api.Decide(0)
				}
			} else {
				proc.init = func(a API) { a.Multicast([]byte{1}); a.Decide(0) }
			}
			if err := net.SetProcess(PartyID(i), proc); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if late != 50 {
			t.Fatalf("reference=%v: party 2's timer fired at %d, want 50", reference, late)
		}
		if want := freshDraws(seed, 2, k); !slices.Equal(got, want) {
			t.Errorf("reference=%v: late first draw %v, want the fresh source's %v", reference, got, want)
		}
	}
}

// TestLazyRandAcrossRecycledRuns runs one Network through runs of changing
// seed and size. Each run's drawing parties must see their fresh streams:
// a party first drawing in a later run, a party that drew in an earlier run
// (whose source must not continue the old stream), a record created by a
// grow, and a record that drew, sat beyond N through a shrink, and returns.
func TestLazyRandAcrossRecycledRuns(t *testing.T) {
	const k = 4
	runs := []struct {
		n    int
		seed int64
		draw []int
	}{
		{3, 5, []int{0}},
		{5, 9, []int{0, 1, 4}},
		{5, 9, []int{4}},
		{2, 6, nil},
		{5, 7, []int{4, 2}},
	}
	net, err := New(Config{N: runs[0].n, Scheduler: randomSched{}, Seed: runs[0].seed})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if err := net.Reset(Config{N: r.n, Scheduler: randomSched{}, Seed: r.seed}); err != nil {
			t.Fatal(err)
		}
		got := attachDrawers(t, net, r.n, k, r.draw...)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		checkDraws(t, fmt.Sprintf("run %d", i), r.seed, got, k, r.draw...)
	}
	if net.allParties[3].rng != nil {
		t.Error("party 3 never drew in any run but its record holds a source")
	}
}
