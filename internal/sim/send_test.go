package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relnet"
	"repro/internal/sim"
)

// strayProc multicasts its ID at Init and answers each delivery with a send
// to stray, a party outside [0, N), when strays is set; it replies to the
// sender of its first two deliveries and decides after need of them.
type strayProc struct {
	api        sim.API
	stray      sim.PartyID
	strays     bool
	need, got  int
	reply, bad [1]byte
}

func (p *strayProc) Init(api sim.API) {
	p.api = api
	p.reply, p.bad = [1]byte{byte(api.ID())}, [1]byte{0xee}
	api.Multicast(p.reply[:])
}

func (p *strayProc) Deliver(from sim.PartyID, _ []byte) {
	p.got++
	if p.strays {
		p.api.Send(p.stray, p.bad[:])
	}
	if p.got <= 2 {
		p.api.Send(from, p.reply[:])
	}
	if p.got == p.need {
		p.api.Decide(float64(p.api.ID()))
	}
}

// unitDelay delivers every send one tick later, so each Init multicast
// lands in one dense tick of n² entries.
type unitDelay struct{}

func (unitDelay) Fate(*sim.Envelope, *rand.Rand) sim.Fate { return sim.Fate{Delay: 1} }

// strayRun runs n strayProcs, wrapped in relnet when wrap is set, with
// party 0 on a crash budget a charged stray send would exhaust early. It
// returns the result and the summed transport counters.
func strayRun(t *testing.T, n int, reference, wrap bool, stray sim.PartyID, strays bool) (*sim.Result, relnet.Stats) {
	t.Helper()
	net, err := sim.New(sim.Config{N: n, Scheduler: unitDelay{}, Seed: 3, Reference: reference,
		Crashes: []sim.CrashPlan{{Party: 0, AfterSends: n + 2}}})
	if err != nil {
		t.Fatal(err)
	}
	var procs []*relnet.Proc
	for i := 0; i < n; i++ {
		var proc sim.Process = &strayProc{stray: stray, strays: strays, need: n - 1}
		if wrap {
			rp := relnet.Wrap(proc)
			procs = append(procs, rp)
			proc = rp
		}
		if err := net.SetProcess(sim.PartyID(i), proc); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	var st relnet.Stats
	for _, rp := range procs {
		st.Add(rp.TransportStats())
	}
	return res, st
}

// TestSendOutOfRangeDropped pins that a send to a party outside [0, N) is
// dropped before it is counted, sequenced or charged to a crash budget:
// a run whose parties also send to -1 or N matches, decision for decision
// and counter for counter, the run without those sends. It covers the
// per-envelope path (the reference configuration, and production at n=6,
// whose ticks stay under the batching threshold), production's batched
// path (n=20, so the Init multicasts make a 400-entry tick), and both
// again with every party wrapped in relnet.
func TestSendOutOfRangeDropped(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		for _, c := range []struct {
			name      string
			n         int
			reference bool
		}{{"reference", 20, true}, {"sparse", 6, false}, {"batched", 20, false}} {
			for _, stray := range []sim.PartyID{-1, sim.PartyID(c.n)} {
				t.Run(fmt.Sprintf("relnet=%v/%s/to=%d", wrap, c.name, stray), func(t *testing.T) {
					want, wantSt := strayRun(t, c.n, c.reference, wrap, stray, false)
					got, gotSt := strayRun(t, c.n, c.reference, wrap, stray, true)
					if got.Stats != want.Stats || got.FinishTime != want.FinishTime {
						t.Errorf("stats %+v finish %d, without stray sends %+v finish %d",
							got.Stats, got.FinishTime, want.Stats, want.FinishTime)
					}
					if !reflect.DeepEqual(got.Decisions, want.Decisions) {
						t.Errorf("decisions %v, without stray sends %v", got.Decisions, want.Decisions)
					}
					if gotSt != wantSt {
						t.Errorf("transport %+v, without stray sends %+v", gotSt, wantSt)
					}
				})
			}
		}
	}
}
