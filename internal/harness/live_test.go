package harness

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livenet"
	"repro/internal/relnet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// liveCase is one run LowerLive is asked for: a recipe on the crash
// protocol at MinN, or on witness at MinN when the fault is Byzantine.
type liveCase struct {
	scenario string // scheduler and fault tokens, without /n=,t=
	byz      bool   // a Byzantine fault: run witness, which tolerates it
	reliable bool
	adaptive bool // a rolled-back party re-learns the gap only adaptively
	o        Overrides
}

func (c liveCase) recipe() Recipe {
	proto := core.ProtoCrash
	if c.byz {
		proto = core.ProtoWitness
	}
	n := core.MinN(proto, 1)
	return Recipe{
		Scenario: fmt.Sprintf("%s/n=%d,t=1", c.scenario, n), Protocol: proto.Token(), Eps: 1e-3, Lo: 0, Hi: 1, Seed: 3,
		Inputs: UniformInputs(n, 0, 1, 3), Overrides: c.o, Reliable: c.reliable, Adaptive: c.adaptive,
	}
}

// TestRecipeLiveTokens walks every scheduler and fault token of the
// scenario registry, and both kinds of override, through LowerLive, with
// the processes built on a fresh run context. A token the live runtime
// runs runs once at small n, and its verdict holds; any other token is an
// error that names it. A registry token with no entry here fails the test,
// so a new token must decide what it means live. Every case runs at
// opts.Tick = 10µs, so a scheduler's delays of up to its cap of 400 ticks
// stay within 4 ms; the windows open within 40 ticks (0.4 ms) and last
// long enough that a party is still undecided when they open, so each
// fires: flap and outage drop sends, recover and amnesia restart their
// party.
func TestRecipeLiveTokens(t *testing.T) {
	runs := map[string]liveCase{
		"random":     {scenario: "random"},
		"sync":       {scenario: "sync"},
		"skew":       {scenario: "skew"},
		"partition":  {scenario: "partition"},
		"splitviews": {scenario: "splitviews"},
		"staggered":  {scenario: "staggered"},
		"heavytail":  {scenario: "heavytail"},
		"unordered":  {scenario: "unordered"},
		"fifo":       {scenario: "fifo"},
		"silent":     {scenario: "random+silent", byz: true},
		"extreme":    {scenario: "random+extreme", byz: true},
		"equivocate": {scenario: "random+equivocate", byz: true},
		"spam":       {scenario: "random+spam", byz: true},
		"amplifier":  {scenario: "random+amplifier", byz: true},
		"loss":       {scenario: "random+loss:0.2", reliable: true},
		"dup":        {scenario: "random+dup:0.2", reliable: true},
		"flap":       {scenario: "random+flap:1000", reliable: true},
		"outage":     {scenario: "random+outage:1:0:1000", reliable: true},
		"recover":    {scenario: "random+recover:1:5:0", reliable: true, adaptive: true},
		// Amnesia forgets every delivery since Init, and relnet does not
		// resend a frame it saw acked, so a party that delivered before its
		// kill can stall, in the simulator too. An outage of the whole
		// network from tick 0 to past the kill rules that out.
		"amnesia": {scenario: "random+outage:3:0:400+amnesia:1:5", reliable: true, adaptive: true},
		"Overrides.Byz": {scenario: "random", byz: true,
			o: Overrides{Byz: []ByzRef{{Party: 2, Name: "equivocate"}}}},
		"Reliable": {scenario: "random+silent", byz: true, reliable: true},
	}
	rejects := map[string]liveCase{
		"random:5":  {scenario: "random:5"},
		"crash":     {scenario: "random+crash"},
		"crashinit": {scenario: "random+crashinit"},
		"Overrides.Crashes": {scenario: "random",
			o: Overrides{Crashes: []sim.CrashPlan{{Party: 1, AfterSends: 2}}}},
		// Not a token: an error the simulator gives too names the recipe's
		// own scenario, not the unit delay random lowers to live.
		"random+silent": {scenario: "random+silent", byz: true,
			o: Overrides{Byz: []ByzRef{{Party: 2, Name: "extreme"}}}},
	}
	for _, tok := range append(scenario.SchedulerNames(), scenario.FaultNames()...) {
		_, run := runs[tok]
		_, reject := rejects[tok]
		if run == reject {
			t.Errorf("registry token %q: runs live %v, rejected %v; decide what it means live", tok, run, reject)
		}
	}
	for tok, c := range rejects {
		_, _, _, err := c.recipe().LowerLive()
		if err == nil || !strings.Contains(err.Error(), tok) {
			t.Errorf("%s: LowerLive() error %v, want one naming it", tok, err)
		}
	}
	for tok, c := range runs {
		t.Run(tok, func(t *testing.T) {
			t.Parallel()
			r := c.recipe()
			spec, opts, judged, err := r.LowerLive()
			if err != nil {
				t.Fatal(err)
			}
			procs, err := NewRunContext().liveProcs(spec)
			if err != nil {
				t.Fatal(err)
			}
			byz := spec.Byz
			if c.byz != (len(byz) == 1) || len(judged) != len(procs)-len(byz) || opts.WaitFor != len(judged) {
				t.Fatalf("%d Byzantine, %d judged of %d, WaitFor %d", len(byz), len(judged), len(procs), opts.WaitFor)
			}
			for id := range byz {
				if slices.Contains(judged, id) {
					t.Fatalf("Byzantine party %d is judged", id)
				}
			}
			window := strings.Contains(c.scenario, "+flap") || strings.Contains(c.scenario, "+outage")
			restart := tok == "recover" || tok == "amnesia"
			if opts.Sched == nil || restart != (len(opts.Restarts) == 1) {
				t.Fatalf("options %+v", opts)
			}
			for i, p := range procs {
				_, wrapped := p.(*relnet.Proc)
				if _, isByz := byz[sim.PartyID(i)]; wrapped != (c.reliable && !isByz) {
					t.Fatalf("party %d (Byzantine %v) wrapped in relnet: %v", i, isByz, wrapped)
				}
			}
			opts.MaxJitter, opts.Tick = 200*time.Microsecond, 10*time.Microsecond
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := livenet.Run(ctx, procs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if v := Judge(r.Inputs, byz, judged, res.Decisions, r.Eps); !v.ValidityOK || !v.AgreementOK {
				t.Fatalf("verdict %+v on decisions %v", v, res.Decisions)
			}
			if (tok == "loss" || window) && res.Dropped == 0 || tok == "dup" && res.Duped == 0 || restart && res.Restarts == 0 {
				t.Errorf("%s axis in %v: dropped %d, duped %d, restarts %d", tok, res.Elapsed, res.Dropped, res.Duped, res.Restarts)
			}
		})
	}
}

// TestRunLivePooledShapes runs the pooled live runner back to back on
// changing shapes, so that each run after the first draws a run context
// and a livenet network that a different shape used last: protocol, n,
// transport, Byzantine cohort and restart plans all change, and the last
// run repeats the first. Every run must be valid and agreed. The restart
// case checkpoints at its kill (lag 0): a party restarted from a stale
// checkpoint can stall (ROADMAP item 17).
func TestRunLivePooledShapes(t *testing.T) {
	shapes := []struct {
		scenario, proto    string
		reliable, adaptive bool
	}{
		{scenario: "random/n=32,t=10", proto: "crash"},
		{scenario: "random+loss:0.1/n=10,t=3", proto: "crash", reliable: true},
		{scenario: "random+equivocate/n=4,t=1", proto: "witness"},
		{scenario: "random+recover:1:20:0/n=9,t=2", proto: "crash", reliable: true, adaptive: true},
		{scenario: "random/n=32,t=10", proto: "crash"},
	}
	for i, s := range shapes {
		scen, err := scenario.Parse(s.scenario)
		if err != nil {
			t.Fatal(err)
		}
		r := Recipe{Scenario: s.scenario, Protocol: s.proto, Eps: 1e-3, Lo: 0, Hi: 1, Seed: int64(i + 1),
			Inputs: UniformInputs(scen.N, 0, 1, int64(i+1)), Reliable: s.reliable, Adaptive: s.adaptive}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		res, v, err := r.RunLive(ctx, 200*time.Microsecond, 10*time.Microsecond)
		cancel()
		if err != nil {
			t.Fatalf("run %d (%s %s): %v", i, s.proto, s.scenario, err)
		}
		if !v.ValidityOK || !v.AgreementOK {
			t.Errorf("run %d (%s %s): verdict %+v on decisions %v", i, s.proto, s.scenario, v, res.Decisions)
		}
	}
}
