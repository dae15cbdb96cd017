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
	"repro/internal/scenario"
	"repro/internal/sim"
)

// liveCase is one run Recipe.Live is asked for: a recipe on the crash
// protocol at MinN, or on witness at MinN when the fault is Byzantine.
type liveCase struct {
	scenario string // scheduler and fault tokens, without /n=,t=
	byz      bool   // a Byzantine fault: run witness, which tolerates it
	reliable bool
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
		Inputs: UniformInputs(n, 0, 1, 3), Overrides: c.o, Reliable: c.reliable,
	}
}

// TestRecipeLiveTokens walks every scheduler and fault token of the
// scenario registry, and both kinds of override, through Recipe.Live. A
// token the live runtime runs runs once at small n, and its verdict
// holds; any other token is an error that names it. A registry token with
// no entry here fails the test, so a new token must decide what it means
// live.
func TestRecipeLiveTokens(t *testing.T) {
	runs := map[string]liveCase{
		"random":     {scenario: "random"},
		"silent":     {scenario: "random+silent", byz: true},
		"extreme":    {scenario: "random+extreme", byz: true},
		"equivocate": {scenario: "random+equivocate", byz: true},
		"spam":       {scenario: "random+spam", byz: true},
		"amplifier":  {scenario: "random+amplifier", byz: true},
		"loss":       {scenario: "random+loss:0.2", reliable: true},
		"dup":        {scenario: "random+dup:0.2", reliable: true},
		"Overrides.Byz": {scenario: "random", byz: true,
			o: Overrides{Byz: []ByzRef{{Party: 2, Name: "equivocate"}}}},
	}
	rejects := map[string]liveCase{
		"sync":       {scenario: "sync"},
		"skew":       {scenario: "skew"},
		"partition":  {scenario: "partition"},
		"splitviews": {scenario: "splitviews"},
		"staggered":  {scenario: "staggered"},
		"heavytail":  {scenario: "heavytail"},
		"unordered":  {scenario: "unordered"},
		"fifo":       {scenario: "fifo"},
		"random:5":   {scenario: "random:5"},
		"crash":      {scenario: "random+crash"},
		"crashinit":  {scenario: "random+crashinit"},
		"outage":     {scenario: "random+outage"},
		"flap":       {scenario: "random+flap"},
		"recover":    {scenario: "random+recover"},
		"amnesia":    {scenario: "random+amnesia"},
		"Overrides.Crashes": {scenario: "random",
			o: Overrides{Crashes: []sim.CrashPlan{{Party: 1, AfterSends: 2}}}},
		"Reliable": {scenario: "random+silent", byz: true, reliable: true},
	}
	for _, tok := range append(scenario.SchedulerNames(), scenario.FaultNames()...) {
		_, run := runs[tok]
		_, reject := rejects[tok]
		if run == reject {
			t.Errorf("registry token %q: runs live %v, rejected %v; decide what it means live", tok, run, reject)
		}
	}
	for tok, c := range rejects {
		_, _, _, _, err := c.recipe().Live()
		if err == nil || !strings.Contains(err.Error(), tok) {
			t.Errorf("%s: Live() error %v, want one naming it", tok, err)
		}
	}
	for tok, c := range runs {
		t.Run(tok, func(t *testing.T) {
			t.Parallel()
			r := c.recipe()
			procs, opts, byz, judged, err := r.Live()
			if err != nil {
				t.Fatal(err)
			}
			if c.byz != (len(byz) == 1) || len(judged) != len(procs)-len(byz) || opts.WaitFor != len(judged) {
				t.Fatalf("%d Byzantine, %d judged of %d, WaitFor %d", len(byz), len(judged), len(procs), opts.WaitFor)
			}
			for id := range byz {
				if slices.Contains(judged, id) {
					t.Fatalf("Byzantine party %d is judged", id)
				}
			}
			if (tok == "loss") != (opts.Loss > 0) || (tok == "dup") != (opts.Dup > 0) || opts.Reliable != c.reliable {
				t.Fatalf("options %+v", opts)
			}
			opts.MaxJitter = 200 * time.Microsecond
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := livenet.Run(ctx, procs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if v := Judge(r.Inputs, byz, judged, res.Decisions, r.Eps); !v.ValidityOK || !v.AgreementOK {
				t.Fatalf("verdict %+v on decisions %v", v, res.Decisions)
			}
			if tok == "loss" && res.Dropped == 0 || tok == "dup" && res.Duped == 0 {
				t.Errorf("%s axis: dropped %d, duped %d", tok, res.Dropped, res.Duped)
			}
		})
	}
}
