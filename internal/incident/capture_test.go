package incident

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
)

// testBundle returns an un-captured bundle config for a small crash run.
func testBundle() *Bundle {
	return &Bundle{
		Name: "capture-test",
		Recipe: harness.Recipe{
			Scenario: "random/n=7,t=2",
			Protocol: core.ProtoCrash.Token(),
			Eps:      1e-3,
			Lo:       0,
			Hi:       1,
			Seed:     424242,
			Inputs:   harness.LinearInputs(7, 0, 1),
			Overrides: harness.Overrides{
				Crashes: []sim.CrashPlan{{Party: 0, AfterSends: 10}},
			},
		},
	}
}

func TestCaptureThenReplayMatches(t *testing.T) {
	b := testBundle()
	rep, err := Capture(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("capture run failed: %s", rep.Failure())
	}
	if len(b.Delays) == 0 || len(b.SendSums) != len(b.Delays) {
		t.Fatalf("trace not captured: %d delays, %d sums", len(b.Delays), len(b.SendSums))
	}
	if len(b.Digest.Decisions) == 0 {
		t.Fatal("no decisions recorded")
	}

	replayRep, div, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("replay diverged: %v", div.Error())
	}
	if replayRep.Result.FinishTime != rep.Result.FinishTime {
		t.Fatalf("finish time %d vs %d", replayRep.Result.FinishTime, rep.Result.FinishTime)
	}

	// The full loop survives serialization.
	data, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, div, err := Replay(b2); err != nil || div != nil {
		t.Fatalf("decoded bundle replay: div=%v err=%v", div, err)
	}
}

// TestCaptureFailingRun pins that a non-OK execution (event budget abort)
// is captured and replays to the same verdict.
func TestCaptureFailingRun(t *testing.T) {
	b := testBundle()
	b.MaxEvents = 50
	rep, err := Capture(b)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.RunErr, sim.ErrEventBudget) {
		t.Fatalf("run verdict %v, want event budget", rep.RunErr)
	}
	if b.Digest.RunErr != RunEventBudget {
		t.Fatalf("digest run-error code %d", b.Digest.RunErr)
	}
	if _, div, err := Replay(b); err != nil || div != nil {
		t.Fatalf("failing-run replay: div=%v err=%v", div, err)
	}
}

// TestReplayDetectsMutatedDelay is the acceptance criterion: perturbing one
// recorded delay changes the interleaving, and the diff names the first
// send whose content diverged.
func TestReplayDetectsMutatedDelay(t *testing.T) {
	b := testBundle()
	if _, err := Capture(b); err != nil {
		t.Fatal(err)
	}

	// Stretch one mid-run delay far enough to reorder quorum assembly.
	mut := b.Delays[len(b.Delays)/3]
	b.Delays[len(b.Delays)/3] = mut + 5000

	_, div, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("mutated bundle replayed without divergence")
	}
	if div.FirstBadSend == NoDivergentSend {
		t.Fatalf("divergence reported without a first bad send: %v", div.Error())
	}
	if len(div.Mismatches) == 0 {
		t.Fatal("divergence carries no field mismatches")
	}
	if !errors.Is(div.Error(), ErrDivergence) {
		t.Fatalf("divergence error %v does not wrap ErrDivergence", div.Error())
	}
	t.Logf("divergence: %v", div.Error())
}

// TestReplayDetectsMutatedDigest pins that pure digest tampering (without
// touching the trace) is also reported.
func TestReplayDetectsMutatedDigest(t *testing.T) {
	b := testBundle()
	if _, err := Capture(b); err != nil {
		t.Fatal(err)
	}
	b.Digest.DeliveryHash ^= 1
	_, div, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil || len(div.Mismatches) == 0 {
		t.Fatal("digest tampering not detected")
	}
	// Sends themselves matched; the digest caught it.
	if div.FirstBadSend != NoDivergentSend {
		t.Fatalf("unexpected bad send %d", div.FirstBadSend)
	}
}

// TestCaptureByzantineScenario exercises the explicit-Byz override path.
func TestCaptureByzantineScenario(t *testing.T) {
	b := &Bundle{
		Name: "byz-test",
		Recipe: harness.Recipe{
			Scenario: "skew/n=15,t=2",
			Protocol: core.ProtoByzTrim.Token(),
			Eps:      1e-2,
			Lo:       0,
			Hi:       1,
			Seed:     7,
			Inputs:   harness.LinearInputs(15, 0, 1),
			Overrides: harness.Overrides{
				Byz: []harness.ByzRef{{Party: 0, Name: "equivocate"}, {Party: 1, Name: "spam"}},
			},
		},
	}
	rep, err := Capture(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("byz capture run failed: %s", rep.Failure())
	}
	if _, div, err := Replay(b); err != nil || div != nil {
		t.Fatalf("byz replay: div=%v err=%v", div, err)
	}
}
