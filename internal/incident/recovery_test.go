package incident

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/harness"
)

// recoveryBundle returns an un-captured bundle config for a crash-recovery
// run: two parties checkpoint, crash with rollback lag, and rejoin through
// the adaptive DECIDED re-announce over the reliable transport.
func recoveryBundle() *Bundle {
	return &Bundle{
		Name: "recovery-capture-test",
		Recipe: harness.Recipe{
			Scenario:  "random+recover:2:50:30/n=9,t=2",
			Protocol:  core.ProtoCrash.Token(),
			Adaptive:  true,
			Eps:       1e-3,
			Lo:        0,
			Hi:        1,
			Seed:      7,
			MaxEvents: 20_000_000,
			Reliable:  true,
			Inputs:    harness.LinearInputs(9, 0, 1),
		},
	}
}

// TestRecoveryCaptureReplayV3 pins the version-3 loop end to end: capture
// records the snapshot content digests, the bundle encodes as version 3,
// survives a codec round trip, and replays with zero divergence.
func TestRecoveryCaptureReplayV3(t *testing.T) {
	b := recoveryBundle()
	rep, err := Capture(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("capture run failed: %s", rep.Failure())
	}
	if len(b.Checkpoints) != 2 {
		t.Fatalf("recorded %d checkpoint digests, want 2 (one per restart plan)", len(b.Checkpoints))
	}
	for i, ck := range b.Checkpoints {
		if ck == 0 {
			t.Fatalf("checkpoint digest %d is zero", i)
		}
	}

	data, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != versionRecover {
		t.Fatalf("recovery bundle encoded as version %d, want %d", v, versionRecover)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", b, got)
	}

	if _, div, err := Replay(got); err != nil || div != nil {
		t.Fatalf("recovery replay: div=%v err=%v", div, err)
	}
}

// TestReplayDetectsMutatedCheckpoint pins that tampering with a recorded
// snapshot digest is reported by name, without a bad send (the trace itself
// still matches).
func TestReplayDetectsMutatedCheckpoint(t *testing.T) {
	b := recoveryBundle()
	if _, err := Capture(b); err != nil {
		t.Fatal(err)
	}
	b.Checkpoints[0] ^= 1
	_, div, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil || len(div.Mismatches) == 0 {
		t.Fatal("checkpoint tampering not detected")
	}
	if div.FirstBadSend != NoDivergentSend {
		t.Fatalf("unexpected bad send %d", div.FirstBadSend)
	}
	found := false
	for _, m := range div.Mismatches {
		if strings.Contains(m, "checkpoint") {
			found = true
		}
	}
	if !found {
		t.Fatalf("divergence does not name the checkpoint: %v", div.Mismatches)
	}
}

// TestRecoveryBundleValidation covers the v3-specific Validate rules.
func TestRecoveryBundleValidation(t *testing.T) {
	b := recoveryBundle()
	if _, err := Capture(b); err != nil {
		t.Fatal(err)
	}
	b.Checkpoints[1] = 0
	if err := b.Validate(); !errors.Is(err, frame.ErrMalformed) {
		t.Fatalf("zero checkpoint digest accepted: %v", err)
	}
}

// TestNonRecoveryBundleStaysPreV3 pins the corpus-stability contract: a
// bundle without checkpoint digests must not encode as version 3, so the
// committed v1/v2 corpus re-encodes byte-identically.
func TestNonRecoveryBundleStaysPreV3(t *testing.T) {
	b := testBundle()
	if _, err := Capture(b); err != nil {
		t.Fatal(err)
	}
	if len(b.Checkpoints) != 0 {
		t.Fatalf("non-recovery run recorded %d checkpoint digests", len(b.Checkpoints))
	}
	data, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v >= versionRecover {
		t.Fatalf("checkpoint-free bundle encoded as version %d", v)
	}
}
