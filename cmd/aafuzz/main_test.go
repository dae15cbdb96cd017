package main

import (
	"bytes"
	"hash/fnv"
	"io"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/incident"
)

func TestRunSmallBudget(t *testing.T) {
	if err := run([]string{"-trials", "20", "-scenario-trials", "40", "-seed", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioTrialsOnly(t *testing.T) {
	if err := run([]string{"-trials", "0", "-scenario-trials", "60", "-seed", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeterministicOutput pins that one seed prints one report: the
// output, with the elapsed time masked, hashes to a constant. The
// registry's name lists fix every fuzz draw, so reordering one moves the
// hash too.
func TestRunDeterministicOutput(t *testing.T) {
	const want = 0x500ffb9a454059d3
	var buf bytes.Buffer
	if err := run([]string{"-trials", "200", "-scenario-trials", "400", "-seed", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := regexp.MustCompile(`in [0-9.]+s`).ReplaceAllString(buf.String(), "in Xs")
	h := fnv.New64a()
	io.WriteString(h, out)
	if got := h.Sum64(); got != want {
		t.Errorf("output hash %#016x, want %#016x:\n%s", got, uint64(want), out)
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestArtifactFromForcedFailure pins the failure-artifact path: a violation
// record for a run that dies on the event budget must produce a loadable
// incident bundle whose replay reproduces the same failed execution.
// (A healthy tree yields no organic violations, so the failure is forced
// through a starved event budget — the same record/capture/save path a
// real violation takes.)
func TestArtifactFromForcedFailure(t *testing.T) {
	dir := t.TempDir()
	v := harness.FuzzViolation{
		Trial:      7,
		Desc:       "forced event-budget failure",
		Proto:      core.ProtoCrash,
		N:          7,
		T:          2,
		Eps:        1e-3,
		Lo:         0,
		Hi:         1,
		SchedToken: "random",
		Seed:       99,
		MaxEvents:  60,
		Inputs:     harness.LinearInputs(7, 0, 1),
	}
	path, err := writeArtifact(dir, "fuzz", v)
	if err != nil {
		t.Fatal(err)
	}

	b, err := incident.Load(path)
	if err != nil {
		t.Fatalf("artifact not loadable: %v", err)
	}
	if b.Name != "fuzz-trial-7" || b.Digest.RunErr != incident.RunEventBudget {
		t.Fatalf("artifact %q has run verdict %d", b.Name, b.Digest.RunErr)
	}
	if _, div, err := incident.Replay(b); err != nil || div != nil {
		t.Fatalf("artifact replay: div=%v err=%v", div, err)
	}
}

// TestWriteArtifactsBestEffort pins that artifact emission never panics on
// an unwritable directory or a record that does not lower.
func TestWriteArtifactsBestEffort(t *testing.T) {
	writeArtifacts(io.Discard, "", "fuzz", []harness.FuzzViolation{{Trial: 1}})
	writeArtifacts(io.Discard, t.TempDir(), "fuzz", []harness.FuzzViolation{{
		Trial: 2, Desc: "unresolvable", SchedToken: "warpdrive", N: 5, T: 1,
	}})
}
