package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/sim"
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

// TestArtifactFromForcedFailure pins the failure-artifact path for both
// fuzzers' recipe forms: a violation whose run dies on the event budget
// must produce a loadable incident bundle whose replay reproduces the same
// failed execution. The protocol-fuzzer form names its scheduler with a
// fault-free scenario and carries explicit fault overrides; the
// scenario-fuzzer form carries party-fault tokens and a network axis in the
// scenario and runs on the reliable transport. (A healthy tree yields no
// organic violations, so the failure is forced through a starved event
// budget — the same record/capture/save path a real violation takes.)
func TestArtifactFromForcedFailure(t *testing.T) {
	cases := []struct {
		kind string
		v    harness.FuzzViolation
	}{
		{"fuzz", harness.FuzzViolation{
			Trial: 7,
			Desc:  "forced event-budget failure",
			Recipe: harness.Recipe{
				Scenario:  "random/n=7,t=2",
				Protocol:  core.ProtoCrash.Token(),
				Eps:       1e-3,
				Lo:        0,
				Hi:        1,
				Seed:      99,
				MaxEvents: 60,
				Inputs:    harness.LinearInputs(7, 0, 1),
				Overrides: harness.Overrides{Crashes: []sim.CrashPlan{{Party: 1, AfterSends: 9}}},
			},
		}},
		{"scenario", harness.FuzzViolation{
			Trial: 3,
			Desc:  "forced event-budget failure on a lossy composition",
			Recipe: harness.Recipe{
				Scenario:  "skew+equivocate+spam+loss:0.05/n=10,t=3",
				Protocol:  core.ProtoWitness.Token(),
				Eps:       1e-2,
				Lo:        0,
				Hi:        1,
				Seed:      4242,
				MaxEvents: 400,
				Inputs:    harness.LinearInputs(10, 0, 1),
				Reliable:  true,
			},
		}},
	}
	for _, tc := range cases {
		path, err := writeArtifact(t.TempDir(), tc.kind, tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		b, err := incident.Load(path)
		if err != nil {
			t.Fatalf("%s: artifact not loadable: %v", tc.kind, err)
		}
		if want := fmt.Sprintf("%s-trial-%d", tc.kind, tc.v.Trial); b.Name != want || b.Digest.RunErr != incident.RunEventBudget {
			t.Fatalf("%s: artifact %q has run verdict %d", tc.kind, b.Name, b.Digest.RunErr)
		}
		if !reflect.DeepEqual(b.Recipe, tc.v.Recipe) {
			t.Fatalf("%s: bundle recipe %+v, violation recipe %+v", tc.kind, b.Recipe, tc.v.Recipe)
		}
		if _, div, err := incident.Replay(b); err != nil || div != nil {
			t.Fatalf("%s: artifact replay: div=%v err=%v", tc.kind, div, err)
		}
	}
}

// TestWriteArtifactsBestEffort pins that artifact emission never panics on
// an unwritable directory or a recipe that does not lower.
func TestWriteArtifactsBestEffort(t *testing.T) {
	writeArtifacts(io.Discard, "", "fuzz", []harness.FuzzViolation{{Trial: 1}})
	writeArtifacts(io.Discard, t.TempDir(), "fuzz", []harness.FuzzViolation{{
		Trial: 2, Desc: "unresolvable", Recipe: harness.Recipe{Scenario: "warpdrive/n=5,t=1"},
	}})
}
