// Command aafuzz randomly searches the adversarial configuration space —
// protocols, fault plans, schedulers, input shapes, seeds — for invariant
// violations (lost liveness, hull-validity breaks, missed ε-agreement).
// It prints a reproduction description for anything it finds and exits
// non-zero. A healthy tree survives any budget:
//
//	aafuzz -trials 5000 -seed 42
//
// It also fuzzes the scenario registry (internal/scenario): random spec
// compositions — many deliberately invalid — are driven through the
// Parse → String → re-parse round trip and Resolve, and random valid
// compositions are run end-to-end under the invariant checks. The
// contract under test: a bad scenario fails at spec time, never mid-run,
// and a good one never drifts through the string form. -scenario-trials
// sets that budget separately.
//
// -artifacts DIR turns every failing trial into a replayable incident
// bundle (internal/incident) written under DIR, and prints the one-line
// `aarun -replay` command that reproduces it exactly — the same
// interleaving, send for send.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/incident"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aafuzz:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("aafuzz", flag.ContinueOnError)
	trials := fs.Int("trials", 1000, "number of randomized executions")
	scenarioTrials := fs.Int("scenario-trials", 400, "number of randomized scenario-registry compositions")
	seed := fs.Int64("seed", time.Now().UnixNano(), "search seed (printed for reproduction)")
	artifacts := fs.String("artifacts", "", "directory for failing-trial incident bundles (created if needed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenarioTrials > 0 {
		fmt.Fprintf(w, "fuzzing scenario registry: %d compositions with seed %d\n", *scenarioTrials, *seed)
		sres, err := harness.FuzzScenarios(*scenarioTrials, *seed)
		if err != nil {
			return fmt.Errorf("scenario registry contract: %w", err)
		}
		fmt.Fprintf(w, "scenario specs: %d valid, %d rejected at spec time; %d run end-to-end\n",
			sres.Registry.Valid, sres.Registry.Invalid, sres.Runs)
		if len(sres.Violations) > 0 {
			for _, v := range sres.Violations {
				fmt.Fprintln(w, "VIOLATION:", v)
			}
			writeArtifacts(w, *artifacts, "scenario", sres.Failures)
			return fmt.Errorf("%d scenario invariant violations", len(sres.Violations))
		}
	}
	fmt.Fprintf(w, "fuzzing %d trials with seed %d\n", *trials, *seed)
	start := time.Now()
	res, err := harness.Fuzz(*trials, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ran %d trials in %.1fs:", res.Trials, time.Since(start).Seconds())
	protos := make([]string, 0, len(res.ByProtocol))
	for proto := range res.ByProtocol {
		protos = append(protos, proto)
	}
	sort.Strings(protos)
	for _, proto := range protos {
		fmt.Fprintf(w, " %s=%d", proto, res.ByProtocol[proto])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "rounds:   %s\n", res.Rounds)
	fmt.Fprintf(w, "messages: %s\n", res.Messages)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(w, "VIOLATION:", v)
		}
		writeArtifacts(w, *artifacts, "fuzz", res.Failures)
		return fmt.Errorf("%d invariant violations", len(res.Violations))
	}
	fmt.Fprintln(w, "no invariant violations")
	return nil
}

// writeArtifacts captures each failing trial as an incident bundle under
// dir and prints the replay command. Artifact failures are reported but
// never mask the violation exit: the fuzzer's verdict stands even when a
// repro cannot be written.
func writeArtifacts(w io.Writer, dir, kind string, failures []harness.FuzzViolation) {
	if dir == "" || len(failures) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "aafuzz: artifacts dir: %v\n", err)
		return
	}
	for _, v := range failures {
		path, err := writeArtifact(dir, kind, v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aafuzz: artifact for trial %d: %v\n", v.Trial, err)
			continue
		}
		fmt.Fprintf(w, "reproduce: aarun -replay %s\n", path)
	}
}

// writeArtifact captures one violation's recipe into dir and returns the
// bundle path.
func writeArtifact(dir, kind string, v harness.FuzzViolation) (string, error) {
	b := &incident.Bundle{Name: fmt.Sprintf("%s-trial-%d", kind, v.Trial), Recipe: v.Recipe}
	if _, err := incident.Capture(b); err != nil {
		return "", err
	}
	path := filepath.Join(dir, b.Name+incident.BundleExt)
	if err := incident.Save(b, path); err != nil {
		return "", err
	}
	return path, nil
}
