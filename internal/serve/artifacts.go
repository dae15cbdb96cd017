package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/harness"
	"repro/internal/incident"
)

// maxArtifacts bounds how many failure bundles one summary writes: the
// point is a handful of loadable repros, not a bundle per shed request
// during a four-times-saturation storm.
const maxArtifacts = 8

// artifactWorthy selects the outcomes worth a repro bundle: an instance
// actually ran (Attempts > 0) and the request still ended deadline-exceeded
// or degraded-partial, or its final attempt tripped the cohort breaker.
// Admission-time rejections (shed, breaker-open) never ran an instance, so
// there is nothing to replay.
func artifactWorthy(ro RequestOutcome) bool {
	if ro.Attempts == 0 {
		return false
	}
	return ro.Outcome == OutcomeDeadline || ro.Outcome == OutcomeDegraded || ro.Tripped
}

// WriteArtifacts captures the summary's failed instances as loadable
// incident bundles under dir — request scenario + last-attempt seed +
// derived inputs, re-executed on the simulator and digested exactly like
// `aafuzz -artifacts` failures — and prints a one-line repro per bundle to
// w. It returns the number of bundles written. Artifact failures are
// reported on the same writer but never abort the sweep: the service
// verdict stands even when a repro cannot be written.
func WriteArtifacts(dir string, sum *Summary, cfg Config, w io.Writer) int {
	if dir == "" || sum == nil {
		return 0
	}
	cfg = cfg.withDefaults()
	tok := cfg.params().Protocol.Token()
	var made bool
	written := 0
	for _, ro := range sum.Outcomes {
		if written >= maxArtifacts {
			fmt.Fprintf(w, "serve: artifacts: capped at %d bundles\n", maxArtifacts)
			break
		}
		if !artifactWorthy(ro) {
			continue
		}
		if !made {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(w, "serve: artifacts dir: %v\n", err)
				return 0
			}
			made = true
		}
		path, err := writeArtifact(dir, tok, cfg, ro)
		if err != nil {
			fmt.Fprintf(w, "serve: artifact for request %d: %v\n", ro.ID, err)
			continue
		}
		written++
		fmt.Fprintf(w, "request %d %s (attempts=%d): reproduce: aarun -replay %s\n",
			ro.ID, ro.Outcome, ro.Attempts, path)
	}
	return written
}

// writeArtifact captures one failed request as a bundle and returns its
// path. The bundle re-derives the instance's inputs from the recorded seed
// — the same derivation the engine used at dispatch — so the simulated
// repro is the exact instance the envelope saw (live-backend failures
// replay as their deterministic simulated twin).
func writeArtifact(dir, protoTok string, cfg Config, ro RequestOutcome) (string, error) {
	b := &incident.Bundle{
		Name:      fmt.Sprintf("serve-req-%d-%s", ro.ID, ro.Outcome),
		Scenario:  ro.Scenario,
		Protocol:  protoTok,
		Adaptive:  cfg.Adaptive,
		Eps:       cfg.Eps,
		Lo:        cfg.Lo,
		Hi:        cfg.Hi,
		Seed:      ro.Seed,
		MaxEvents: cfg.MaxEvents,
		Inputs:    harness.UniformInputs(cfg.N, cfg.Lo, cfg.Hi, ro.Seed),
		Reliable:  cfg.Reliable,
	}
	if _, err := incident.Capture(b); err != nil {
		return "", err
	}
	path := filepath.Join(dir, b.Name+incident.BundleExt)
	if err := incident.Save(b, path); err != nil {
		return "", err
	}
	return path, nil
}
