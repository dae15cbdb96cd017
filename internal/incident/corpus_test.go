package incident

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

func corpusDir() string {
	return filepath.Join("..", "..", "testdata", "incidents")
}

// TestIncidentCorpusReplayMatrix is the CI regression gate: every committed
// bundle must replay with zero divergence on three engines — production at
// one worker and at eight, and the reference. A regression in any
// equivalence-sensitive path (send sequencing, rng draw order, mid-tick
// completion, stats repair, trim/quorum logic) perturbs some episode's
// schedule and fails here with the episode name, the matrix cell, and the
// first divergent send sequence.
//
// Set INCIDENT_REGEN=1 to re-capture the corpus from the episode
// definitions before the matrix runs (used when an episode is added, never
// to paper over a divergence).
func TestIncidentCorpusReplayMatrix(t *testing.T) {
	dir := corpusDir()
	if os.Getenv("INCIDENT_REGEN") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, ep := range Episodes() {
			rep, err := Capture(ep)
			if err != nil {
				t.Fatalf("capture %s: %v", ep.Name, err)
			}
			t.Logf("captured %s: %d sends, verdict %q", ep.Name, len(ep.Delays), rep.Failure())
			if err := Save(ep, filepath.Join(dir, ep.Name+BundleExt)); err != nil {
				t.Fatalf("save %s: %v", ep.Name, err)
			}
		}
	}

	bundles, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading corpus: %v (run with INCIDENT_REGEN=1 to generate)", err)
	}
	if want := len(Episodes()); len(bundles) != want {
		t.Fatalf("corpus has %d bundles, episode list has %d", len(bundles), want)
	}

	for _, e := range []*harness.Engine{{Workers: 1}, {Workers: 8}, {Workers: 8, Reference: true}} {
		cell := fmt.Sprintf("reference=%v workers=%d", e.Reference, e.Workers)
		prepared := make([]*Prepared, len(bundles))
		specs := make([]harness.Spec, len(bundles))
		for i, b := range bundles {
			p, err := Prepare(b)
			if err != nil {
				t.Fatalf("%s: prepare %s: %v", cell, b.Name, err)
			}
			prepared[i] = p
			specs[i] = p.Spec
		}
		reps, err := e.RunAll(specs)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		for i, rep := range reps {
			if div := prepared[i].Diff(rep); div != nil {
				t.Errorf("%s: %s: %v", cell, bundles[i].Name, div.Error())
			}
		}
	}
}

// TestCorpusMutationDetected mutates a committed bundle in memory and
// asserts the replay matrix would catch it: the diff must name the first
// divergent send sequence.
func TestCorpusMutationDetected(t *testing.T) {
	bundles, err := LoadDir(corpusDir())
	if err != nil {
		t.Skipf("no corpus: %v", err)
	}
	// Pick the all-honest contraction episode: every mid-run message there
	// feeds a quorum, so stretching one delay must shift downstream sends
	// and pin a first divergent sequence. (In byz-heavy episodes a mutated
	// spam delay can replay clean — a message the recorded run never
	// delivered stays undelivered when pushed even later.)
	var b *Bundle
	for _, cand := range bundles {
		if cand.Name == "worst-case-contraction" {
			b = cand
			break
		}
	}
	if b == nil {
		t.Fatal("corpus is missing the worst-case-contraction episode")
	}
	seq := -1
	for i := len(b.Delays) / 3; i < len(b.Delays); i++ {
		if b.Delays[i] != 0 {
			seq = i
			break
		}
	}
	if seq < 0 {
		t.Fatalf("%s has no recorded delays past the first third", b.Name)
	}
	b.Delays[seq] += 5000

	_, div, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatalf("%s: mutated delay at seq %d replayed without divergence", b.Name, seq)
	}
	if div.FirstBadSend == NoDivergentSend {
		t.Fatalf("%s: divergence without a first bad send: %v", b.Name, div.Error())
	}
	t.Logf("%s: mutation at seq %d detected: %v", b.Name, seq, div.Error())
}

// TestCorpusEpisodeNamesUnique guards the regeneration path.
func TestCorpusEpisodeNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, ep := range Episodes() {
		if ep.Name == "" || seen[ep.Name] {
			t.Fatalf("episode name %q empty or duplicated", ep.Name)
		}
		seen[ep.Name] = true
		if err := ep.Validate(); err != nil {
			t.Errorf("episode %s invalid before capture: %v", ep.Name, err)
		}
	}
}

// TestCorpusReencodesByteIdentical pins the bundle format's bytes: every
// committed bundle must decode and encode back to exactly its own file.
// The replay matrix checks what a bundle means; this checks how it is
// written, so a codec rewrite that shifts one byte fails here.
func TestCorpusReencodesByteIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir(), "*"+BundleExt))
	if err != nil || len(paths) != len(Episodes()) {
		t.Fatalf("found %d corpus bundles for %d episodes (err %v)", len(paths), len(Episodes()), err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		enc, err := Encode(b)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if !bytes.Equal(enc, data) {
			t.Errorf("%s: re-encodes to %d bytes that differ from the file's %d", filepath.Base(path), len(enc), len(data))
		}
	}
}
