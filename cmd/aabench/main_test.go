package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

// tableHash folds one rendered table and the engine counters its runs
// added into one FNV-1a hash.
func tableHash(rendered []byte, runs harness.EngineStats) uint64 {
	h := fnv.New64a()
	h.Write(rendered)
	fmt.Fprintf(h, "%+v\n", runs)
	return h.Sum64()
}

// TestTablesPinned pins every table `aabench -seeds 1` prints, E1–E15, on
// a production engine at 1 and at 8 workers: each table's rendered text
// and the runs, messages and bytes its experiment put through the engine.
// A change that moves a value, a decision, a spread or the traffic of any
// experiment fails here, naming each table that moved with its new hash
// and text; a change that means to move them updates the constants below.
func TestTablesPinned(t *testing.T) {
	// Recorded against the aabench that still carried -json and -compare.
	want := map[string]uint64{
		"E1":  0xcb0a33f897c0e9c1,
		"E2":  0xdadfa05980b12ff8,
		"E3":  0x950eb765d2d88f2b,
		"E4":  0xce3f267bb5f55032,
		"E5":  0x6c3f44faed9872c7,
		"E6":  0xd59eb5c014127a8c,
		"E7":  0x9e5860c0344aff63,
		"E8":  0xf9fb68931a47d589,
		"E9":  0x00074bf4e2c0f59d,
		"E10": 0xe13c6151f904dd26,
		"E11": 0xfd89a83491dbec28,
		"E12": 0x79a54c3fc6dae0ac,
		"E13": 0xaa036f9478ab6551,
		"E14": 0x15d478cae50cd86d,
		"E15": 0xf715f48fb4a2b188,
	}
	for _, workers := range []int{1, 8} {
		e := &harness.Engine{Workers: workers}
		var seen []string
		for _, exp := range experiments(e, 1, false) {
			before := e.Stats()
			tbl, err := exp.Run()
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, exp.ID, err)
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			after := e.Stats()
			got := tableHash(buf.Bytes(), harness.EngineStats{
				Runs:              after.Runs - before.Runs,
				MessagesSent:      after.MessagesSent - before.MessagesSent,
				MessagesDelivered: after.MessagesDelivered - before.MessagesDelivered,
				BytesSent:         after.BytesSent - before.BytesSent,
			})
			seen = append(seen, exp.ID)
			if got != want[exp.ID] {
				t.Errorf("%s moved at workers=%d: hash %#x, pinned %#x; it renders:\n%s",
					exp.ID, workers, got, want[exp.ID], buf.String())
			}
		}
		for id := range want {
			if !slices.Contains(seen, id) {
				t.Errorf("workers=%d: pinned table %s was not rendered", workers, id)
			}
		}
	}
}

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-seeds", "1", "-only", "E3,e10", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"e3.csv", "e10.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lines := strings.Count(string(data), "\n"); lines < 3 {
			t.Errorf("%s: only %d lines", name, lines)
		}
	}
	// Experiments not selected must not have been written.
	if _, err := os.Stat(filepath.Join(dir, "e6.csv")); !os.IsNotExist(err) {
		t.Error("unselected experiment written")
	}
}

func TestRunUnknownFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunUnknownExperimentIsSkipped(t *testing.T) {
	// Asking only for a nonexistent ID simply runs nothing.
	if err := run([]string{"-only", "E99"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-seeds", "1", "-only", "E3", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
	if err := run([]string{"-only", "E99", "-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof")}); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
}
