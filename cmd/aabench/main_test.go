package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

func TestCompareSnapshots(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	oldSnap := `{"schema":"aabench/v1","go":"go1.24.0","gomaxprocs":1,"parallelism":1,"seeds":2,
		"experiments":[{"id":"E4","title":"t","wall_ns":10,"runs":2,"ns_per_run":1000,"msgs_per_run":50,"bytes_per_run":800},
		               {"id":"E5","title":"t","wall_ns":10,"runs":2,"ns_per_run":1000,"msgs_per_run":50,"bytes_per_run":800}],
		"micro":[{"name":"rbc/handle","ns_op":100,"allocs_op":20,"bytes_op":0},
		         {"name":"wire/zeroalloc","ns_op":2,"allocs_op":0,"bytes_op":0}]}`
	newSnap := `{"schema":"aabench/v1","go":"go1.24.0","gomaxprocs":1,"parallelism":1,"seeds":2,
		"experiments":[{"id":"E4","title":"t","wall_ns":10,"runs":2,"ns_per_run":2000,"msgs_per_run":50,"bytes_per_run":800}],
		"micro":[{"name":"rbc/handle","ns_op":40,"allocs_op":2,"bytes_op":0},
		         {"name":"rbc/fresh","ns_op":1,"allocs_op":0,"bytes_op":0},
		         {"name":"wire/zeroalloc","ns_op":2,"allocs_op":3,"bytes_op":0}]}`
	for path, body := range map[string]string{oldPath: oldSnap, newPath: newSnap} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	// The old snapshot's E5 is missing from the new one: a coverage loss is
	// a hole in the drift gate, so compare must both render the "removed"
	// row and return the drift error.
	err := compare(&sb, oldPath, newPath)
	if err == nil {
		t.Fatal("removed experiment accepted as drift-free")
	}
	if !strings.Contains(err.Error(), "E5 removed") {
		t.Fatalf("drift error %q does not name the removed experiment", err)
	}
	out := sb.String()
	for _, want := range []string{
		"E4", "+100.0% REGRESSION", // experiment slowdown flagged
		"E5", "removed", // dropped experiment surfaced
		"rbc/handle", "-60.0%", "-90.0%", // micro improvement, no flag
		"rbc/fresh", "new", // added micro
		"0->3 REGRESSION", // allocations reappearing on a zero-alloc path
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-60.0% REGRESSION") {
		t.Error("improvement flagged as regression")
	}
	// The CLI entry point accepts the flag form (and surfaces the same
	// removed-experiment drift verdict).
	if err := run([]string{"-compare", oldPath, newPath}); err == nil {
		t.Error("CLI compare accepted a removed experiment as drift-free")
	}
	if err := run([]string{"-compare", oldPath}); err == nil {
		t.Error("missing second snapshot accepted")
	}
	// Unknown schema is rejected.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", oldPath, bad}); err == nil {
		t.Error("unknown schema accepted")
	}
}

// TestCompareFlagsTrafficDrift pins the correctness contract of -compare:
// msgs/bytes-per-run deltas are a hard error (non-zero exit), while pure
// wall-clock regressions remain advisory.
func TestCompareFlagsTrafficDrift(t *testing.T) {
	dir := t.TempDir()
	base := `{"schema":"aabench/v1","go":"go1.24.0","gomaxprocs":1,"parallelism":1,"seeds":2,
		"experiments":[{"id":"E4","title":"t","wall_ns":10,"runs":2,"ns_per_run":1000,"msgs_per_run":50,"bytes_per_run":800}],
		"micro":[]}`
	cases := []struct {
		name    string
		newSnap string
		wantErr string
	}{
		{
			// Slower but byte-identical traffic: advisory only.
			name: "slowdown-only",
			newSnap: `{"schema":"aabench/v1","go":"go1.24.0","gomaxprocs":1,"parallelism":1,"seeds":2,
				"experiments":[{"id":"E4","title":"t","wall_ns":10,"runs":2,"ns_per_run":9000,"msgs_per_run":50,"bytes_per_run":800}],
				"micro":[]}`,
		},
		{
			name: "msgs-drift",
			newSnap: `{"schema":"aabench/v1","go":"go1.24.0","gomaxprocs":1,"parallelism":1,"seeds":2,
				"experiments":[{"id":"E4","title":"t","wall_ns":10,"runs":2,"ns_per_run":1000,"msgs_per_run":51,"bytes_per_run":800}],
				"micro":[]}`,
			wantErr: "msgs/run",
		},
		{
			name: "bytes-drift",
			newSnap: `{"schema":"aabench/v1","go":"go1.24.0","gomaxprocs":1,"parallelism":1,"seeds":2,
				"experiments":[{"id":"E4","title":"t","wall_ns":10,"runs":2,"ns_per_run":1000,"msgs_per_run":50,"bytes_per_run":0}],
				"micro":[]}`,
			wantErr: "bytes/run",
		},
		{
			// An experiment only the new snapshot measures is unpinned until
			// the committed baseline is refreshed — drift, symmetrically
			// with removal.
			name: "new-experiment",
			newSnap: `{"schema":"aabench/v1","go":"go1.24.0","gomaxprocs":1,"parallelism":1,"seeds":2,
				"experiments":[{"id":"E4","title":"t","wall_ns":10,"runs":2,"ns_per_run":1000,"msgs_per_run":50,"bytes_per_run":800},
				               {"id":"E13","title":"t","wall_ns":10,"runs":2,"ns_per_run":1000,"msgs_per_run":50,"bytes_per_run":800}],
				"micro":[]}`,
			wantErr: "E13 only in new snapshot",
		},
		{
			// Doubling every spec scales msgs and runs together, leaving the
			// per-run ratios untouched — the run count itself must be gated.
			name: "runs-drift",
			newSnap: `{"schema":"aabench/v1","go":"go1.24.0","gomaxprocs":1,"parallelism":1,"seeds":2,
				"experiments":[{"id":"E4","title":"t","wall_ns":10,"runs":4,"ns_per_run":1000,"msgs_per_run":50,"bytes_per_run":800}],
				"micro":[]}`,
			wantErr: "runs 2 -> 4",
		},
	}
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newPath := filepath.Join(dir, c.name+".json")
			if err := os.WriteFile(newPath, []byte(c.newSnap), 0o644); err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			err := compare(&sb, oldPath, newPath)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("advisory-only delta rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("traffic drift accepted; output:\n%s", sb.String())
			}
			if !strings.Contains(err.Error(), "correctness drift") || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("drift error %q does not name the drifted ratio %q", err, c.wantErr)
			}
			// The delta tables must still have been rendered before the
			// verdict, so the operator sees what moved.
			if !strings.Contains(sb.String(), "E4") {
				t.Error("compare error suppressed the delta table")
			}
		})
	}
}

// TestReadCommittedSnapshots pins that the committed baselines still load:
// they carry keys the schema no longer has (the retired "shards" field),
// which decoding must ignore.
func TestReadCommittedSnapshots(t *testing.T) {
	for _, name := range []string{"BENCH_8.json", "BENCH_SMOKE.json"} {
		path := filepath.Join("..", "..", name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), `"shards"`) {
			t.Errorf("%s no longer carries a \"shards\" key; this test no longer covers it", name)
		}
		s, err := readSnapshot(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Experiments) == 0 {
			t.Errorf("%s: no experiments decoded", name)
		}
	}
}

func TestRunJSONSnapshot(t *testing.T) {
	// Stub the micro-benchmark runner: testing.Benchmark calibrates for
	// about a second per case, which this shape check does not need.
	orig := microBenchRunner
	microBenchRunner = func() []microBench {
		return []microBench{{Name: "stub/micro", NsOp: 1, AllocsOp: 0, BytesOp: 0}}
	}
	defer func() { microBenchRunner = orig }()
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := run([]string{"-seeds", "1", "-only", "E3", "-parallel", "2", "-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`"schema": "aabench/v1"`,
		`"id": "E3"`,
		`"msgs_per_run"`,
		`"stub/micro"`,
		`"allocs_op"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot missing %s", want)
		}
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
