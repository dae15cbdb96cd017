package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// pairsSummary re-prints the summary of a committed pairs file for one
// round (scripts/pairs.sh with PAIRS=0) and returns each row's fields,
// keyed by "workload metric", and whether the script exited 0.
func pairsSummary(t *testing.T, out, round string) (map[string][]string, bool) {
	t.Helper()
	if _, err := exec.LookPath("jq"); err != nil {
		t.Skip("scripts/pairs.sh needs jq")
	}
	cmd := exec.Command("bash", "scripts/pairs.sh")
	cmd.Env = append(cmd.Environ(), "PAIRS=0", "ROUND="+round, "OUT="+out)
	stdout, err := cmd.Output()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(stdout)), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[0]+" "+f[1]] = f
	}
	return rows, err == nil
}

// verdict returns a summary row's pairs won ("10 of 10") and verdict.
func verdict(t *testing.T, rows map[string][]string, key string) (won, v string) {
	t.Helper()
	f, ok := rows[key]
	if !ok {
		t.Fatalf("no summary row for %s", key)
	}
	return strings.Join(f[7:10], " "), f[len(f)-1]
}

// TestPairsVerdicts pins the pairs summary's verdicts and exit status
// against committed pairs files. The final round of BENCH_36_pairs.jsonl
// is the case that separates the two halves of the gain rule: sim-scale
// ns_per_msg won 10 pairs of 10, but the medians are 23.5 ns apart
// against a parent interquartile range of 54.4 ns, so it is not a gain.
// The sim-lossy claim of BENCH_42_pairs.jsonl is one in both its rounds. The fixture's rounds read gain, not
// a gain at 8 pairs of 10 however far apart the medians are, worse, and a
// failed op.
func TestPairsVerdicts(t *testing.T) {
	for _, c := range []struct {
		out, round, row, won, verdict string
		ok                            bool
	}{
		{"BENCH_36_pairs.jsonl", "final", "sim-scale ns_per_msg", "10 of 10", "-", true},
		{"BENCH_42_pairs.jsonl", "main", "sim-lossy ns_per_msg", "10 of 10", "gain", true},
		{"BENCH_42_pairs.jsonl", "fresh", "sim-lossy ns_per_msg", "10 of 10", "gain", true},
		{"testdata/pairs/verdicts.jsonl", "gain", "sim-lossy ns_per_msg", "10 of 10", "gain", true},
		{"testdata/pairs/verdicts.jsonl", "eight", "sim-lossy ns_per_msg", "8 of 10", "-", true},
		{"testdata/pairs/verdicts.jsonl", "worse", "sim-lossy ns_per_msg", "0 of 2", "worse", false},
		{"testdata/pairs/verdicts.jsonl", "failed", "sim-lossy ns_per_msg", "0 of 2", "-", false},
	} {
		rows, ok := pairsSummary(t, c.out, c.round)
		if won, v := verdict(t, rows, c.row); won != c.won || v != c.verdict || ok != c.ok {
			t.Errorf("%s round %s: %s won %q, verdict %q, exit 0 %v; want %q, %q, %v",
				c.out, c.round, c.row, won, v, ok, c.won, c.verdict, c.ok)
		}
	}
}
