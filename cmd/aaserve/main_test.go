package main

import (
	"encoding/csv"
	"errors"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// runCaptured runs aaserve with args and returns what it printed.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRunVirtualSmoke drives a short virtual-mode run, once on the plain
// network and once over a lossy one healed by the reliable transport, and
// checks the printed summary: a handful of requests offered, and every
// one of them landing in exactly one outcome.
func TestRunVirtualSmoke(t *testing.T) {
	for _, extra := range [][]string{nil, {"-scenario", "random+loss:0.05", "-reliable"}} {
		args := append([]string{"-mode", "virtual", "-horizon", "300", "-csv"}, extra...)
		out, err := runCaptured(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
		if err != nil || len(rows) != 2 {
			t.Fatalf("%v: summary is not a header and one row (%v):\n%s", args, err, out)
		}
		col := map[string]int64{}
		for i, name := range rows[0] {
			col[name], _ = strconv.ParseInt(rows[1][i], 10, 64)
		}
		if col["offered"] < 3 || col["decided"] == 0 {
			t.Fatalf("%v: too small a run to smoke anything:\n%s", args, out)
		}
		if outcomes := col["decided"] + col["shed"] + col["deadline"] + col["brk-open"] + col["degraded"]; outcomes != col["offered"] {
			t.Fatalf("%v: %d requests offered but %d outcomes:\n%s", args, col["offered"], outcomes, out)
		}
	}
}

// TestRunRejects: an unknown -mode, an unknown -model and a malformed
// workload come back as errors rather than as a run.
func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "warp"},
		{"-model", "gremlin"},
		{"-workload", "poisson:"},
	} {
		if out, err := runCaptured(t, args...); err == nil {
			t.Errorf("%v accepted; printed:\n%s", args, out)
		}
	}
	// "sync" names no protocol, so -model sync fails in every mode.
	for _, mode := range []string{"virtual", "sim", "live"} {
		if _, err := runCaptured(t, "-mode", mode, "-model", "sync"); !errors.Is(err, core.ErrBadParams) ||
			!strings.Contains(err.Error(), "unknown protocol") {
			t.Errorf("-mode %s -model sync: %v, want an unknown-protocol error", mode, err)
		}
	}
}

// TestRunLossIsAScenarioAxis: loss is the scenario's "loss:P" axis in
// every mode, as flap and recover are its "flap" and "recover" axes. The
// -loss, -dup, -flap and -restart flags, which only the live mode read,
// are gone, and -mode sim applies -scenario's loss: at 50% raw loss the
// instances send fewer messages than on a lossless network.
func TestRunLossIsAScenarioAxis(t *testing.T) {
	for _, flag := range []string{"-loss", "-dup", "-flap", "-restart"} {
		if _, err := runCaptured(t, "-mode", "sim", flag, "1"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: %v, want an unknown-flag error", flag, err)
		}
	}
	msgs := map[string]float64{}
	for _, scen := range []string{"random", "random+loss:0.5"} {
		out, err := runCaptured(t, "-mode", "sim", "-n", "5", "-t", "1", "-requests", "8", "-scenario", scen, "-csv")
		if err != nil {
			t.Fatalf("-scenario %s: %v", scen, err)
		}
		rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
		if err != nil || len(rows) != 2 {
			t.Fatalf("-scenario %s: summary is not a header and one row (%v):\n%s", scen, err, out)
		}
		for i, name := range rows[0] {
			if name == "msgs/inst" {
				msgs[scen], _ = strconv.ParseFloat(rows[1][i], 64)
			}
		}
	}
	if msgs["random"] == 0 || msgs["random+loss:0.5"] >= msgs["random"] {
		t.Errorf("msgs/inst %v under 50%% loss, %v without", msgs["random+loss:0.5"], msgs["random"])
	}
}
