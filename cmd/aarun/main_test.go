package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/scenario"
)

func TestParseInputsDefault(t *testing.T) {
	in, err := parseInputs("", 5, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 5 || in[0] != 0 || in[4] != 8 {
		t.Errorf("default inputs %v", in)
	}
	single, err := parseInputs("", 1, 3, 9)
	if err != nil || single[0] != 3 {
		t.Errorf("single default input %v, %v", single, err)
	}
}

func TestParseInputsExplicit(t *testing.T) {
	in, err := parseInputs(" 1, 2.5 ,3", 3, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if in[0] != 1 || in[1] != 2.5 || in[2] != 3 {
		t.Errorf("inputs %v", in)
	}
	if _, err := parseInputs("1,2", 3, 0, 10); err == nil {
		t.Error("count mismatch accepted")
	}
	if _, err := parseInputs("1,x,3", 3, 0, 10); err == nil {
		t.Error("garbage accepted")
	}
}

func TestParseCrashes(t *testing.T) {
	opts, err := parseCrashes("0:3, 2:10")
	if err != nil || len(opts) != 2 {
		t.Fatalf("opts %v err %v", opts, err)
	}
	for _, bad := range []string{"nope", "0:3x", "0:3,1:5zzz", "0x:3", "0:", ":3", "0:3:4"} {
		if _, err := parseCrashes(bad); err == nil || !strings.Contains(err.Error(), "want id:afterSends") {
			t.Errorf("malformed crash plans %q: %v", bad, err)
		}
	}
	none, err := parseCrashes("")
	if err != nil || none != nil {
		t.Errorf("empty crash flag: %v %v", none, err)
	}
}

func TestParseByz(t *testing.T) {
	opts, err := parseByz("0:equivocate,1:silent")
	if err != nil || len(opts) != 2 {
		t.Fatalf("opts %v err %v", opts, err)
	}
	if _, err := parseByz("0"); err == nil {
		t.Error("missing behavior accepted")
	}
	if _, err := parseByz("x:silent"); err == nil {
		t.Error("bad id accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	if err := run([]string{"-model", "crash", "-n", "5", "-t", "2", "-eps", "0.01",
		"-hi", "10", "-sched", "splitviews", "-crash", "0:3"}, io.Discard); err != nil {
		t.Fatalf("crash run: %v", err)
	}
	if err := run([]string{"-model", "witness", "-n", "7", "-t", "2",
		"-byz", "0:equivocate"}, io.Discard); err != nil {
		t.Fatalf("witness run: %v", err)
	}
	if err := run([]string{"-model", "trim", "-n", "8", "-t", "1"}, io.Discard); err != nil {
		t.Fatalf("trim run: %v", err)
	}
	if err := run([]string{"-model", "crash", "-n", "7", "-t", "2", "-sched", "sync"}, io.Discard); err != nil {
		t.Fatalf("lock-step scheduler run: %v", err)
	}
}

func TestRunScenario(t *testing.T) {
	if err := run([]string{"-model", "trim", "-scenario", "skew+equivocate/n=15,t=2"}, io.Discard); err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	// A spec without t inherits the -t flag's fault bound.
	if err := run([]string{"-model", "crash", "-t", "3", "-scenario", "splitviews/n=9"}, io.Discard); err != nil {
		t.Fatalf("scenario without t: %v", err)
	}
	if err := run([]string{"-model", "crash", "-scenario", "warp/n=9,t=2"}, io.Discard); err == nil {
		t.Error("unknown scenario scheduler accepted")
	}
	if err := run([]string{"-model", "crash", "-scenario", "sync+gremlin/n=9,t=2"}, io.Discard); err == nil {
		t.Error("unknown scenario fault accepted")
	}
	// More fault slots than the protocol tolerates must die at spec time.
	if err := run([]string{"-model", "crash", "-scenario", "sync+equivocate/n=9,t=5"}, io.Discard); err == nil {
		t.Error("overfaulted scenario accepted")
	}
}

func TestRunRejects(t *testing.T) {
	if err := run([]string{"-model", "warp"}, io.Discard); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"-model", "sync"}, io.Discard); !errors.Is(err, core.ErrBadParams) {
		t.Errorf("-model sync: %v, want core.ErrBadParams", err)
	}
	if err := run([]string{"-model", "crash", "-n", "4", "-t", "2"}, io.Discard); err == nil {
		t.Error("bad resilience accepted")
	}
	if err := run([]string{"-model", "crash", "-inputs", "1,2"}, io.Discard); err == nil {
		t.Error("input count mismatch accepted")
	}
	if err := run([]string{"-model", "crash", "-sched", "warp"}, io.Discard); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := run([]string{"-model", "crash", "-sched", "random+crash"}, io.Discard); err == nil {
		t.Error("fault token accepted in -sched")
	}
	if err := run([]string{"-model", "crash", "-byz", "0:gremlin"}, io.Discard); err == nil {
		t.Error("unknown behavior accepted")
	}
	if err := run([]string{"-model", "crash", "-crash", "zzz"}, io.Discard); err == nil {
		t.Error("malformed crash plan accepted")
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	path := t.TempDir() + "/run.bundle"
	// Flag-style adversary: synthesized scenario plus explicit overrides.
	if err := run([]string{"-model", "crash", "-n", "7", "-t", "2", "-eps", "0.01",
		"-sched", "splitviews", "-crash", "0:5", "-seed", "9", "-record", path}, io.Discard); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := run([]string{"-replay", path}, io.Discard); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Scenario-style adversary.
	if err := run([]string{"-model", "trim", "-scenario", "skew+equivocate/n=15,t=2",
		"-eps", "0.01", "-record", path}, io.Discard); err != nil {
		t.Fatalf("scenario record: %v", err)
	}
	if err := run([]string{"-replay", path}, io.Discard); err != nil {
		t.Fatalf("scenario replay: %v", err)
	}
}

func TestRecordRejects(t *testing.T) {
	path := t.TempDir() + "/run.bundle"
	if err := run([]string{"-model", "crash", "-live", "-record", path}, io.Discard); err == nil {
		t.Error("-record -live accepted")
	}
	if err := run([]string{"-replay", t.TempDir() + "/missing.bundle"}, io.Discard); err == nil {
		t.Error("replay of a missing bundle succeeded")
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	path := t.TempDir() + "/run.bundle"
	if err := run([]string{"-model", "crash", "-n", "7", "-t", "2", "-eps", "0.01",
		"-record", path}, io.Discard); err != nil {
		t.Fatalf("record: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-replay", path}, io.Discard)
	if !errors.Is(err, frame.ErrMalformed) {
		t.Fatalf("tampered bundle: got %v, want ErrMalformed", err)
	}
}

// TestRecordMatchesPlainRun pins that -record captures the run plain aarun
// prints: for every standard scheduler and Byzantine behavior, on trim and
// witness at their fault bound, the outcome lines are identical with and
// without -record. The promised range is wide enough that an absolute
// extreme value like 1e9 lies inside it, so any disagreement about what a
// Byzantine name sends moves the printed outputs.
func TestRecordMatchesPlainRun(t *testing.T) {
	dir := t.TempDir()
	for _, m := range []struct{ model, n string }{{"trim", "22"}, {"witness", "10"}} {
		for _, sched := range scenario.SuiteSchedulers() {
			for _, byz := range scenario.ByzSuite() {
				args := []string{"-model", m.model, "-n", m.n, "-t", "3", "-hi", "2e9", "-eps", "1e7", "-seed", "4",
					"-sched", sched, "-byz", fmt.Sprintf("0:%s,1:%s,2:%s", byz, byz, byz)}
				var plain, recorded bytes.Buffer
				if err := run(args, &plain); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				path := fmt.Sprintf("%s/%s-%s-%s.bundle", dir, m.model, sched, byz)
				if err := run(append(args, "-record", path), &recorded); err != nil {
					t.Fatalf("%v -record: %v", args, err)
				}
				got := recorded.String()
				got = got[:strings.Index(got, "recorded  ")]
				if got != plain.String() {
					t.Errorf("%s %s %s: -record printed\n%s\nplain run printed\n%s", m.model, sched, byz, got, plain.String())
				}
			}
		}
	}
}

// TestRunLiveRunsTheRecipe: -live runs the recipe the simulator would run,
// and fails on what the goroutine runtime cannot run instead of dropping
// it. A crash plan under a splitviews scheduler is refused, naming the
// scheduler; a Byzantine party runs and is left out of the verdict; the
// scenario's loss axis drops messages.
func TestRunLiveRunsTheRecipe(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-model", "crash", "-n", "5", "-t", "2", "-live", "-crash", "0:0,1:0", "-sched", "splitviews"}, &out)
	if err == nil || !strings.Contains(err.Error(), "splitviews") && !strings.Contains(err.Error(), "crash") {
		t.Errorf("-live -crash -sched splitviews: %v, want an error naming splitviews or crash; printed:\n%s", err, out.String())
	}
	if err := run([]string{"-model", "crash", "-n", "5", "-t", "2", "-live", "-crash", "0:0"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "crash") {
		t.Errorf("-live -crash: %v, want an error naming crash", err)
	}

	// -reliable wraps only the honest parties, so it runs beside -byz.
	for _, extra := range [][]string{nil, {"-reliable"}} {
		out.Reset()
		args := append([]string{"-model", "witness", "-n", "7", "-t", "2", "-live", "-byz", "0:extreme"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v; printed:\n%s", args, err, out.String())
		}
		// Party 0 never decides, so judging it would fail validity.
		if strings.Contains(out.String(), "party  0 ->") || !strings.Contains(out.String(), "valid     true") {
			t.Errorf("%v: the Byzantine party was judged:\n%s", args, out.String())
		}
	}

	// A recover axis kills and rejoins its parties, which the run prints.
	out.Reset()
	if err := run([]string{"-model", "crash", "-adaptive", "-live", "-scenario", "random+recover:2:10:0/n=9,t=2", "-reliable"}, &out); err != nil {
		t.Fatalf("-live recover scenario: %v; printed:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "restarted [0 1]") {
		t.Errorf("-live random+recover:2:10:0 printed no restarted parties:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-model", "crash", "-live", "-scenario", "random+loss:0.2/n=5,t=2", "-reliable"}, &out); err != nil {
		t.Fatalf("-live lossy scenario: %v; printed:\n%s", err, out.String())
	}
	var dropped, duped int
	for _, line := range strings.Split(out.String(), "\n") {
		if _, err := fmt.Sscanf(line, "lossy %d dropped, %d duplicated", &dropped, &duped); err == nil {
			break
		}
	}
	if dropped == 0 {
		t.Errorf("-live random+loss:0.2 dropped nothing:\n%s", out.String())
	}
}
