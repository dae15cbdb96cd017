// Command aarun executes a single approximate-agreement instance on the
// simulator (or the live goroutine runtime) and prints the outcome. It is
// the quickest way to poke at the protocols:
//
//	aarun -model crash -n 7 -t 3 -inputs 1,2,3,4,5,6,7 -eps 0.01
//	aarun -model witness -n 10 -t 3 -sched splitviews -byz 0:equivocate,1:extreme
//	aarun -model crash -n 5 -t 2 -live
//	aarun -model witness -n 7 -t 2 -live -byz 0:extreme
//
// -scenario runs a declarative scenario spec (internal/scenario): one
// string names the scheduler, the fault composition, and the run shape,
// and replaces -n/-t/-sched/-crash/-byz in one go. The strings are the
// same ones the E12 table prints, so any row reproduces from the shell:
//
//	aarun -model crash -scenario "splitviews+crash/n=64,t=31"
//	aarun -model trim -scenario "skew+equivocate/n=64,t=9"
//
// The lossy-network and crash-recovery axes compose the same way, and
// -reliable wraps every honest party in the ack/retransmit transport that
// survives them:
//
//	aarun -model crash -scenario "random+loss:0.05+dup:0.1/n=16,t=3" -reliable
//	aarun -model crash -live -scenario "random+loss:0.1/n=5,t=2" -reliable
//	aarun -model crash -adaptive -live -scenario "random+recover:2:10:0/n=9,t=2" -reliable
//
// -live runs the same recipe on the goroutine runtime, one protocol tick
// per millisecond, and prints the parties that completed a restart; it
// fails, naming it, on any scheduler, crash token or -crash plan that
// runtime cannot run.
//
// -record FILE captures the run as a replayable incident bundle: the
// scenario, seed, every per-send delivery delay, and a digest of the
// outcome (see internal/incident). -replay FILE re-executes a bundle
// through the recorded delay log and hard-fails on any divergence from the
// recorded digest, naming the first divergent send:
//
//	aarun -model trim -scenario "skew+spam/n=15,t=2" -record out.bundle
//	aarun -replay out.bundle
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/aa"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/livenet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aarun:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("aarun", flag.ContinueOnError)
	model := fs.String("model", "crash", "crash | trim | witness")
	n := fs.Int("n", 7, "number of parties")
	t := fs.Int("t", 2, "fault bound")
	eps := fs.Float64("eps", 1e-3, "agreement precision")
	lo := fs.Float64("lo", 0, "promised input range low end")
	hi := fs.Float64("hi", 100, "promised input range high end")
	inputsFlag := fs.String("inputs", "", "comma-separated inputs (default: evenly spaced over the range)")
	schedName := fs.String("sched", aa.SchedRandom, "scheduler registry key, with an optional :arg: "+strings.Join(scenario.SchedulerNames(), "|"))
	scenarioFlag := fs.String("scenario", "", `scenario spec, e.g. "skew+equivocate/n=64,t=9"; overrides -n/-t/-sched/-crash/-byz`)
	seed := fs.Int64("seed", 1, "random seed")
	crashFlag := fs.String("crash", "", "crash plans id:afterSends,id:afterSends,...")
	byzFlag := fs.String("byz", "", "byzantine assignments id:behavior,... ("+strings.Join(scenario.ByzSuite(), "|")+")")
	adaptive := fs.Bool("adaptive", false, "adaptive termination (estimate spread at runtime)")
	reliable := fs.Bool("reliable", false, "wrap honest parties in the ack/retransmit transport (survives loss/outage/flap/recover)")
	live := fs.Bool("live", false, "run on the goroutine runtime instead of the simulator")
	timeout := fs.Duration("timeout", 30*time.Second, "live-run timeout")
	record := fs.String("record", "", "capture the run into an incident bundle FILE (simulator only)")
	replayFlag := fs.String("replay", "", "replay an incident bundle FILE and diff against its recorded digest (other flags ignored)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *replayFlag != "" {
		return doReplay(w, *replayFlag)
	}
	if *record != "" && *live {
		return fmt.Errorf("-record needs the deterministic simulator; drop -live")
	}

	var scen scenario.Spec
	if *scenarioFlag != "" {
		var err error
		if scen, err = scenario.Parse(*scenarioFlag); err != nil {
			return err
		}
		*n = scen.N
		scen = scen.WithT(*t)
		*t = scen.T
	}
	inputs, err := parseInputs(*inputsFlag, *n, *lo, *hi)
	if err != nil {
		return err
	}

	// One recipe for plain, recorded and live runs alike: the scenario
	// with t made explicit, or a fault-free scenario named by -sched with
	// -crash/-byz as explicit overrides.
	r := harness.Recipe{
		Protocol: *model, Adaptive: *adaptive, Eps: *eps, Lo: *lo, Hi: *hi,
		Seed: *seed, Inputs: inputs, Reliable: *reliable,
	}
	if *scenarioFlag == "" {
		if err := scenario.CheckScheduler(*schedName); err != nil {
			return err
		}
		scen = scenario.Spec{Sched: *schedName, N: *n, T: *t}
		if r.Overrides.Crashes, err = parseCrashes(*crashFlag); err != nil {
			return err
		}
		if r.Overrides.Byz, err = parseByz(*byzFlag); err != nil {
			return err
		}
	}
	r.Scenario = scen.String()
	if *record != "" {
		return doRecord(w, *record, &incident.Bundle{
			Name:   strings.TrimSuffix(filepath.Base(*record), incident.BundleExt),
			Recipe: r,
		})
	}
	if *live {
		return runLive(w, r, *timeout)
	}
	spec, err := r.Lower()
	if err != nil {
		return err
	}
	rep, err := harness.Run(spec)
	if err != nil {
		return err
	}
	printOutcome(w, outcomeFromReport(rep), *eps)
	if !rep.OK() {
		return fmt.Errorf("run failed: %s", rep.Failure())
	}
	return nil
}

func parseInputs(s string, n int, lo, hi float64) ([]float64, error) {
	if s == "" {
		out := make([]float64, n)
		for i := range out {
			if n > 1 {
				out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
			} else {
				out[i] = lo
			}
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("got %d inputs for %d parties", len(parts), n)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func parseCrashes(s string) ([]sim.CrashPlan, error) {
	if s == "" {
		return nil, nil
	}
	var out []sim.CrashPlan
	for _, part := range strings.Split(s, ",") {
		idStr, afterStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		id, err1 := strconv.Atoi(idStr)
		after, err2 := strconv.Atoi(afterStr)
		if !ok || err1 != nil || err2 != nil {
			return nil, fmt.Errorf("crash plan %q (want id:afterSends)", part)
		}
		out = append(out, sim.CrashPlan{Party: sim.PartyID(id), AfterSends: after})
	}
	return out, nil
}

func parseByz(s string) ([]harness.ByzRef, error) {
	if s == "" {
		return nil, nil
	}
	var out []harness.ByzRef
	for _, part := range strings.Split(s, ",") {
		fields := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("byzantine assignment %q (want id:behavior)", part)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("byzantine assignment %q: %w", part, err)
		}
		out = append(out, harness.ByzRef{Party: sim.PartyID(id), Name: fields[1]})
	}
	return out, nil
}

// doRecord captures the run b's recipe names into an incident bundle at
// path.
func doRecord(w io.Writer, path string, b *incident.Bundle) error {
	rep, err := incident.Capture(b)
	if err != nil {
		return err
	}
	if err := incident.Save(b, path); err != nil {
		return err
	}
	printOutcome(w, outcomeFromReport(rep), b.Eps)
	fmt.Fprintf(w, "recorded  %s (%d sends, %s)\n", path, len(b.Delays), b.Scenario)
	fmt.Fprintf(w, "replay    aarun -replay %s\n", path)
	if !rep.OK() {
		return fmt.Errorf("recorded run failed: %s", rep.Failure())
	}
	return nil
}

// doReplay re-executes a bundle against its recorded trace and digest.
func doReplay(w io.Writer, path string) error {
	b, err := incident.Load(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bundle    %s (%s, %s, seed %d, %d sends)\n",
		b.Name, b.Scenario, b.Protocol, b.Seed, len(b.Delays))
	rep, div, err := incident.Replay(b)
	if err != nil {
		return err
	}
	printOutcome(w, outcomeFromReport(rep), b.Eps)
	if div != nil {
		return div.Error()
	}
	fmt.Fprintln(w, "replay    matches recorded digest")
	return nil
}

// runLive runs the recipe on the goroutine runtime, which fails on any
// token it cannot run.
func runLive(w io.Writer, r harness.Recipe, timeout time.Duration) error {
	procs, opts, byz, judged, err := r.Live()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := livenet.Run(ctx, procs, opts)
	if res == nil {
		return err
	}
	// A timeout still reports the partial progress before failing.
	out := outcome(harness.Judge(r.Inputs, byz, judged, res.Decisions, r.Eps), res.Decisions)
	out.Messages, out.Dropped, out.Duped = int(res.Messages), int(res.Dropped), int(res.Duped)
	out.Retransmits, out.Err = int(res.Transport.Retransmits), err
	printOutcome(w, out, r.Eps)
	if len(res.Restarted) > 0 {
		fmt.Fprintf(w, "restarted %v\n", res.Restarted)
	}
	if err == nil && !out.OK() {
		return fmt.Errorf("run failed: valid %v, agreed %v (spread %.3g)", out.Valid, out.Agreed, out.Spread)
	}
	return err
}

// outcomeFromReport adapts a harness report for printOutcome: plain,
// recorded and replayed runs all print through it.
func outcomeFromReport(rep *harness.Report) *aa.Outcome {
	out := outcome(rep.Verdict, rep.Result.Decisions)
	out.Rounds = rep.Result.Rounds()
	out.Messages, out.Bytes = rep.Result.Stats.MessagesSent, rep.Result.Stats.BytesSent
	out.Dropped, out.Duped = int(rep.Result.Stats.MessagesDropped), int(rep.Result.Stats.MessagesDuped)
	out.Retransmits, out.Err = int(rep.Transport.Retransmits), rep.RunErr
	if out.Err == nil && len(rep.ProtoErrs) > 0 {
		out.Err = rep.ProtoErrs[0]
	}
	return out
}

// outcome carries a run's verdict and decisions into an aa.Outcome; the
// caller fills in the counters.
func outcome(v harness.Verdict, decisions map[sim.PartyID]float64) *aa.Outcome {
	out := &aa.Outcome{Values: make(map[int]float64, len(decisions)),
		Spread: v.FinalSpread, Agreed: v.AgreementOK, Valid: v.ValidityOK}
	for id, y := range decisions {
		out.Values[int(id)] = y
	}
	return out
}

func printOutcome(w io.Writer, out *aa.Outcome, eps float64) {
	ids := make([]int, 0, len(out.Values))
	for id := range out.Values {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "party %2d -> %.9g\n", id, out.Values[id])
	}
	fmt.Fprintf(w, "spread    %.3g (eps %.3g)\n", out.Spread, eps)
	fmt.Fprintf(w, "agreed    %v\n", out.Agreed)
	fmt.Fprintf(w, "valid     %v\n", out.Valid)
	if out.Rounds > 0 {
		fmt.Fprintf(w, "rounds    %.1f\n", out.Rounds)
	}
	fmt.Fprintf(w, "messages  %d\n", out.Messages)
	if out.Bytes > 0 {
		fmt.Fprintf(w, "bytes     %d\n", out.Bytes)
	}
	if out.Dropped > 0 || out.Duped > 0 {
		fmt.Fprintf(w, "lossy     %d dropped, %d duplicated\n", out.Dropped, out.Duped)
	}
	if out.Retransmits > 0 {
		fmt.Fprintf(w, "reliable  %d retransmits\n", out.Retransmits)
	}
	if out.Err != nil {
		fmt.Fprintf(w, "error     %v\n", out.Err)
	}
}
