// Command aabench regenerates every evaluation artifact (experiments E1–E15
// in DESIGN.md) and prints them as aligned tables, optionally also writing
// CSV files and a machine-readable benchmark snapshot. This is the
// one-command reproduction of the paper's claims; EXPERIMENTS.md records a
// captured run next to the claims themselves, and the BENCH_*.json files at
// the repo root record the performance trajectory across PRs.
//
// Usage:
//
//	aabench [-seeds N] [-only E4] [-csv DIR] [-parallel N] [-xl] [-json FILE] [-micro=false] [-cpuprofile FILE] [-memprofile FILE]
//	aabench -compare OLD.json NEW.json
//
// Each experiment runs on a production harness.Engine of its own, fanning
// independent simulation runs across GOMAXPROCS cores by default; -parallel
// sets the engine's worker count, and -parallel 1 forces the sequential
// path (the rendered tables are identical by construction — the
// determinism tests pin this). Each run itself is single-threaded. -xl
// appends the E12-XL large-n scaling slice (n ∈ {1024, 4096}) to the
// experiment set — hours of work, so it is opt-in and the committed full
// snapshots carry its rows. Every run executes on a recycled
// harness run context, so per-run state construction is off the measured
// path (see PERF.md "Run-context recycling").
//
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles of
// the whole run (experiments and micro-benchmarks), for `go tool pprof`.
//
// -compare diffs two BENCH_*.json snapshots: a per-experiment delta table
// (ns/run, msgs/run, bytes/run) and a per-micro delta table (ns/op,
// allocs/op), with regressions highlighted. Time deltas are advisory, but
// msgs/bytes-per-run deltas are a correctness contract: any drift makes
// compare exit non-zero, so behavior changes can never hide inside a perf
// compare. `make bench-compare` wraps it for the committed trajectory and
// `make bench-smoke` (CI) compares a fresh reduced run against the
// committed BENCH_SMOKE.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"repro/internal/harness"
	"repro/internal/microbench"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aabench:", err)
		os.Exit(1)
	}
}

// snapshot is the BENCH_*.json schema: one entry per experiment with
// wall-clock and engine-level run accounting, plus substrate
// micro-benchmarks (measured via testing.Benchmark, so ns/op and allocs/op
// mean exactly what `go test -bench -benchmem` means).
type snapshot struct {
	Schema      string       `json:"schema"`
	GoVersion   string       `json:"go"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Parallelism int          `json:"parallelism"`
	Seeds       int          `json:"seeds"`
	Generated   string       `json:"generated"`
	Experiments []expBench   `json:"experiments"`
	Micro       []microBench `json:"micro"`
}

type expBench struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	WallNs int64  `json:"wall_ns"`
	// Runs is the number of engine-executed simulation runs the experiment
	// fanned out; the per-run ratios below are averaged over them.
	Runs        int64   `json:"runs"`
	NsPerRun    float64 `json:"ns_per_run"`
	MsgsPerRun  float64 `json:"msgs_per_run"`
	BytesPerRun float64 `json:"bytes_per_run"`
	// AllocsPerRun is the process-wide heap-allocation count per engine run
	// (runtime.MemStats.Mallocs delta around the experiment), the metric the
	// run-context recycling work drives toward zero. It includes the
	// experiment's spec enumeration and table construction, so "near zero"
	// in a committed snapshot means tens per run, not 0.0 — the per-run
	// protocol/simulator allocations themselves are pinned at zero by the
	// harness AllocsPerRun tests.
	AllocsPerRun float64 `json:"allocs_per_run"`
}

type microBench struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
	// Extra carries what the case reported through b.ReportMetric, keyed
	// by unit (livenet/run-n32: "ns/msg", "allocs/msg").
	Extra map[string]float64 `json:"extra,omitempty"`
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("aabench", flag.ContinueOnError)
	seeds := fs.Int("seeds", 3, "seeds per configuration")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	csvDir := fs.String("csv", "", "directory to also write CSV tables into")
	parallel := fs.Int("parallel", 0, "engine worker count (0 = GOMAXPROCS, 1 = sequential)")
	xl := fs.Bool("xl", false, "append the E12-XL large-n scaling slice (n in {1024, 4096}) to the experiment set")
	jsonPath := fs.String("json", "", "file to write a BENCH_*.json benchmark snapshot into")
	micro := fs.Bool("micro", true, "include the micro-benchmarks in the -json snapshot (disable for fast CI smoke runs)")
	compareMode := fs.Bool("compare", false, "compare two BENCH_*.json snapshots (args: OLD.json NEW.json) instead of running; exits non-zero when msgs/bytes per run drift")
	cpuProfile := fs.String("cpuprofile", "", "file to write a CPU profile of the run into")
	memProfile := fs.String("memprofile", "", "file to write a heap profile into when the run ends")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compareMode {
		if fs.NArg() != 2 {
			return errors.New("-compare needs exactly two snapshot files: OLD.json NEW.json")
		}
		return compare(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() { err = errors.Join(err, writeHeapProfile(*memProfile)) }()
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	snap := snapshot{
		Schema:      "aabench/v1",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: workers,
		Seeds:       *seeds,
		Generated:   time.Now().UTC().Format(time.RFC3339),
	}
	for i := range experiments(&harness.Engine{}, *seeds, *xl) {
		// A fresh engine per experiment: its counters are the experiment's
		// runs alone.
		e := &harness.Engine{Workers: *parallel}
		exp := experiments(e, *seeds, *xl)[i]
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		mallocs := readMallocs()
		start := time.Now()
		tbl, err := exp.Run()
		if err != nil {
			return fmt.Errorf("%s (%s): %w", exp.ID, exp.Title, err)
		}
		wall := time.Since(start)
		allocs := readMallocs() - mallocs
		stats := e.Stats()
		fmt.Printf("== %s: %s (%.1fs, %d runs) ==\n", exp.ID, exp.Title, wall.Seconds(), stats.Runs)
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		snap.Experiments = append(snap.Experiments, expBench{
			ID:           exp.ID,
			Title:        exp.Title,
			WallNs:       wall.Nanoseconds(),
			Runs:         stats.Runs,
			NsPerRun:     perRun(float64(wall.Nanoseconds()), stats.Runs),
			MsgsPerRun:   perRun(float64(stats.MessagesSent), stats.Runs),
			BytesPerRun:  perRun(float64(stats.BytesSent), stats.Runs),
			AllocsPerRun: perRun(float64(allocs), stats.Runs),
		})
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, strings.ToLower(exp.ID)+".csv"))
			if err != nil {
				return err
			}
			if err := tbl.CSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if *jsonPath == "" {
		return nil
	}
	if *micro {
		snap.Micro = microBenchRunner()
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
}

// experiments lists what aabench runs, in order, bound to engine e: the
// harness registry, then E15, then (with -xl) E12-XL.
func experiments(e *harness.Engine, seeds int, xl bool) []harness.Experiment {
	exps := harness.Experiments(e, seeds)
	// E15 lives in internal/serve (it drives the serving layer over the
	// harness, so it cannot register from inside the harness package). It
	// runs through the package-level harness.Run, so its runs never reach
	// e's counters and its stats row reads zero.
	exps = append(exps, harness.Experiment{
		ID:    "E15",
		Title: "Overload sweep: offered load x fault mix",
		Run:   serve.E15Overload,
	})
	if xl {
		exps = append(exps, harness.Experiment{
			ID:    "E12XL",
			Title: "Large-n scaling slice",
			Run:   func() (*trace.Table, error) { return harness.E12XL(e) },
		})
	}
	return exps
}

// readMallocs reads the process-wide heap-allocation count.
func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// writeHeapProfile writes a heap profile of the live objects after a GC.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}

func perRun(total float64, runs int64) float64 {
	if runs == 0 {
		return 0
	}
	return total / float64(runs)
}

// regressionThreshold is the relative slowdown past which a compare row is
// flagged: wall-clock deltas under 5% are noise on shared hardware.
const regressionThreshold = 0.05

// drifted reports whether a per-run traffic ratio changed at all. The
// comparison is exact, not a tolerance: runs are deterministic functions
// of their specs, the ratios are computed by the same float64 division on
// both sides, and JSON round-trips float64 exactly — so any difference
// means protocol traffic actually changed, a hard error that can never
// hide inside a perf compare.
func drifted(oldV, newV float64) bool { return oldV != newV }

// compare renders the per-experiment and per-micro delta tables between
// two snapshot files, flagging regressions. Wall-clock deltas are
// advisory; msgs/bytes-per-run deltas are a correctness contract and any
// drift makes compare return an error (non-zero exit).
func compare(w io.Writer, oldPath, newPath string) error {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "snapshot compare: %s (%s, %d seeds, par %d) -> %s (%s, %d seeds, par %d)\n",
		oldPath, oldSnap.GoVersion, oldSnap.Seeds, oldSnap.Parallelism,
		newPath, newSnap.GoVersion, newSnap.Seeds, newSnap.Parallelism)
	if oldSnap.Seeds != newSnap.Seeds || oldSnap.Parallelism != newSnap.Parallelism ||
		oldSnap.GOMAXPROCS != newSnap.GOMAXPROCS {
		fmt.Fprintln(w, "warning: seeds/parallelism/gomaxprocs differ; per-run ratios may not be comparable")
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tns/run old\tns/run new\tdelta\tmsgs/run delta\tbytes/run delta\t")
	oldExp := make(map[string]expBench, len(oldSnap.Experiments))
	for _, e := range oldSnap.Experiments {
		oldExp[e.ID] = e
	}
	var drift []string
	newExp := make(map[string]bool, len(newSnap.Experiments))
	for _, n := range newSnap.Experiments {
		newExp[n.ID] = true
		o, ok := oldExp[n.ID]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.0f\tnew\tnew\tnew\t\n", n.ID, n.NsPerRun)
			// Symmetric with the removed-row case below: an experiment the
			// old snapshot does not pin is a hole in the gate until the
			// committed snapshot is refreshed to cover it.
			drift = append(drift, fmt.Sprintf("%s only in new snapshot (refresh the committed baseline)", n.ID))
			continue
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\t%s\t%s\t\n",
			n.ID, o.NsPerRun, n.NsPerRun, delta(o.NsPerRun, n.NsPerRun),
			delta(o.MsgsPerRun, n.MsgsPerRun), delta(o.BytesPerRun, n.BytesPerRun))
		if o.Runs != n.Runs {
			// Runs is deterministic for fixed -seeds; a change means the
			// enumerated run set itself moved, which per-run ratios alone
			// could mask (e.g. every spec duplicated scales both sides).
			drift = append(drift, fmt.Sprintf("%s runs %d -> %d", n.ID, o.Runs, n.Runs))
		}
		if drifted(o.MsgsPerRun, n.MsgsPerRun) {
			drift = append(drift, fmt.Sprintf("%s msgs/run %.2f -> %.2f", n.ID, o.MsgsPerRun, n.MsgsPerRun))
		}
		if drifted(o.BytesPerRun, n.BytesPerRun) {
			drift = append(drift, fmt.Sprintf("%s bytes/run %.2f -> %.2f", n.ID, o.BytesPerRun, n.BytesPerRun))
		}
	}
	// Coverage losses are as important as slowdowns — and a vanished
	// experiment would otherwise be a hole in the drift gate (its
	// msgs/bytes rows simply absent), so it counts as drift too.
	for _, o := range oldSnap.Experiments {
		if !newExp[o.ID] {
			fmt.Fprintf(tw, "%s\t%.0f\t-\tremoved\t-\t-\t\n", o.ID, o.NsPerRun)
			drift = append(drift, fmt.Sprintf("%s removed from new snapshot", o.ID))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "micro\tns/op old\tns/op new\tdelta\tallocs old\tallocs new\tallocs delta\t")
	oldMicro := make(map[string]microBench, len(oldSnap.Micro))
	for _, m := range oldSnap.Micro {
		oldMicro[m.Name] = m
	}
	newMicro := make(map[string]bool, len(newSnap.Micro))
	for _, n := range newSnap.Micro {
		newMicro[n.Name] = true
		o, ok := oldMicro[n.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.1f\tnew\t-\t%d\tnew\t\n", n.Name, n.NsOp, n.AllocsOp)
			continue
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%s\t%d\t%d\t%s\t\n",
			n.Name, o.NsOp, n.NsOp, delta(o.NsOp, n.NsOp),
			o.AllocsOp, n.AllocsOp, delta(float64(o.AllocsOp), float64(n.AllocsOp)))
	}
	for _, o := range oldSnap.Micro {
		if !newMicro[o.Name] {
			fmt.Fprintf(tw, "%s\t%.1f\t-\tremoved\t%d\t-\tremoved\t\n", o.Name, o.NsOp, o.AllocsOp)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(drift) > 0 {
		// Deterministic runs mean msgs/bytes per run can only move when the
		// protocols' observable behavior moved — never acceptable inside a
		// performance compare.
		return fmt.Errorf("correctness drift (msgs/bytes per run changed): %s", strings.Join(drift, "; "))
	}
	return nil
}

func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != "aabench/v1" {
		return nil, fmt.Errorf("%s: unknown snapshot schema %q", path, s.Schema)
	}
	return &s, nil
}

// delta formats a relative change, flagging regressions past the noise
// threshold. Growth from a zero baseline (e.g. allocations reappearing on
// a pinned zero-alloc path) is always a regression.
func delta(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "0%"
		}
		return fmt.Sprintf("0->%.3g REGRESSION", newV)
	}
	rel := (newV - oldV) / oldV
	s := fmt.Sprintf("%+.1f%%", 100*rel)
	if rel > regressionThreshold {
		s += " REGRESSION"
	}
	return s
}

// microBenchRunner measures the snapshot micro-benchmarks. It is a
// variable so tests can stub it: testing.Benchmark calibrates for about a
// second per case, far too slow for a unit test that only checks the JSON
// shape.
var microBenchRunner = microBenches

// microBenches measures the protocol substrates the hot-path work targets
// — the shared inventory in internal/microbench, so these numbers are the
// same measurements `go test -bench` reports.
func microBenches() []microBench {
	cases := microbench.Cases()
	out := make([]microBench, 0, len(cases))
	for _, c := range cases {
		r := testing.Benchmark(c.Fn)
		out = append(out, microBench{
			Name:     c.Name,
			NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
			Extra:    r.Extra,
		})
	}
	return out
}
