package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// errFailed is returned when an output check, a golden comparison or a
// -repeat agreement check failed; the details have been printed by then.
var errFailed = errors.New("output checks failed")

// checkTimed adds the golden comparison to a timed run's own checks.
func checkTimed(w *workloadDef, s *sample, seed int64, golden *goldenFile) []string {
	problems := s.problems
	if seed == goldenSeed {
		problems = append(problems, golden.compare(w.name, s.stats)...)
	}
	return problems
}

// --- driver mode: one workload, one run, one JSON line ---

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

func runDriver(opts options, golden *goldenFile, traced bool) error {
	w := opts.workloads[0]
	line := driverLine{Metrics: map[string]driverMetric{}}
	var problems []string
	if !traced {
		s, err := measure(w, opts.seed, opts.seconds)
		if err != nil {
			return err
		}
		problems = checkTimed(w, s, opts.seed, golden)
		line.Attempted, line.Failed = s.attempted, s.failed
		got := s.metrics()
		for _, def := range endToEnd {
			line.Metrics[def.name] = driverMetric{got[def.name], def.unit}
		}
	} else {
		rec := newRecorder()
		// The probes take about three seconds whatever the workload.
		res, err := w.trace(rec, opts.seed, opts.seconds*7/10)
		if err != nil {
			return err
		}
		probes, err := runProbes(opts.seed, golden.simulateAt(opts.seed))
		if err != nil {
			return err
		}
		processMetrics(res)
		problems = append(res.problems, probes.problems...)
		line.Attempted = max(1, res.samples["trace.overhead_share"])
		line.Failed = min(len(problems), line.Attempted)
		for _, def := range perLayer {
			v, ok := res.values[def.name]
			if !ok {
				v = probes.values[def.name] // zero: the layer is not on this path
			}
			line.Metrics[def.name] = driverMetric{v, def.unit}
		}
		if opts.spansPath != "" {
			if err := rec.write(opts.spansPath); err != nil {
				return err
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, p)
	}
	line.Correct = len(problems) == 0
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// --- full mode ---

// timedSet is one pass over the chosen workloads with tracing off:
// opts.reps repetitions each, interleaved round-robin so that a slow
// stretch of the machine lands on every workload alike.
type timedSet struct {
	values   map[string]map[string][]float64 // workload → metric → one value per repetition
	ops      map[string][]float64            // workload → ops per repetition
	problems []string
}

func (t *timedSet) median(w, metric string) (float64, bool) {
	v := t.values[w][metric]
	return median(v), len(v) > 0
}

func runTimedSet(opts options, golden *goldenFile) (*timedSet, error) {
	set := &timedSet{values: map[string]map[string][]float64{}, ops: map[string][]float64{}}
	for r := 0; r < opts.reps; r++ {
		for _, w := range opts.workloads {
			seed := opts.seed + int64(r)
			s, err := measure(w, seed, opts.seconds)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			for _, p := range checkTimed(w, s, seed, golden) {
				set.problems = append(set.problems, fmt.Sprintf("%s seed %d: %s", w.name, seed, p))
			}
			if set.values[w.name] == nil {
				set.values[w.name] = map[string][]float64{}
			}
			got := s.metrics()
			for name, v := range got {
				set.values[w.name][name] = append(set.values[w.name][name], v)
			}
			set.ops[w.name] = append(set.ops[w.name], float64(s.ops()))
			fmt.Printf("timed  rep %d/%d  %-12s seed %-4d %5d ops  p50 %9.3f ms  %9.1f ns/msg  failed %d\n",
				r+1, opts.reps, w.name, seed, s.ops(), got["op_ms_p50"], got["ns_per_msg"], s.failed)
		}
	}
	return set, nil
}

// metricRow is one metric of one workload in the -json report.
type metricRow struct {
	Workload string    `json:"workload"`
	Name     string    `json:"name"`
	Kind     string    `json:"kind"` // end_to_end, per_layer or probe
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    *float64  `json:"bound,omitempty"`
	Samples  int       `json:"samples"`
	Reps     []float64 `json:"repetitions,omitempty"`
}

type fullReport struct {
	Meta     map[string]any `json:"meta"`
	Metrics  []metricRow    `json:"metrics"`
	Notes    []string       `json:"notes"`
	Problems []string       `json:"problems"`
}

func meta(opts options) map[string]any {
	head := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	var names []string
	for _, w := range opts.workloads {
		names = append(names, w.name)
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"git_head": head, "seed": opts.seed, "seconds": opts.seconds.Seconds(), "reps": opts.reps,
		"workloads": names,
	}
}

const quotaNote = "Go 1.24 takes GOMAXPROCS from the machine's cores and ignores a container's CPU quota: under a quota below nproc the multi-core figures measure throttling, not the program."

const probeNote = "rbc, multiset and wire are called from inside core and have no seam that can be reached inside a run; they are measured by fixed-count probes only."

func (t *timedSet) rows(opts options) []metricRow {
	var rows []metricRow
	for _, w := range opts.workloads {
		for _, def := range append(endToEnd, failedShare) {
			v, ok := t.median(w.name, def.name)
			if !ok {
				continue
			}
			bound := def.bound
			samples := int(median(t.ops[w.name]))
			if def.name == "setup_s" {
				samples = setupReps
			}
			rows = append(rows, metricRow{
				Workload: w.name, Name: def.name, Kind: "end_to_end", Value: v, Unit: def.unit,
				Better: def.better, Bound: &bound, Samples: samples, Reps: t.values[w.name][def.name],
			})
		}
	}
	return rows
}

func layerRows(workload, kind string, res *layerResult) []metricRow {
	var rows []metricRow
	for _, def := range perLayer {
		if v, ok := res.values[def.name]; ok {
			rows = append(rows, metricRow{
				Workload: workload, Name: def.name, Kind: kind, Value: v, Unit: def.unit,
				Better: def.better, Samples: res.samples[def.name],
			})
		}
	}
	return rows
}

func printRows(title string, rows []metricRow) {
	fmt.Printf("\n%s\n", title)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tbetter\tbound\tsamples\trepetitions")
	for _, r := range rows {
		bound, reps := "-", ""
		if r.Bound != nil {
			bound = fmt.Sprintf("%.2f", *r.Bound)
			if *r.Bound == 0 {
				bound = "0 abs"
			}
		}
		for _, v := range r.Reps {
			reps += fmt.Sprintf("%.5g ", v)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\t%s\t%d\t%s\n", r.Workload, r.Name, r.Value, r.Unit, r.Better, bound, r.Samples, reps)
	}
	tw.Flush()
}

func runFull(opts options, golden *goldenFile) error {
	rep := fullReport{Meta: meta(opts), Notes: []string{quotaNote, probeNote}}
	fmt.Printf("benchmark: %d workloads, %d repetitions of %.0f s each, base seed %d, nproc %d, GOMAXPROCS %d, %s\n%s\n\n",
		len(opts.workloads), opts.reps, opts.seconds.Seconds(), opts.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), quotaNote)

	set, err := runTimedSet(opts, golden)
	if err != nil {
		return err
	}
	rep.Problems = append(rep.Problems, set.problems...)
	rep.Metrics = set.rows(opts)
	printRows(fmt.Sprintf("END-TO-END, tracing off: median of %d repetitions", opts.reps), rep.Metrics)

	if !opts.noTrace {
		fmt.Printf("\ntraced pass (separate from the timed pass; seams on)\n")
		rec := newRecorder()
		var layers []metricRow
		for _, w := range opts.workloads {
			res, err := w.trace(rec, opts.seed, opts.seconds)
			if err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
			processMetrics(res)
			layers = append(layers, layerRows(w.name, "per_layer", res)...)
			rep.Notes = append(rep.Notes, res.notes...)
			rep.Problems = append(rep.Problems, res.problems...)
			fmt.Printf("traced %-12s %d checks failed\n", w.name, len(res.problems))
		}
		probes, err := runProbes(opts.seed, golden.simulateAt(opts.seed))
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		layers = append(layers, layerRows("-", "probe", probes)...)
		rep.Notes = append(rep.Notes, probes.notes...)
		rep.Problems = append(rep.Problems, probes.problems...)
		printRows("PER-LAYER, traced pass and fixed-count probes (no bounds: they say where a change came from)", layers)
		rep.Metrics = append(rep.Metrics, layers...)
		if opts.spansPath != "" {
			if err := rec.write(opts.spansPath); err != nil {
				return err
			}
			fmt.Printf("\n%d spans written to %s; self time by span name (ms):", len(rec.spans), opts.spansPath)
			self := selfByName(rec.spans)
			names := make([]string, 0, len(self))
			for name := range self {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf(" %s %.1f", name, float64(self[name])/1e6)
			}
			fmt.Println()
		}
	}

	fmt.Println()
	for _, n := range rep.Notes {
		fmt.Println("note:", n)
	}
	if opts.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(rep.Problems) > 0 {
		for _, p := range rep.Problems {
			fmt.Println("FAILED CHECK:", p)
		}
		return errFailed
	}
	fmt.Println("all output checks passed: every op OK, simulated statistics exact, traced runs identical to untraced, serve accounted")
	return nil
}

// runRepeat is the self-agreement mode: the timed set, run opts.repeat
// times on the same code, must give medians that sit within each
// metric's own bound of each other. The traced pass has no bounds and is
// not repeated.
func runRepeat(opts options, golden *goldenFile) error {
	var sets []*timedSet
	failed := false
	for k := 0; k < opts.repeat; k++ {
		fmt.Printf("set %d of %d\n", k+1, opts.repeat)
		set, err := runTimedSet(opts, golden)
		if err != nil {
			return err
		}
		for _, p := range set.problems {
			fmt.Println("FAILED CHECK:", p)
			failed = true
		}
		sets = append(sets, set)
	}
	fmt.Printf("\nSELF-AGREEMENT over %d sets: spread is (max-min)/median of the sets' medians\n", opts.repeat)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedians\tspread\tbound\tverdict")
	for _, w := range opts.workloads {
		for _, def := range append(endToEnd, failedShare) {
			var meds []float64
			for _, set := range sets {
				if v, ok := set.median(w.name, def.name); ok {
					meds = append(meds, v)
				}
			}
			if len(meds) == 0 {
				continue
			}
			s := sorted(meds)
			spread, verdict := 0.0, "PASS"
			if m := median(s); m != 0 {
				spread = (s[len(s)-1] - s[0]) / m
			}
			// failed_share has the absolute bound: any failure fails.
			if spread > def.bound || (def.bound == 0 && s[len(s)-1] != 0) {
				verdict, failed = "FAIL", true
			}
			list := ""
			for _, v := range meds {
				list += fmt.Sprintf("%.5g ", v)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.2f\t%s\n", w.name, def.name, list, spread, def.bound, verdict)
		}
	}
	tw.Flush()
	if failed {
		return errFailed
	}
	return nil
}
