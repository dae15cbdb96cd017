// Command benchmark is the repository's benchmark: six workloads, the
// end-to-end cost of each with tracing off, and a separate seam-traced
// pass that attributes that cost to sim, core, relnet, harness, livenet
// and serve. README.md in this directory has the tables and the reasons.
//
// Run it from the root of the repository:
//
//	bash benchmark/run.sh                      every workload, timed pass then traced pass
//	bash benchmark/run.sh -repeat 2            two timed sets, compared against the bounds
//	bash benchmark/run.sh --workload live --seed 7 --seconds 10 --trace 0
//
// The last form is the one a driver uses: one workload, one seed, one
// run, and a single JSON object as the last line of standard output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

type options struct {
	workloads []*workloadDef
	seed      int64
	seconds   time.Duration
	reps      int
	repeat    int
	jsonPath  string
	spansPath string
	noTrace   bool
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed    = fs.Int64("seed", goldenSeed, "base seed; all inputs are generated from it, repetition r uses seed+r")
		seconds = fs.Float64("seconds", 8, "how long one run of one workload measures")
		reps    = fs.Int("reps", 3, "repetitions per workload, interleaved round-robin; metrics are their medians")
		repeat  = fs.Int("repeat", 0, "run the timed set this many times and check that the sets agree within each metric's bound")
		trace   = fs.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics of one run of -workload as one JSON line, 1 the per-layer metrics")
		jsonOut = fs.String("json", "", "write every metric with unit, direction, bound and sample count to this file")
		spans   = fs.String("spans", "", "write the traced pass's in-memory spans to this file as JSON")
		noTrace = fs.Bool("notrace", false, "skip the traced pass")
		update  = fs.Bool("update-golden", false, "record benchmark/golden.json afresh at the default seed and exit")
	)
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *update {
		if err := updateGolden("benchmark/golden.json"); err != nil {
			fatal(err)
		}
		return
	}
	opts := options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		reps: *reps, repeat: *repeat, jsonPath: *jsonOut, spansPath: *spans, noTrace: *noTrace,
	}
	if *names == "" {
		for i := range workloads {
			opts.workloads = append(opts.workloads, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		opts.workloads = append(opts.workloads, w)
	}
	if opts.seconds <= 0 || opts.reps < 1 {
		fatal(errors.New("-seconds and -reps must be positive"))
	}
	golden, err := loadGolden()
	if err != nil {
		fatal(err)
	}

	switch {
	case *trace == 0 || *trace == 1:
		if len(opts.workloads) != 1 {
			fatal(errors.New("-trace takes exactly one -workload"))
		}
		err = runDriver(opts, golden, *trace == 1)
	case *trace != -1:
		err = fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	case opts.repeat > 0:
		err = runRepeat(opts, golden)
	default:
		err = runFull(opts, golden)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
