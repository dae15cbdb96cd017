// Command aabench regenerates every evaluation artifact (experiments E1–E15
// in DESIGN.md) and prints them as aligned tables, optionally also writing
// CSV files. This is the one-command reproduction of the paper's claims;
// EXPERIMENTS.md records a captured run next to the claims themselves.
//
// Usage:
//
//	aabench [-seeds N] [-only E4,E7] [-csv DIR] [-parallel N] [-xl] [-cpuprofile FILE] [-memprofile FILE]
//
// -seeds sets the seeds per configuration and -only the experiments to
// run (default: all). Every experiment runs on one production
// harness.Engine, fanning independent simulation runs across GOMAXPROCS
// cores by default; -parallel sets the engine's worker count, and
// -parallel 1 forces the sequential path. Stdout is a pure function of
// -seeds, -only and -xl: the same bytes at every -parallel, which
// TestTablesPinned pins for every table at -seeds 1. Each run itself is
// single-threaded. -csv also writes each table to DIR/<id>.csv. -xl
// appends the E12-XL large-n scaling slice (n ∈ {1024, 4096}) to the
// experiment set — hours of work, so it is opt-in.
//
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles of
// the whole run, for `go tool pprof`.
//
// Speed is measured elsewhere: the repository benchmark (benchmark/,
// `make benchmark-check`) and `make pairs` against a parent commit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aabench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("aabench", flag.ContinueOnError)
	seeds := fs.Int("seeds", 3, "seeds per configuration")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	csvDir := fs.String("csv", "", "directory to also write CSV tables into")
	parallel := fs.Int("parallel", 0, "engine worker count (0 = GOMAXPROCS, 1 = sequential)")
	xl := fs.Bool("xl", false, "append the E12-XL large-n scaling slice (n in {1024, 4096}) to the experiment set")
	cpuProfile := fs.String("cpuprofile", "", "file to write a CPU profile of the run into")
	memProfile := fs.String("memprofile", "", "file to write a heap profile into when the run ends")
	if err := fs.Parse(args); err != nil {
		return err
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
	for _, exp := range experiments(&harness.Engine{Workers: *parallel}, *seeds, *xl) {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		tbl, err := exp.Run()
		if err != nil {
			return fmt.Errorf("%s (%s): %w", exp.ID, exp.Title, err)
		}
		fmt.Printf("== %s: %s ==\n", exp.ID, exp.Title)
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, strings.ToLower(exp.ID)+".csv"), tbl); err != nil {
				return err
			}
		}
	}
	return nil
}

// experiments lists what aabench runs, in order, bound to engine e: the
// harness registry, then E15, then (with -xl) E12-XL.
func experiments(e *harness.Engine, seeds int, xl bool) []harness.Experiment {
	exps := harness.Experiments(e, seeds)
	// E15 lives in internal/serve (it drives the serving layer over the
	// harness, so it cannot register from inside the harness package). It
	// runs through the package-level harness.Run, so its runs never reach
	// e's counters.
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

// writeCSV writes tbl as CSV to path.
func writeCSV(path string, tbl *trace.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(tbl.CSV(f), f.Close())
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
