package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// This file is the parallel experiment engine: a worker pool that fans
// independent simulation runs across goroutines while keeping every
// observable output — tables, aggregates, error messages — byte-for-byte
// identical to a sequential execution.
//
// Determinism argument. Every run is a pure function of its Spec: the
// simulator's randomness comes from Spec.Seed alone, the scheduler suite is
// stateless (the one stateful scheduler, sched.FIFO, is instantiated
// per-spec), and protocols share no mutable state across runs. Workers pull
// indices from an atomic counter, write results into a preallocated slot
// per index, and all aggregation happens after the barrier in index order —
// so scheduling nondeterminism can never reach an experiment table.
//
// A production engine executes each run on a recycled RunContext (context.go)
// drawn from a sync.Pool, whose per-P caching effectively gives every worker
// goroutine its own warm context: the simulator wheel, party state, and RBC
// slabs are reset — provably equivalent to fresh construction — instead of
// rebuilt, which removes the per-run allocation load (and the cross-worker
// GC pressure that used to scale with the worker count).

// Engine executes runs and batches of runs. It has exactly two
// configurations: production (the zero value: calendar queue, batched dense
// ticks, pooled run contexts) and reference (heap queue, per-envelope
// ticks, a fresh run context per run). The two render byte-identical tables;
// the reference exists to be compared against production. An Engine holds
// its own run counters, so several engines can run side by side in one
// process. The package-level Run, RunAll and RunAllLabeled use a shared
// production engine at GOMAXPROCS workers.
type Engine struct {
	// Workers is the worker count for batches; 0 (or negative) means
	// runtime.GOMAXPROCS(0), and 1 runs every batch on the calling
	// goroutine with no goroutines at all.
	Workers int
	// Reference selects the reference configuration (sim.Config.Reference
	// and fresh run contexts).
	Reference bool

	runs, msgsSent, msgsDelivered, bytesSent atomic.Int64
}

// EngineStats is the run-level accounting of one Engine: every simulation
// it completed, summed.
type EngineStats struct {
	// Runs counts completed simulation runs.
	Runs int64
	// MessagesSent / MessagesDelivered / BytesSent sum the per-run
	// sim.Stats counters.
	MessagesSent      int64
	MessagesDelivered int64
	BytesSent         int64
}

// Stats reads the engine's cumulative counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Runs:              e.runs.Load(),
		MessagesSent:      e.msgsSent.Load(),
		MessagesDelivered: e.msgsDelivered.Load(),
		BytesSent:         e.bytesSent.Load(),
	}
}

// count credits one completed simulation run to the engine's counters.
// Spec runs are counted by Run; non-Spec experiments that drive the
// simulator directly (the vector extension) call it themselves.
func (e *Engine) count(stats sim.Stats) {
	e.runs.Add(1)
	e.msgsSent.Add(int64(stats.MessagesSent))
	e.msgsDelivered.Add(int64(stats.MessagesDelivered))
	e.bytesSent.Add(int64(stats.BytesSent))
}

// workers resolves the engine's worker count.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ctxPool recycles production run contexts across runs, engines and worker
// goroutines. sync.Pool's per-P caching gives each pool worker an
// effectively private context without explicit worker slots, and lets the
// GC drop contexts (with their arenas) under memory pressure.
var ctxPool = sync.Pool{New: func() any { return NewRunContext() }}

// Run executes a spec on the engine and checks the invariants. The
// returned Report is freshly allocated and safe to retain.
func (e *Engine) Run(spec Spec) (*Report, error) {
	var c *RunContext
	if e.Reference {
		c = &RunContext{reference: true}
	} else {
		c = ctxPool.Get().(*RunContext)
		defer ctxPool.Put(c)
	}
	rep := &Report{Result: &sim.Result{}}
	if err := c.run(spec, rep); err != nil {
		return nil, err
	}
	e.count(rep.Result.Stats)
	return rep, nil
}

// mapOrdered evaluates fn(0..n-1) across the given number of workers and
// returns the results indexed by input order. With one worker (or n < 2)
// it degenerates to a plain loop on the calling goroutine. Every index is
// evaluated even when an earlier one fails, and the error reported is
// always the lowest-index one — both properties keep the parallel and
// sequential paths observably identical (a sequential loop would have
// surfaced exactly that error first).
func mapOrdered[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunAll executes every spec on the engine and returns the reports in spec
// order. A spec-level error (bad inputs, fault budget exceeded, ...) aborts
// the batch; protocol-level failures are part of the Report, as with Run.
func (e *Engine) RunAll(specs []Spec) ([]*Report, error) {
	return e.RunAllLabeled(specs, nil)
}

// RunAllLabeled is RunAll with an error-context labeler: when spec i fails,
// label(i) prefixes the error so callers keep the per-run context the old
// inline loops had.
func (e *Engine) RunAllLabeled(specs []Spec, label func(i int) string) ([]*Report, error) {
	return mapOrdered(e.workers(), len(specs), func(i int) (*Report, error) {
		rep, err := e.Run(specs[i])
		if err != nil && label != nil {
			return nil, fmt.Errorf("%s: %w", label(i), err)
		}
		return rep, err
	})
}

// runOutcome pairs a report with its spec-level error for batches where the
// experiment treats a failed Run as data rather than as an abort (the E1
// overload demonstrations intentionally run past the fault bound).
type runOutcome struct {
	rep *Report
	err error
}

// runAllOutcomes executes every spec on the engine, never aborting: each
// slot carries its own (report, error) pair, in spec order.
func (e *Engine) runAllOutcomes(specs []Spec) []runOutcome {
	outs, _ := mapOrdered(e.workers(), len(specs), func(i int) (runOutcome, error) {
		rep, err := e.Run(specs[i])
		return runOutcome{rep: rep, err: err}, nil
	})
	return outs
}

// defaultEngine backs the package-level Run, RunAll and RunAllLabeled.
var defaultEngine Engine

// Run executes a spec on the shared production engine and checks the
// invariants. It draws a recycled run context from the package pool (see
// context.go), so the simulator wheel, protocol party state, and RBC slabs
// of earlier runs are reused rather than rebuilt; the returned Report is
// freshly allocated and safe to retain.
func Run(spec Spec) (*Report, error) { return defaultEngine.Run(spec) }

// RunAll is Engine.RunAll on the shared production engine.
func RunAll(specs []Spec) ([]*Report, error) { return defaultEngine.RunAll(specs) }

// RunAllLabeled is Engine.RunAllLabeled on the shared production engine.
func RunAllLabeled(specs []Spec, label func(i int) string) ([]*Report, error) {
	return defaultEngine.RunAllLabeled(specs, label)
}
