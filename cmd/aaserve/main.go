// Command aaserve is the agreement-as-a-service front end: it feeds a
// generated request stream (internal/workload) through the serving layer
// (internal/serve), runs one approximate-agreement instance per admitted
// request over a bounded worker pool, and prints the service-level verdict
// — goodput, latency percentiles, and the full shed/deadline/breaker/retry
// accounting. Every offered request lands in exactly one outcome; the
// daemon exits nonzero if the accounting identity ever breaks.
//
//	aaserve -workload "poisson:40+lognormal:4:0.5" -horizon 4000
//	aaserve -workload "burst:20:16:500+cohort:web:0.7:300:1+cohort:batch:0.3:1200:0" -mult 4 -saturate
//	aaserve -mode live -requests 32 -scenario "random+loss:0.1" -flap 1 -reliable
//	aaserve -scenario "random+loss:0.05+dup:0.02" -reliable -artifacts ./failures
//
// Modes: "virtual" (default) runs the deterministic virtual-time engine —
// byte-identical across runs, the E15 configuration. "sim" and "live" run
// the same serve loop on the wall clock, -tick per workload tick. "sim"
// runs each instance on the simulator and holds its worker until the
// request's drawn service time has passed, with no sleep. "live" runs real
// goroutine parties over internal/livenet until they decide, propagating
// each request's deadline into the run context. All modes run the same
// instance recipe, so -scenario's loss and dup apply in each; -flap and
// -restart add live faults, and live mode fails up front, naming it, on a
// scenario token the goroutine runtime cannot run.
//
// -saturate rescales the workload's base rate to the worker pool's
// analytic saturation rate before applying -mult, so "-mult 4 -saturate"
// always means 4x overload regardless of the service model. -artifacts DIR
// captures deadline-exceeded, degraded, and breaker-tripping instances as
// replayable incident bundles with a printed one-line repro each,
// mirroring aafuzz -artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aaserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aaserve", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "poisson:40+lognormal:4:0.5",
		"workload spec (internal/workload token grammar)")
	mult := fs.Float64("mult", 1, "offered-load multiplier applied to the workload's rates")
	saturate := fs.Bool("saturate", false, "rescale the base rate to the pool's saturation rate before -mult")
	mode := fs.String("mode", "virtual", "virtual | sim | live")
	horizon := fs.Int64("horizon", 4000, "virtual-mode workload horizon in ticks")
	requests := fs.Int("requests", 32, "sim/live-mode request count")
	model := fs.String("model", "crash", "crash | trim | witness")
	n := fs.Int("n", 10, "parties per instance")
	t := fs.Int("t", 3, "fault bound per instance")
	eps := fs.Float64("eps", 1e-3, "agreement precision")
	lo := fs.Float64("lo", 0, "input range low end")
	hi := fs.Float64("hi", 100, "input range high end")
	adaptive := fs.Bool("adaptive", false, "adaptive termination")
	scenarioFlag := fs.String("scenario", "random",
		`base instance scenario without /params, e.g. "random+loss:0.05"`)
	reliable := fs.Bool("reliable", false, "ack/retransmit transport inside each instance")
	seed := fs.Int64("seed", 1, "seed for the workload stream and instance inputs")
	workers := fs.Int("workers", 4, "worker pool size (concurrent instances)")
	queue := fs.Int("queue", 64, "admission queue depth")
	watermark := fs.Int("watermark", 0, "queue depth shedding priority-0 arrivals (default 3/4 of -queue)")
	bucket := fs.Float64("bucket", 0, "token-bucket admission rate per kilotick (0 = unlimited)")
	burst := fs.Float64("burst", 16, "token-bucket burst")
	retries := fs.Int("retries", 2, "retry budget after a failed instance")
	retryBase := fs.Int64("retry-base", 32, "first retry backoff in ticks")
	breaker := fs.Int("breaker", 5, "consecutive failures tripping a cohort breaker (0 = off)")
	cooldown := fs.Int64("cooldown", 500, "breaker cooldown in ticks before half-open")
	tick := fs.Duration("tick", time.Millisecond, "sim/live-mode wall duration of one workload tick")
	jitter := fs.Duration("jitter", 2*time.Millisecond, "live-mode delivery jitter")
	flap := fs.Int("flap", 0, "live-mode flapping parties")
	restart := fs.Int("restart", 0, "live-mode crash-recovery parties")
	artifacts := fs.String("artifacts", "", "directory for failure incident bundles (see aafuzz -artifacts)")
	csv := fs.Bool("csv", false, "emit the outcome table as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := workload.Parse(*workloadFlag)
	if err != nil {
		return err
	}
	if *saturate {
		w.Arrival.Rate = w.SaturationRate(*workers)
	}
	w = w.Scale(*mult)

	proto, err := core.ParseProtocol(*model)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Protocol: proto, N: *n, T: *t,
		Eps: *eps, Lo: *lo, Hi: *hi, Adaptive: *adaptive,
		Scenario: *scenarioFlag, Reliable: *reliable, Seed: *seed,
	}
	opts := serve.Options{
		Workers: *workers, QueueDepth: *queue, ShedWatermark: *watermark,
		BucketFill: *bucket, BucketBurst: *burst,
		RetryBudget: *retries, RetryBase: *retryBase,
		BreakerThreshold: *breaker, BreakerCooldown: *cooldown,
	}

	var sum *serve.Summary
	switch *mode {
	case "virtual":
		sum, err = serve.Simulate(w, cfg, opts, *horizon)
	case "sim", "live":
		backend := serve.BackendSim
		if *mode == "live" {
			backend = serve.BackendLive
		}
		sum, err = serve.ServeLive(w, cfg, opts, serve.LiveConfig{
			Backend: backend, TickDur: *tick, Requests: *requests,
			MaxJitter: *jitter, FlapParties: *flap, Restarts: *restart,
		})
	default:
		return fmt.Errorf("unknown mode %q (virtual | sim | live)", *mode)
	}
	if err != nil {
		return err
	}

	printSummary(w, sum, *csv)
	if *artifacts != "" {
		serve.WriteArtifacts(*artifacts, sum, cfg, os.Stdout)
	}
	return nil
}

func printSummary(w workload.Spec, sum *serve.Summary, csv bool) {
	tbl := trace.NewTable(fmt.Sprintf("aaserve: %s", w),
		"offered", "admitted", "decided", "shed", "deadline", "brk-open", "degraded",
		"retries", "trips", "goodput/kt", "p50", "p99", "msgs/inst")
	tbl.AddRow(
		fmt.Sprint(sum.Offered),
		fmt.Sprint(sum.Admitted),
		fmt.Sprint(sum.Decided),
		fmt.Sprint(sum.Shed),
		fmt.Sprint(sum.DeadlineExceeded),
		fmt.Sprint(sum.BreakerOpen),
		fmt.Sprint(sum.Degraded),
		fmt.Sprint(sum.Retries),
		fmt.Sprint(sum.BreakerTrips),
		trace.F(sum.Goodput()),
		fmt.Sprint(sum.LatencyP(0.5)),
		fmt.Sprint(sum.LatencyP(0.99)),
		trace.F(sum.MsgsPerInstance()),
	)
	if csv {
		tbl.CSV(os.Stdout)
	} else {
		tbl.Render(os.Stdout)
	}
	if sum.Shed > 0 {
		fmt.Printf("shed attribution: bucket=%d queue=%d watermark=%d\n",
			sum.ShedBucket, sum.ShedQueue, sum.ShedWatermark)
	}
}
