package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 7

// warmBase is the index of the first warm-up op: far from the timed ops,
// so that no timed op repeats work a set-up has just done.
const warmBase = 1 << 20

// verifyOps is how many leading ops are executed a second time to check
// that the simulated statistics repeat exactly.
const verifyOps = 5

// sample is what one timed run of one workload observed.
type sample struct {
	setups []float64 // seconds, one per set-up
	// opMS holds one duration per op in milliseconds (closed loops); ticks
	// holds one latency per decided request in whole ticks of tickMS
	// milliseconds (serve). Exactly one of the two is filled.
	opMS   []float64
	ticks  []int64
	tickMS float64

	// Host time per message and allocations per op. A closed loop reports
	// the median over its ops: one disturbed op does not move it, and the
	// rare op that grows a pool does not swamp the next-to-nothing the warm
	// paths allocate (the steady state the zero-allocation pins are
	// about). On serve requests overlap and the wall is the arrival
	// schedule, so these are the timed section's processor time (user +
	// system) over its messages and its allocations over its requests.
	nsPerMsg     float64
	allocsPerOp  float64
	allocKBPerOp float64

	attempted int
	failed    int
	stats     []opStats // per op, simulated workloads only
	problems  []string  // output checks that failed
}

// coldPools empties the sync.Pools the program keeps (run contexts with
// their wheels, arenas and parties), so that every set-up pays for
// filling them: two collections move a pool's contents to its victim
// cache and then drop them.
func coldPools() {
	runtime.GC()
	runtime.GC()
}

// usage is the process's allocation and processor time so far.
type usage struct {
	mallocs, bytes uint64
	cpu            time.Duration
}

func markUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{m.Mallocs, m.TotalAlloc, cpu}
}

// measure runs one workload for about d with tracing off.
func measure(w *workloadDef, seed int64, d time.Duration) (*sample, error) {
	if w.open != nil {
		return measureServe(w.open, seed, d)
	}
	return measureLoop(w.loop, seed, d)
}

func measureLoop(l *closedLoop, seed int64, d time.Duration) (*sample, error) {
	s := &sample{}
	var op func(int) (opResult, error)
	for r := 0; r < setupReps; r++ {
		coldPools()
		start := time.Now()
		var err error
		if op, err = l.build(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < l.warmOps; i++ {
			if _, err := op(warmBase + i); err != nil {
				return nil, fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
		s.setups = append(s.setups, time.Since(start).Seconds())
	}

	// The allocation counters are read between ops, outside the op's own
	// timing: reading them stops the world for some tens of microseconds.
	var nsPerMsg, mallocs, kb []float64
	var spent time.Duration
	mem := markUsage()
	for i := 0; spent < d; i++ {
		start := time.Now()
		res, err := op(i)
		took := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		now := markUsage()
		mallocs = append(mallocs, float64(now.mallocs-mem.mallocs))
		kb = append(kb, float64(now.bytes-mem.bytes)/1024)
		mem = now
		spent += took
		s.opMS = append(s.opMS, float64(took)/1e6)
		nsPerMsg = append(nsPerMsg, float64(took)/float64(res.msgs))
		s.attempted++
		if !res.ok {
			s.failed++
			s.problems = append(s.problems, fmt.Sprintf("op %d: outcome not OK", i))
		}
		if l.simulated {
			s.stats = append(s.stats, res.stats)
		}
	}
	s.nsPerMsg, s.allocsPerOp, s.allocKBPerOp = median(nsPerMsg), median(mallocs), median(kb)

	if l.simulated {
		for i := 0; i < verifyOps && i < len(s.stats); i++ {
			res, err := op(i)
			if err != nil {
				return nil, fmt.Errorf("verify op %d: %w", i, err)
			}
			if res.stats != s.stats[i] {
				s.problems = append(s.problems, fmt.Sprintf("op %d: second execution gave %+v, first %+v", i, res.stats, s.stats[i]))
			}
		}
	}
	return s, nil
}

// measureServe offers d worth of arrivals and waits for the last outcome.
// Latency runs from the tick a request was due to the tick it was decided.
func measureServe(l *serveLoad, seed int64, d time.Duration) (*sample, error) {
	s := &sample{tickMS: float64(l.tick) / 1e6}
	for r := 0; r < setupReps; r++ {
		coldPools()
		start := time.Now()
		if _, err := l.run(l.warmSpec, seed, l.warmReq); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.setups = append(s.setups, time.Since(start).Seconds())
	}

	requests := int(d.Seconds() * float64(l.perSec))
	mem := markUsage()
	sum, err := l.run(l.spec, seed, requests)
	if err != nil {
		return nil, err
	}
	end := markUsage()
	s.nsPerMsg = float64(end.cpu-mem.cpu) / float64(sum.InstanceMsgs)
	s.allocsPerOp = float64(end.mallocs-mem.mallocs) / float64(requests)
	s.allocKBPerOp = float64(end.bytes-mem.bytes) / 1024 / float64(requests)

	s.attempted = requests
	s.failed = requests - int(sum.Decided)
	for _, o := range sum.Outcomes {
		// Decided is the only outcome that is neither refused, late nor
		// partial; every other one counts as a failed request.
		if o.Outcome != serve.OutcomeDecided {
			continue
		}
		s.ticks = append(s.ticks, o.Latency)
	}
	if !sum.Counters.Accounted() {
		s.problems = append(s.problems, "serve accounting identity violated")
	}
	if int(sum.Offered) != requests {
		s.problems = append(s.problems, fmt.Sprintf("offered %d requests, generated %d", sum.Offered, requests))
	}
	if s.failed > 0 {
		s.problems = append(s.problems, fmt.Sprintf("%d of %d requests not decided: shed %d, deadline %d, degraded %d, breaker %d",
			s.failed, requests, sum.Shed, sum.DeadlineExceeded, sum.Degraded, sum.BreakerOpen))
	}
	return s, nil
}

// quantileMS is the q-quantile of the op time in milliseconds and whether
// the sample has the ten values beyond it that reporting it takes.
func (s *sample) quantileMS(q float64) (float64, bool) {
	if s.ticks != nil {
		v, ok := tickPercentile(s.ticks, q)
		return v * s.tickMS, ok
	}
	return percentile(s.opMS, q)
}

func (s *sample) ops() int {
	if s.ticks != nil {
		return len(s.ticks)
	}
	return len(s.opMS)
}

// metrics derives the end-to-end metrics from one timed run. The median
// op time is reported whatever the op count (the count is printed next to
// it); only percentiles above it wait for ten samples beyond them.
func (s *sample) metrics() map[string]float64 {
	p50, _ := s.quantileMS(0.5)
	return map[string]float64{
		"setup_s":         median(s.setups),
		"ns_per_msg":      s.nsPerMsg,
		"op_ms_p50":       p50,
		"failed_share":    float64(s.failed) / float64(s.attempted),
		"allocs_per_op":   s.allocsPerOp,
		"alloc_kb_per_op": s.allocKBPerOp,
	}
}
