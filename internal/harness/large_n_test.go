package harness

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestE12LargeN512Smoke exercises the n=512 scale axis the batched
// delivery + SoA work unlocks: a reduced scenario slice (one benign and
// two adversarial schedulers, fault-free and crash-storm) at n=512 on the
// crash protocol, asserting full invariant success. It runs from the CI
// scale job (make e12-smoke); locally it is opt-in via
// E12_LARGE_SMOKE=1 because a single run pushes ~3M messages.
func TestE12LargeN512Smoke(t *testing.T) {
	if os.Getenv("E12_LARGE_SMOKE") == "" {
		t.Skip("set E12_LARGE_SMOKE=1 to run the n=512 sweep smoke")
	}
	const n = 512
	p := core.Params{Protocol: core.ProtoCrash, N: n, T: (n - 1) / 2, Eps: 1e-3, Lo: 0, Hi: 1}
	var specs []Spec
	var labels []string
	for _, scen := range []string{
		"random/n=512,t=255",
		"splitviews/n=512,t=255",
		"splitviews+crash/n=512,t=255",
		"staggered+crash/n=512,t=255",
	} {
		spec, err := SpecFrom(p, BimodalInputs(n, 0, 1), scenario.MustParse(scen), 17)
		if err != nil {
			t.Fatal(err)
		}
		spec.MaxEvents = 50_000_000
		specs = append(specs, spec)
		labels = append(labels, scen)
	}
	reps, err := RunAllLabeled(specs, func(i int) string { return "E12-512 " + labels[i] })
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if !rep.OK() {
			t.Errorf("%s: %s", labels[i], rep.Failure())
		}
		t.Logf("%s: %d msgs, %d delivered, rounds %.2f",
			labels[i], rep.Result.Stats.MessagesSent, rep.Result.Stats.MessagesDelivered, rep.Result.Rounds())
	}
}

// TestE12XL1024Smoke exercises the n=1024 scale axis: the reduced E12-XL
// slice with full invariant success. It runs from the CI scale job
// (make e12-xl); locally it is opt-in via E12_XL_SMOKE=1 because a single
// fault-free n=1024 run pushes ~10M messages. The rows run one at a time,
// and each logs its peak HeapInuse, sampled by a goroutine beside the run.
// The peaks are reported, not gated: a sampled peak is too noisy to bound.
func TestE12XL1024Smoke(t *testing.T) {
	if os.Getenv("E12_XL_SMOKE") == "" {
		t.Skip("set E12_XL_SMOKE=1 to run the n=1024 smoke")
	}
	rows, specs, err := e12XLSpecs([]int{1024})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{}
	reps := make([]*Report, len(specs))
	for i, spec := range specs {
		// Two collections empty the context pool (its victim cache too), so
		// each row starts from a fresh run context, not the last row's.
		runtime.GC()
		runtime.GC()
		stop := sampleHeapInuse(5 * time.Millisecond)
		reps[i], err = e.Run(spec)
		peak := stop()
		if err != nil {
			t.Fatalf("%s: %v", rows[i], err)
		}
		t.Logf("%s: peak HeapInuse %.0f MB", rows[i], float64(peak)/(1<<20))
	}
	var sb strings.Builder
	if err := e12XLTable(rows, reps).Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "false") {
		t.Errorf("E12-XL row failed invariants:\n%s", sb.String())
	}
	t.Logf("E12-XL n=1024:\n%s", sb.String())
}

// sampleHeapInuse reads runtime.MemStats.HeapInuse every interval on a
// goroutine of its own until the returned stop function is called, which
// returns the largest value read.
func sampleHeapInuse(interval time.Duration) (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var top uint64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			top = max(top, ms.HeapInuse)
			select {
			case <-done:
				peak <- top
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}
