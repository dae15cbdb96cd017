package harness

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestE12LargeN512Smoke exercises the n=512 scale axis the batched
// delivery + SoA work unlocks: a reduced scenario slice (one benign and
// two adversarial schedulers, fault-free and crash-storm) at n=512 on the
// crash protocol, asserting full invariant success. It runs from the CI
// bench-smoke job (make e12-smoke); locally it is opt-in via
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
// slice with full invariant success. It runs from the CI bench-smoke job
// (make e12-xl); locally it is opt-in via E12_XL_SMOKE=1 because a single
// fault-free n=1024 run pushes ~10M messages.
func TestE12XL1024Smoke(t *testing.T) {
	if os.Getenv("E12_XL_SMOKE") == "" {
		t.Skip("set E12_XL_SMOKE=1 to run the n=1024 smoke")
	}
	tbl, err := E12XLSizes(&Engine{}, []int{1024})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "false") {
		t.Errorf("E12-XL row failed invariants:\n%s", sb.String())
	}
	t.Logf("E12-XL n=1024:\n%s", sb.String())
}
