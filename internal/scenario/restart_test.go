package scenario

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// recoverRoundTripSpecs are canonical specs with restart axes.
var recoverRoundTripSpecs = []string{
	"random+recover/n=9,t=2",
	"sync+recover:2:300:50/n=9,t=3",
	"random+amnesia/n=9,t=1",
	"random+amnesia:1:250/n=9,t=2",
	"random+loss:0.05+recover:1:400:100/n=9,t=2",
}

func TestRecoverParseRoundTrip(t *testing.T) {
	for _, raw := range recoverRoundTripSpecs {
		s, err := Parse(raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		if got := s.String(); got != raw {
			t.Errorf("round trip %q -> %q", raw, got)
		}
		again, err := Parse(s.String())
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Errorf("re-parse of %q drifted: %+v vs %+v (%v)", raw, again, s, err)
		}
	}
}

func TestRecoverResolvePlans(t *testing.T) {
	res, err := MustParse("random+recover:2:300:50/n=9,t=3").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.RestartPlan{
		{Party: 1, Checkpoint: 250, Down: 300, Rejoin: 300 + restartDarkLen},
		{Party: 2, Checkpoint: 250, Down: 300, Rejoin: 300 + restartDarkLen},
	}
	if !reflect.DeepEqual(res.Restarts, want) {
		t.Errorf("plans %+v, want %+v", res.Restarts, want)
	}
	// The darkness window wraps the scheduler: both planned parties are
	// dark over [down, rejoin).
	out, ok := res.Scheduler.Scheduler.(*fault.Outage)
	if !ok {
		t.Fatalf("scheduler %T, want *fault.Outage darkness wrapper", res.Scheduler.Scheduler)
	}
	if out.First != 1 || out.Last != 2 || out.Start != 300 || out.Len != restartDarkLen {
		t.Errorf("darkness window %+v", out)
	}

	// Amnesia recovers from the zero checkpoint regardless of down time.
	res, err = MustParse("random+amnesia:1:250/n=9,t=2").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want = []sim.RestartPlan{{Party: 1, Checkpoint: 0, Down: 250, Rejoin: 250 + restartDarkLen}}
	if !reflect.DeepEqual(res.Restarts, want) {
		t.Errorf("amnesia plans %+v, want %+v", res.Restarts, want)
	}

	// A lag deeper than the down time clamps to the zero checkpoint.
	res, err = MustParse("random+recover:1:100:500/n=9,t=1").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts[0].Checkpoint != 0 {
		t.Errorf("deep-lag checkpoint %d, want 0", res.Restarts[0].Checkpoint)
	}

	// Restart-free specs resolve with no plans.
	res, err = MustParse("random+loss/n=9,t=2").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != nil {
		t.Errorf("loss-only spec carries restart plans: %+v", res.Restarts)
	}
}

// recoverRejectSpecs maps restart specs Parse must reject to the reason.
var recoverRejectSpecs = map[string]string{
	"random+recover/n=9":                 "restart without explicit t",
	"random+recover/n=9,t=0":             "restart with zero fault slots",
	"random+recover:3:400:100/n=9,t=2":   "k exceeds t",
	"random+recover:0:400:100/n=9,t=2":   "k below 1",
	"random+recover:1:0:100/n=9,t=2":     "down below 1",
	"random+recover:1:400:-1/n=9,t=2":    "negative lag",
	"random+recover:1:400/n=9,t=2":       "recover arg arity",
	"random+amnesia:1:400:100/n=9,t=2":   "amnesia arg arity",
	"random+recover:x:400:100/n=9,t=2":   "garbage k",
	"random+crash+recover/n=9,t=2":       "party faults compose with restarts",
	"random+recover+amnesia/n=9,t=2":     "two restart axes",
	"random+recover:1:2000000:0/n=9,t=2": "down past the delay cap",
}

func TestRecoverParseRejects(t *testing.T) {
	for raw, why := range recoverRejectSpecs {
		if _, err := Parse(raw); err == nil {
			t.Errorf("Parse(%q) accepted (%s)", raw, why)
		}
	}
}

// Satellite: window-bearing axes reject unreachable windows with the
// ErrBadWindow sentinel at spec time instead of silently no-op'ing.
func TestWindowValidation(t *testing.T) {
	cases := []struct {
		raw     string
		badWin  bool
		comment string
	}{
		{"random+outage:2:50:0/n=9,t=2", true, "zero-length outage"},
		{"random+outage:2:50:-3/n=9,t=2", true, "negative outage length"},
		{"random+outage:2:9999999:10/n=9,t=2", true, "outage start past delay cap"},
		{"random+outage:2:-1:10/n=9,t=2", true, "negative outage start"},
		{"random+flap:0/n=9,t=2", true, "zero-length flap"},
		{"random+flap:-5/n=9,t=2", true, "negative flap length"},
		{"random+flap:9999999/n=9,t=2", true, "flap length past delay cap"},
		{"random+recover:1:9999999:0/n=9,t=2", true, "recover down past delay cap"},
		{"random+outage:2:50:100/n=9,t=2", false, "valid outage"},
		{"random+flap:60/n=9,t=2", false, "valid flap"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.raw)
		if tc.badWin {
			if !errors.Is(err, ErrBadWindow) {
				t.Errorf("%s (%q): err = %v, want ErrBadWindow", tc.comment, tc.raw, err)
			}
		} else if err != nil {
			t.Errorf("%s (%q): %v", tc.comment, tc.raw, err)
		}
	}
}

// TestSlotFree pins which tokens occupy no fault slot: the network and
// crash-recovery axes, bare or with an argument. A party fault with a
// suffix is no token at all.
func TestSlotFree(t *testing.T) {
	for tok, want := range map[string]bool{
		"recover":           true,
		"recover:1:400:100": true,
		"amnesia":           true,
		"amnesia:1:250":     true,
		"outage":            true,
		"loss:0.05":         true,
		"flap:60":           true,
		"crash":             false,
		"crash:3":           false,
		"equivocate":        false,
		"gremlin":           false,
	} {
		if got := SlotFree(tok); got != want {
			t.Errorf("SlotFree(%q) = %v, want %v", tok, got, want)
		}
	}
}
