package core

import (
	"math"
	"testing"

	"repro/internal/wire"
)

func TestNewSyncAARejects(t *testing.T) {
	good := Params{Protocol: ProtoSync, N: 4, T: 1, Eps: 0.25, Lo: 0, Hi: 1, RoundDuration: 10}
	if _, err := NewSyncAA(good, 0.5); err != nil {
		t.Fatal(err)
	}
	wrongProto := good
	wrongProto.Protocol = ProtoCrash
	if _, err := NewSyncAA(wrongProto, 0.5); err == nil {
		t.Error("wrong protocol accepted")
	}
	if _, err := NewSyncAA(good, math.NaN()); err == nil {
		t.Error("NaN input accepted")
	}
	if _, err := NewSyncAA(good, 5); err == nil {
		t.Error("out-of-range input accepted")
	}
	bad := good
	bad.RoundDuration = 0
	if _, err := NewSyncAA(bad, 0.5); err == nil {
		t.Error("missing round duration accepted")
	}
}

func TestSyncAAImmediateDecision(t *testing.T) {
	p := Params{Protocol: ProtoSync, N: 4, T: 1, Eps: 10, Lo: 0, Hi: 1, RoundDuration: 10}
	s, err := NewSyncAA(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 4)
	s.Init(api)
	if !api.decided || api.decision != 0.5 {
		t.Fatalf("pre-converged sync did not decide: %v %v", api.decided, api.decision)
	}
	if len(api.timers) != 0 {
		t.Error("timers set despite immediate decision")
	}
}

func TestWitnessAAImmediateDecision(t *testing.T) {
	p := Params{Protocol: ProtoWitness, N: 4, T: 1, Eps: 10, Lo: 0, Hi: 1}
	w, err := NewWitnessAA(p, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 4)
	w.Init(api)
	if !api.decided || api.decision != 0.25 {
		t.Fatalf("pre-converged witness did not decide: %v %v", api.decided, api.decision)
	}
}

func TestWitnessAAAccessors(t *testing.T) {
	p := Params{Protocol: ProtoWitness, N: 4, T: 1, Eps: 0.25, Lo: 0, Hi: 1}
	w, err := NewWitnessAA(p, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := w.Estimate(); !ok || v != 0.75 {
		t.Errorf("Estimate = %v, %v", v, ok)
	}
	api := newFakeAPI(0, 4)
	w.Init(api)
	if w.Round() != 1 {
		t.Errorf("Round = %d", w.Round())
	}
}

func TestAsyncAADoubleDecideIgnored(t *testing.T) {
	p := crashParams(3, 1)
	p.Eps = 10 // immediate decision
	a, err := NewAsyncAA(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 3)
	a.Init(api)
	if !a.Decided() {
		t.Fatal("no immediate decision")
	}
	// Messages after deciding are harmless.
	a.Deliver(1, wire.MarshalValue(wire.Value{Round: 1, Value: 0}))
	a.Deliver(1, wire.MarshalDecided(wire.Decided{Value: 0}))
	if api.decision != 0.5 {
		t.Errorf("decision changed to %v", api.decision)
	}
}

func TestDefaultFuncUnknownProtocol(t *testing.T) {
	p := Params{Protocol: Protocol(42)}
	if p.DefaultFunc() != nil {
		t.Error("unknown protocol returned a function")
	}
	if MinN(Protocol(42), 1) != math.MaxInt {
		t.Error("unknown protocol MinN not saturated")
	}
}

// TestMaxTInvertsMinN checks that MaxT is MinN's inverse: at every n, the
// bound it returns fits and one more fault does not.
func TestMaxTInvertsMinN(t *testing.T) {
	for p := ProtoCrash; p <= ProtoSync; p++ {
		for n := 1; n <= 200; n++ {
			mt := MaxT(p, n)
			if !(MinN(p, mt) <= n && n < MinN(p, mt+1)) {
				t.Errorf("%s n=%d: MaxT=%d, MinN(%d)=%d, MinN(%d)=%d",
					p, n, mt, mt, MinN(p, mt), mt+1, MinN(p, mt+1))
			}
		}
	}
}

func TestAsyncAAFailPath(t *testing.T) {
	// Force an internal error by corrupting the function after
	// construction (simulates an invariant break) and verify the protocol
	// stalls with a recorded error instead of panicking.
	p := crashParams(3, 1)
	p.Eps = 0.25
	a, err := NewAsyncAA(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.fn = brokenFunc{}
	api := newFakeAPI(0, 3)
	a.Init(api)
	feed(t, a, 0, 1, 0)
	feed(t, a, 1, 1, 1)
	if a.Err() == nil {
		t.Fatal("broken function did not surface an error")
	}
	if a.Decided() {
		t.Fatal("decided despite internal error")
	}
	// Further traffic is ignored once failed.
	feed(t, a, 2, 1, 1)
	if a.Round() != 1 {
		t.Error("advanced after failure")
	}
}

type brokenFunc struct{}

func (brokenFunc) Name() string                     { return "broken" }
func (brokenFunc) MinInputs() int                   { return 1 }
func (brokenFunc) Apply([]float64) (float64, error) { return 0, errBroken }

var errBroken = errTestBroken{}

type errTestBroken struct{}

func (errTestBroken) Error() string { return "broken on purpose" }
