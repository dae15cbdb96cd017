package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/wire"
)

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
	for p := ProtoCrash; int(p) < len(protoTokens); p++ {
		for n := 1; n <= 200; n++ {
			mt := MaxT(p, n)
			if !(MinN(p, mt) <= n && n < MinN(p, mt+1)) {
				t.Errorf("%s n=%d: MaxT=%d, MinN(%d)=%d, MinN(%d)=%d",
					p, n, mt, mt, MinN(p, mt), mt+1, MinN(p, mt+1))
			}
		}
	}
}

// TestProtocolTokens pins the token vocabulary: it is what committed
// incident bundles and the CLIs' -model flags spell, so it must not move.
func TestProtocolTokens(t *testing.T) {
	want := [...]string{ProtoCrash: "crash", ProtoByzTrim: "trim", ProtoWitness: "witness"}
	if len(want) != len(protoTokens) {
		t.Fatalf("family has %d protocols, test pins %d", len(protoTokens)-1, len(want)-1)
	}
	for p := ProtoCrash; int(p) < len(want); p++ {
		tok := want[p]
		if got := p.Token(); got != tok {
			t.Errorf("%s.Token() = %q, want %q", p, got, tok)
		}
		if back, err := ParseProtocol(tok); err != nil || back != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", tok, back, err)
		}
	}
	if tok := Protocol(42).Token(); tok != "" {
		t.Errorf("unknown protocol has token %q", tok)
	}
	for _, tok := range []string{"", "paxos", "sync", "crash-aa", "Crash"} {
		_, err := ParseProtocol(tok)
		if !errors.Is(err, ErrBadParams) {
			t.Errorf("ParseProtocol(%q): %v", tok, err)
		} else if !strings.Contains(err.Error(), "(crash | trim | witness)") {
			t.Errorf("ParseProtocol(%q) error does not list the tokens: %v", tok, err)
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
