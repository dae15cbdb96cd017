package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/wire"
)

// fakeAPI captures a process's outbound traffic and decisions so protocol
// state machines can be unit-tested without the simulator.
type fakeAPI struct {
	id       sim.PartyID
	n        int
	sent     []sentMsg
	timers   []fakeTimer
	decided  bool
	decision float64
	rng      *rand.Rand
}

type sentMsg struct {
	to   sim.PartyID // -1 for multicast
	data []byte
}

type fakeTimer struct {
	delay sim.Time
	tag   uint64
}

var _ sim.API = (*fakeAPI)(nil)

func newFakeAPI(id sim.PartyID, n int) *fakeAPI {
	return &fakeAPI{id: id, n: n, rng: rand.New(rand.NewSource(1))}
}

func (f *fakeAPI) ID() sim.PartyID  { return f.id }
func (f *fakeAPI) N() int           { return f.n }
func (f *fakeAPI) Rand() *rand.Rand { return f.rng }

func (f *fakeAPI) Send(to sim.PartyID, data []byte) {
	// Snapshot the payload, as both real runtimes do: protocols encode
	// into scratch buffers they reuse for the next message.
	f.sent = append(f.sent, sentMsg{to: to, data: append([]byte(nil), data...)})
}

func (f *fakeAPI) Multicast(data []byte) {
	f.sent = append(f.sent, sentMsg{to: -1, data: append([]byte(nil), data...)})
}

func (f *fakeAPI) SetTimer(delay sim.Time, tag uint64) {
	f.timers = append(f.timers, fakeTimer{delay: delay, tag: tag})
}

func (f *fakeAPI) Decide(v float64) {
	if !f.decided {
		f.decided = true
		f.decision = v
	}
}

// anyBit reports whether any bit is set in a bitset.
func anyBit(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

// lastValue decodes the most recent multicast VALUE message.
func (f *fakeAPI) lastValue(t *testing.T) wire.Value {
	t.Helper()
	for i := len(f.sent) - 1; i >= 0; i-- {
		if k, _ := wire.Peek(f.sent[i].data); k == wire.KindValue {
			m, err := wire.UnmarshalValue(f.sent[i].data)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	t.Fatal("no VALUE message sent")
	return wire.Value{}
}

func crashParams(n, t int) Params {
	return Params{Protocol: ProtoCrash, N: n, T: t, Eps: 0.25, Lo: 0, Hi: 1}
}

func TestParamsValidate(t *testing.T) {
	good := crashParams(5, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Params)
		want error
	}{
		{"crash resilience", func(p *Params) { p.N = 4 }, ErrResilience},
		{"unknown protocol", func(p *Params) { p.Protocol = 99 }, ErrBadParams},
		{"zero protocol", func(p *Params) { p.Protocol = 0 }, ErrBadParams},
		{"negative t", func(p *Params) { p.T = -1 }, ErrBadParams},
		{"zero eps", func(p *Params) { p.Eps = 0 }, ErrBadParams},
		{"nan eps", func(p *Params) { p.Eps = math.NaN() }, ErrBadParams},
		{"inverted range", func(p *Params) { p.Lo, p.Hi = 2, 1 }, ErrBadParams},
		{"inf range", func(p *Params) { p.Hi = math.Inf(1) }, ErrBadParams},
		{"bad gamma", func(p *Params) { p.Gamma = 1.5 }, ErrBadParams},
		{"negative extra", func(p *Params) { p.ExtraRounds = -1 }, ErrBadParams},
		{"quorum too small for func", func(p *Params) { p.Func = multiset.MidExtremes{Trim: 2} }, ErrBadParams},
	}
	for _, c := range cases {
		p := crashParams(5, 2)
		c.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// Byz trim resilience boundary.
	pb := Params{Protocol: ProtoByzTrim, N: 14, T: 2, Eps: 0.1, Lo: 0, Hi: 1}
	if err := pb.Validate(); !errors.Is(err, ErrResilience) {
		t.Errorf("byztrim n=7t accepted: %v", err)
	}
	pb.N = 15
	if err := pb.Validate(); err != nil {
		t.Errorf("byztrim n=7t+1 rejected: %v", err)
	}
	pb.AllowBelowBound = true
	pb.N = 11
	if err := pb.Validate(); err != nil {
		t.Errorf("AllowBelowBound did not bypass resilience: %v", err)
	}
	// Sync needs a round duration.
	ps := Params{Protocol: ProtoSync, N: 4, T: 1, Eps: 0.1, Lo: 0, Hi: 1}
	if err := ps.Validate(); !errors.Is(err, ErrBadParams) {
		t.Errorf("sync without RoundDuration: %v", err)
	}
	ps.RoundDuration = 10
	if err := ps.Validate(); err != nil {
		t.Errorf("sync with RoundDuration rejected: %v", err)
	}
	// Adaptive mode does not need a range.
	pa := Params{Protocol: ProtoCrash, N: 5, T: 2, Eps: 0.1, Adaptive: true,
		Lo: math.NaN(), Hi: math.NaN()}
	if err := pa.Validate(); err != nil {
		t.Errorf("adaptive params rejected: %v", err)
	}
}

func TestFixedRounds(t *testing.T) {
	p := crashParams(5, 2)
	p.Eps = 1.0 / 16
	r, err := p.FixedRounds()
	if err != nil || r != 4 {
		t.Errorf("FixedRounds = %d, %v; want 4", r, err)
	}
	p.ExtraRounds = 3
	r, err = p.FixedRounds()
	if err != nil || r != 7 {
		t.Errorf("FixedRounds with slack = %d, %v; want 7", r, err)
	}
	p.Eps = 10 // wider than the range
	p.ExtraRounds = 0
	r, err = p.FixedRounds()
	if err != nil || r != 0 {
		t.Errorf("pre-converged FixedRounds = %d, %v; want 0", r, err)
	}
}

func TestProtocolString(t *testing.T) {
	for proto, want := range map[Protocol]string{
		ProtoCrash:   "crash-aa",
		ProtoByzTrim: "byztrim-aa",
		ProtoWitness: "witness-aa",
		ProtoSync:    "sync-aa",
		Protocol(42): "protocol(42)",
	} {
		if got := proto.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestNewAsyncAARejects(t *testing.T) {
	if _, err := NewAsyncAA(Params{Protocol: ProtoWitness, N: 4, T: 1, Eps: 0.1, Hi: 1}, 0); err == nil {
		t.Error("witness protocol accepted by AsyncAA")
	}
	if _, err := NewAsyncAA(crashParams(5, 2), math.NaN()); err == nil {
		t.Error("NaN input accepted")
	}
	if _, err := NewAsyncAA(crashParams(5, 2), 7); err == nil {
		t.Error("out-of-range input accepted in fixed mode")
	}
	p := crashParams(5, 2)
	p.Adaptive = true
	if _, err := NewAsyncAA(p, 7); err != nil {
		t.Errorf("adaptive mode rejected out-of-range input: %v", err)
	}
}

// feed delivers a VALUE message to the protocol.
func feed(t testing.TB, a *AsyncAA, from sim.PartyID, round uint32, v float64) {
	t.Helper()
	a.Deliver(from, wire.MarshalValue(wire.Value{Round: round, Value: v, Horizon: horizonOf(a)}))
}

func horizonOf(a *AsyncAA) uint32 { return a.horizon }

func TestAsyncAARoundAdvance(t *testing.T) {
	p := crashParams(3, 1)
	p.Eps = 0.25 // range 1 -> 2 rounds
	a, err := NewAsyncAA(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 3)
	a.Init(api)
	if got := a.Round(); got != 1 {
		t.Fatalf("round after init = %d", got)
	}
	first := api.lastValue(t)
	if first.Round != 1 || first.Value != 1 {
		t.Fatalf("first VALUE = %+v", first)
	}
	// Quorum is 2: own value plus one other.
	feed(t, a, 0, 1, 1) // own loopback
	if a.Round() != 1 {
		t.Fatal("advanced without quorum")
	}
	feed(t, a, 1, 1, 0)
	if a.Round() != 2 {
		t.Fatalf("round = %d after quorum, want 2", a.Round())
	}
	second := api.lastValue(t)
	if second.Round != 2 || second.Value != 0.5 {
		t.Fatalf("second VALUE = %+v, want midpoint 0.5", second)
	}
	// Finish round 2: values 0.5 (own) and 0.5 -> decide 0.5.
	feed(t, a, 0, 2, 0.5)
	feed(t, a, 2, 2, 0.5)
	if !a.Decided() || !api.decided || api.decision != 0.5 {
		t.Fatalf("decided=%v decision=%v", api.decided, api.decision)
	}
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
}

func TestAsyncAADuplicateAndGarbageIgnored(t *testing.T) {
	p := crashParams(3, 1)
	p.Eps = 0.25
	a, err := NewAsyncAA(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 3)
	a.Init(api)
	feed(t, a, 1, 1, 0)
	// Duplicate from the same sender must not complete the quorum.
	feed(t, a, 1, 1, 0.9)
	if a.Round() != 1 {
		t.Fatal("duplicate sender value advanced the round")
	}
	// Garbage and non-finite values are dropped.
	a.Deliver(2, []byte{0xFF, 0x01})
	a.Deliver(2, nil)
	a.Deliver(2, wire.MarshalValue(wire.Value{Round: 1, Value: math.NaN()}))
	a.Deliver(2, wire.MarshalValue(wire.Value{Round: 1, Value: math.Inf(1)}))
	a.Deliver(2, wire.MarshalValue(wire.Value{Round: 0, Value: 0.5})) // round 0 invalid
	if a.Round() != 1 {
		t.Fatal("garbage advanced the round")
	}
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
}

func TestAsyncAABuffersFutureRounds(t *testing.T) {
	p := crashParams(3, 1)
	p.Eps = 0.25
	a, err := NewAsyncAA(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 3)
	a.Init(api)
	// Round 2 values arrive before round 1 completes.
	feed(t, a, 1, 2, 0.25)
	feed(t, a, 2, 2, 0.25)
	if a.Round() != 1 {
		t.Fatal("future values advanced the round early")
	}
	// Completing round 1 should then cascade straight through round 2.
	feed(t, a, 0, 1, 0)
	feed(t, a, 1, 1, 0.5)
	if !a.Decided() {
		t.Fatal("cascade did not run buffered round 2")
	}
}

func TestAsyncAADecideImmediatelyWhenConverged(t *testing.T) {
	p := crashParams(3, 1)
	p.Eps = 5 // wider than range
	a, err := NewAsyncAA(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 3)
	a.Init(api)
	if !api.decided || api.decision != 0.5 {
		t.Fatalf("expected immediate decision, got %v %v", api.decided, api.decision)
	}
}

func TestAsyncAAAdaptiveFlow(t *testing.T) {
	p := crashParams(3, 1)
	p.Adaptive = true
	p.Eps = 0.25
	a, err := NewAsyncAA(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 3)
	a.Init(api)
	// Must multicast INIT, not VALUE.
	if k, _ := wire.Peek(api.sent[0].data); k != wire.KindInit {
		t.Fatalf("first message kind = %v, want INIT", k)
	}
	// Two INITs (quorum) with spread 1 -> horizon = log2(1/0.25) = 2.
	a.Deliver(0, wire.MarshalInit(wire.Init{Value: 0}))
	a.Deliver(1, wire.MarshalInit(wire.Init{Value: 1}))
	if a.horizon != 2 {
		t.Fatalf("horizon = %d, want 2", a.horizon)
	}
	if a.Round() != 1 {
		t.Fatalf("rounds did not start")
	}
	// A late INIT that widens the spread extends the horizon.
	a.Deliver(2, wire.MarshalInit(wire.Init{Value: 4}))
	if a.horizon != 4 {
		t.Fatalf("horizon after late INIT = %d, want 4 (log2(4/0.25))", a.horizon)
	}
	// Horizon also extends from piggybacked VALUE horizons.
	a.Deliver(1, wire.MarshalValue(wire.Value{Round: 1, Horizon: 9, Value: 0.5}))
	if a.horizon != 9 {
		t.Fatalf("horizon after piggyback = %d, want 9", a.horizon)
	}
}

func TestAsyncAAFrozenDecidedValues(t *testing.T) {
	p := crashParams(3, 1)
	p.Adaptive = true
	p.Eps = 0.25
	a, err := NewAsyncAA(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 3)
	a.Init(api)
	a.Deliver(0, wire.MarshalInit(wire.Init{Value: 0}))
	a.Deliver(1, wire.MarshalInit(wire.Init{Value: 1}))
	// Party 2 announces DECIDED: its value counts for every round.
	a.Deliver(2, wire.MarshalDecided(wire.Decided{Value: 1}))
	feed(t, a, 0, 1, 0) // own value; with frozen party 2 that's quorum 2
	if a.Round() != 2 {
		t.Fatalf("frozen value did not complete quorum: round %d", a.Round())
	}
	if v, _ := a.Estimate(); v != 0.5 {
		t.Fatalf("estimate = %v, want midpoint 0.5", v)
	}
}

func TestSyncAAFlow(t *testing.T) {
	p := Params{Protocol: ProtoSync, N: 4, T: 1, Eps: 0.25, Lo: 0, Hi: 1,
		RoundDuration: 10, Gamma: 0.5} // 2 rounds
	s, err := NewSyncAA(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 4)
	s.Init(api)
	if len(api.timers) != 1 || api.timers[0].delay != 10 {
		t.Fatalf("timers = %+v", api.timers)
	}
	// Deliver all four round-1 values, then fire the boundary.
	vals := []float64{0, 0.2, 0.8, 1}
	for i, v := range vals {
		s.Deliver(sim.PartyID(i), wire.MarshalValue(wire.Value{Round: 1, Value: v}))
	}
	s.OnTimer(1)
	if s.err != nil {
		t.Fatal(s.err)
	}
	// MidExtremes trim 1: core {0.2, 0.8} -> 0.5.
	if v, _ := s.Estimate(); v != 0.5 {
		t.Fatalf("estimate after round 1 = %v", v)
	}
	// Round 2 with everyone at 0.5 decides.
	for i := 0; i < 4; i++ {
		s.Deliver(sim.PartyID(i), wire.MarshalValue(wire.Value{Round: 2, Value: 0.5}))
	}
	s.OnTimer(2)
	if !api.decided || api.decision != 0.5 {
		t.Fatalf("decided=%v decision=%v", api.decided, api.decision)
	}
}

func TestSyncAASynchronyViolation(t *testing.T) {
	p := Params{Protocol: ProtoSync, N: 4, T: 1, Eps: 0.25, Lo: 0, Hi: 1, RoundDuration: 10}
	s, err := NewSyncAA(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 4)
	s.Init(api)
	// Only one value arrives before the boundary: below MinInputs(3).
	s.Deliver(0, wire.MarshalValue(wire.Value{Round: 1, Value: 0}))
	s.OnTimer(1)
	if s.Err() == nil {
		t.Fatal("synchrony violation not reported")
	}
}

func TestWitnessAAConstruction(t *testing.T) {
	p := Params{Protocol: ProtoWitness, N: 4, T: 1, Eps: 0.25, Lo: 0, Hi: 1}
	if _, err := NewWitnessAA(p, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWitnessAA(p, 2); err == nil {
		t.Error("out-of-range input accepted")
	}
	if _, err := NewWitnessAA(p, math.Inf(1)); err == nil {
		t.Error("infinite input accepted")
	}
	p.Adaptive = true
	if _, err := NewWitnessAA(p, 0.5); err == nil {
		t.Error("adaptive witness accepted")
	}
	p.Adaptive = false
	p.Protocol = ProtoCrash
	if _, err := NewWitnessAA(p, 0.5); err == nil {
		t.Error("wrong protocol accepted")
	}
}

func TestWitnessAAReportValidation(t *testing.T) {
	p := Params{Protocol: ProtoWitness, N: 4, T: 1, Eps: 0.25, Lo: 0, Hi: 1}
	w, err := NewWitnessAA(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 4)
	w.Init(api)
	// Reports that are too short, too long, or with out-of-range senders
	// are dropped without effect.
	w.Deliver(1, wire.MarshalReport(wire.Report{Round: 1, Senders: []uint16{1}}))
	w.Deliver(1, wire.MarshalReport(wire.Report{Round: 1, Senders: []uint16{0, 1, 2, 3, 3}}))
	w.Deliver(1, wire.MarshalReport(wire.Report{Round: 1, Senders: []uint16{0, 1, 99}}))
	if a := w.rounds[1].arr; a != nil && (a.satCnt != 0 || anyBit(a.pendActive)) {
		t.Fatal("invalid reports retained")
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
}
