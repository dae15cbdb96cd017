package fault

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// recorder implements sim.API and captures traffic per recipient.
type recorder struct {
	id   sim.PartyID
	n    int
	sent map[sim.PartyID][][]byte
	rng  *rand.Rand
}

var _ sim.API = (*recorder)(nil)

func newRecorder(id sim.PartyID, n int) *recorder {
	return &recorder{id: id, n: n, sent: map[sim.PartyID][][]byte{}, rng: rand.New(rand.NewSource(1))}
}

func (r *recorder) ID() sim.PartyID           { return r.id }
func (r *recorder) N() int                    { return r.n }
func (r *recorder) Rand() *rand.Rand          { return r.rng }
func (r *recorder) Decide(float64)            {}
func (r *recorder) SetTimer(sim.Time, uint64) {}

// Send snapshots the payload, as every real runtime does (behavior procs
// encode into reusable scratch buffers and rely on it).
func (r *recorder) Send(to sim.PartyID, d []byte) {
	r.sent[to] = append(r.sent[to], append([]byte(nil), d...))
}
func (r *recorder) Multicast(d []byte) {
	for i := 0; i < r.n; i++ {
		r.Send(sim.PartyID(i), d)
	}
}

func stdEnv() Env { return Env{N: 6, Rounds: 4, Lo: 0, Hi: 10} }

func TestSilent(t *testing.T) {
	rec := newRecorder(2, 6)
	proc := Silent{}.New(stdEnv())
	proc.Init(rec)
	proc.Deliver(0, []byte{1, 2, 3})
	if len(rec.sent) != 0 {
		t.Errorf("silent behavior sent %d messages", len(rec.sent))
	}
	if (Silent{}).Name() != "silent" {
		t.Error("name mismatch")
	}
}

// TestExtremeRelScalesWithRange pins the range-relative extreme behavior:
// the pushed value must sit Scale range-widths past the high end of the
// promised range the behavior learns from Env — on any range.
func TestExtremeRelScalesWithRange(t *testing.T) {
	for _, env := range []Env{
		{N: 6, Rounds: 2, Lo: 0, Hi: 1},
		{N: 6, Rounds: 2, Lo: -50, Hi: 50},
		{N: 6, Rounds: 2, Lo: 1000, Hi: 3000},
	} {
		rec := newRecorder(2, env.N)
		ExtremeRel{Scale: 100}.New(env).Init(rec)
		want := env.Hi + 100*(env.Hi-env.Lo)
		seen := false
		for _, msgs := range rec.sent {
			for _, m := range msgs {
				if k, _ := wire.Peek(m); k != wire.KindValue {
					continue
				}
				v, err := wire.UnmarshalValue(m)
				if err != nil {
					t.Fatal(err)
				}
				seen = true
				if v.Value != want {
					t.Fatalf("range [%v,%v]: pushed %v, want %v", env.Lo, env.Hi, v.Value, want)
				}
			}
		}
		if !seen {
			t.Fatalf("range [%v,%v]: no value messages sent", env.Lo, env.Hi)
		}
	}
	if (ExtremeRel{}).Name() != "extreme" {
		t.Error("name mismatch")
	}
}

func TestExtremeSendsEveryDialect(t *testing.T) {
	rec := newRecorder(2, 6)
	Extreme{Value: 999}.New(stdEnv()).Init(rec)
	kinds := map[wire.Kind]int{}
	rounds := map[uint32]bool{}
	for _, msgs := range rec.sent {
		for _, m := range msgs {
			k, err := wire.Peek(m)
			if err != nil {
				t.Fatalf("extreme sent undecodable message: %v", err)
			}
			kinds[k]++
			if k == wire.KindValue {
				v, _ := wire.UnmarshalValue(m)
				if v.Value != 999 {
					t.Fatalf("value = %v", v.Value)
				}
				rounds[v.Round] = true
			}
		}
	}
	for _, k := range []wire.Kind{wire.KindValue, wire.KindRBC, wire.KindInit, wire.KindDecided} {
		if kinds[k] == 0 {
			t.Errorf("no messages of kind %d", k)
		}
	}
	for r := uint32(1); r <= 4; r++ {
		if !rounds[r] {
			t.Errorf("round %d not covered", r)
		}
	}
}

func TestEquivocateSplitsNetwork(t *testing.T) {
	env := stdEnv()
	rec := newRecorder(0, env.N)
	Equivocate{Stretch: 1}.New(env).Init(rec)
	// Low-half recipients must see strictly smaller VALUE payloads than
	// high-half recipients, and the two must differ (the equivocation).
	loVal, hiVal := math.Inf(1), math.Inf(-1)
	for p := 0; p < env.N; p++ {
		for _, m := range rec.sent[sim.PartyID(p)] {
			if k, _ := wire.Peek(m); k == wire.KindValue {
				v, _ := wire.UnmarshalValue(m)
				if p < env.N/2 {
					loVal = math.Min(loVal, v.Value)
				} else {
					hiVal = math.Max(hiVal, v.Value)
				}
			}
		}
	}
	if !(loVal < hiVal) {
		t.Fatalf("no equivocation: lo=%v hi=%v", loVal, hiVal)
	}
	if loVal != -10 || hiVal != 20 {
		t.Errorf("stretch wrong: lo=%v hi=%v, want -10, 20", loVal, hiVal)
	}
}

func TestSpamIsDecodableOrDroppable(t *testing.T) {
	env := stdEnv()
	rec := newRecorder(1, env.N)
	Spam{}.New(env).Init(rec)
	total := 0
	for _, msgs := range rec.sent {
		total += len(msgs)
		for _, m := range msgs {
			// Must never panic any decoder; errors are fine.
			if k, err := wire.Peek(m); err == nil {
				switch k {
				case wire.KindValue:
					_, _ = wire.UnmarshalValue(m)
				case wire.KindRBC:
					_, _ = wire.UnmarshalRBC(m)
				case wire.KindReport:
					_, _ = wire.UnmarshalReport(m)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("spam sent nothing")
	}
}

func TestAmplifierReactsToWideningValues(t *testing.T) {
	env := stdEnv()
	rec := newRecorder(3, env.N)
	proc := Amplifier{Push: 0.5}.New(env)
	proc.Init(rec)
	initial := countAll(rec)
	if initial == 0 {
		t.Fatal("amplifier sent nothing at init")
	}
	// A value inside the known range must not trigger a re-blast.
	proc.Deliver(1, wire.MarshalValue(wire.Value{Round: 1, Value: 5}))
	if countAll(rec) != initial {
		t.Error("in-range value triggered a blast")
	}
	// A value beyond the range widens the bounds and triggers a re-blast
	// with the new extreme.
	proc.Deliver(1, wire.MarshalValue(wire.Value{Round: 1, Value: 100}))
	if countAll(rec) <= initial {
		t.Error("widening value did not trigger a blast")
	}
	// NaN and garbage are ignored.
	before := countAll(rec)
	proc.Deliver(1, wire.MarshalValue(wire.Value{Round: 1, Value: math.NaN()}))
	proc.Deliver(1, []byte{0x01})
	if countAll(rec) != before {
		t.Error("garbage triggered a blast")
	}
}

func countAll(r *recorder) int {
	total := 0
	for _, msgs := range r.sent {
		total += len(msgs)
	}
	return total
}
