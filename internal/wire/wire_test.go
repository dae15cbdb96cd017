package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInitRoundtrip(t *testing.T) {
	in := Init{Value: -3.75}
	out, err := UnmarshalInit(MarshalInit(in))
	if err != nil || out != in {
		t.Errorf("roundtrip: %+v, %v", out, err)
	}
}

func TestValueRoundtrip(t *testing.T) {
	in := Value{Round: 42, Horizon: 99, Value: math.Pi}
	out, err := UnmarshalValue(MarshalValue(in))
	if err != nil || out != in {
		t.Errorf("roundtrip: %+v, %v", out, err)
	}
}

func TestDecidedRoundtrip(t *testing.T) {
	in := Decided{Value: 1e-300}
	out, err := UnmarshalDecided(MarshalDecided(in))
	if err != nil || out != in {
		t.Errorf("roundtrip: %+v, %v", out, err)
	}
}

func TestRBCRoundtrip(t *testing.T) {
	for _, phase := range []byte{RBCSend, RBCEcho, RBCReady} {
		in := RBC{Phase: phase, Origin: 513, Round: 7, Value: -0.25}
		out, err := UnmarshalRBC(MarshalRBC(in))
		if err != nil || out != in {
			t.Errorf("roundtrip phase %d: %+v, %v", phase, out, err)
		}
	}
}

func TestRBCBadPhase(t *testing.T) {
	b := MarshalRBC(RBC{Phase: RBCSend, Origin: 1, Round: 1, Value: 0})
	b[1] = 0
	if _, err := UnmarshalRBC(b); err == nil {
		t.Error("phase 0 accepted")
	}
	b[1] = RBCReady + 1
	if _, err := UnmarshalRBC(b); err == nil {
		t.Error("phase out of range accepted")
	}
}

func TestReportRoundtrip(t *testing.T) {
	in := Report{Round: 12, Senders: []uint16{0, 5, 1000, 65535}}
	out, err := UnmarshalReport(MarshalReport(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != in.Round || !reflect.DeepEqual(out.Senders, in.Senders) {
		t.Errorf("roundtrip: %+v", out)
	}
	empty := Report{Round: 1, Senders: nil}
	out, err = UnmarshalReport(MarshalReport(empty))
	if err != nil || out.Round != 1 || len(out.Senders) != 0 {
		t.Errorf("empty report roundtrip: %+v, %v", out, err)
	}
}

func TestReportTruncatedSenders(t *testing.T) {
	b := MarshalReport(Report{Round: 1, Senders: []uint16{1, 2, 3}})
	if _, err := UnmarshalReport(b[:len(b)-2]); !errors.Is(err, ErrShort) {
		t.Errorf("truncated senders: %v", err)
	}
	// Claimed count larger than the payload.
	b[5] = 0xFF
	b[6] = 0xFF
	if _, err := UnmarshalReport(b); !errors.Is(err, ErrShort) {
		t.Errorf("inflated count: %v", err)
	}
}

func TestPeek(t *testing.T) {
	if k, err := Peek(MarshalInit(Init{})); err != nil || k != KindInit {
		t.Errorf("Peek init = %v, %v", k, err)
	}
	if _, err := Peek(nil); !errors.Is(err, ErrShort) {
		t.Errorf("Peek(nil) = %v", err)
	}
	if _, err := Peek([]byte{0}); !errors.Is(err, ErrBadKind) {
		t.Errorf("Peek(0) = %v", err)
	}
	if _, err := Peek([]byte{200}); !errors.Is(err, ErrBadKind) {
		t.Errorf("Peek(200) = %v", err)
	}
}

// sampleMsgs holds one encoding of each fixed-layout kind, in decoder
// order; FuzzUnmarshal seeds from it too.
var sampleMsgs = [][]byte{
	MarshalInit(Init{Value: 1}),
	MarshalValue(Value{Round: 1, Value: 1}),
	MarshalDecided(Decided{Value: 1}),
	MarshalRBC(RBC{Phase: RBCEcho, Origin: 1, Round: 1, Value: 1}),
	MarshalReport(Report{Round: 1, Senders: []uint16{1}}),
}

func TestTruncation(t *testing.T) {
	msgs := sampleMsgs
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := UnmarshalInit(b); return err },
		func(b []byte) error { _, err := UnmarshalValue(b); return err },
		func(b []byte) error { _, err := UnmarshalDecided(b); return err },
		func(b []byte) error { _, err := UnmarshalRBC(b); return err },
		func(b []byte) error { _, err := UnmarshalReport(b); return err },
	}
	for i, msg := range msgs {
		for cut := 0; cut < len(msg); cut++ {
			if err := decoders[i](msg[:cut]); err == nil {
				t.Errorf("message %d truncated to %d bytes accepted", i, cut)
			}
		}
		if err := decoders[i](msg); err != nil {
			t.Errorf("message %d full decode failed: %v", i, err)
		}
	}
}

func TestKindConfusion(t *testing.T) {
	// Decoding a message as the wrong kind must fail even when long enough.
	v := MarshalValue(Value{Round: 1, Value: 2})
	if _, err := UnmarshalInit(v); err == nil {
		t.Error("value decoded as init")
	}
	if _, err := UnmarshalRBC(v); err == nil {
		t.Error("value decoded as rbc")
	}
}

// Property: Value roundtrips for arbitrary field contents, including NaN
// bit patterns (NaN compares unequal, so compare bit images).
func TestValueRoundtripProperty(t *testing.T) {
	f := func(round, horizon uint32, bits uint64) bool {
		in := Value{Round: round, Horizon: horizon, Value: math.Float64frombits(bits)}
		out, err := UnmarshalValue(MarshalValue(in))
		if err != nil {
			return false
		}
		return out.Round == in.Round && out.Horizon == in.Horizon &&
			math.Float64bits(out.Value) == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: random byte strings never panic any decoder; they either decode
// or error.
func TestDecodersTotalProperty(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Peek(b)
		_, _ = UnmarshalInit(b)
		_, _ = UnmarshalValue(b)
		_, _ = UnmarshalDecided(b)
		_, _ = UnmarshalRBC(b)
		_, _ = UnmarshalReport(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
