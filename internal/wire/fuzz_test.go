package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzUnmarshal feeds every decoder arbitrary bytes, seeded with the table
// tests' messages, their truncations and wrapped forms. The oracle: Peek
// and every Unmarshal* (UnmarshalReportInto with a one-slot scratch, so
// the decoder must grow it) never panic; every error wraps ErrShort or
// ErrBadKind or is the RBC phase error; a decoder fails whenever Peek does;
// and a decoded message re-encodes to the bytes it was decoded from and
// decodes back to the same encoding. `make fuzz-wire` runs it; findings
// land under testdata/fuzz/FuzzUnmarshal/.
func FuzzUnmarshal(f *testing.F) {
	for _, msg := range sampleMsgs {
		f.Add(msg)
		f.Add(msg[:len(msg)-1])
		f.Add(MarshalWrapped(3, msg))
	}
	f.Add(MarshalValue(Value{Round: 42, Horizon: 99, Value: math.Pi}))
	f.Add(MarshalRBC(RBC{Phase: RBCReady, Origin: 513, Round: 7, Value: -0.25}))
	f.Add(MarshalReport(Report{Round: 12, Senders: []uint16{0, 5, 1000, 65535}}))
	f.Add([]byte{byte(KindReport), 1, 0, 0, 0, 0xFF, 0xFF, 1, 0})
	f.Add([]byte{byte(KindRBC), 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(MarshalWrapped(0, MarshalWrapped(1, sampleMsgs[1])))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{200})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, data, 0)
	})
}

// checkDecoders applies FuzzUnmarshal's oracle to data, recursing into a
// wrapped message's inner bytes.
func checkDecoders(t *testing.T, data []byte, depth int) {
	_, peekErr := Peek(data)
	checkErr(t, "Peek", peekErr)
	roundTrip := func(name string, err error, size int, encode func() []byte) {
		checkErr(t, name, err)
		if err != nil {
			return
		}
		if peekErr != nil {
			t.Fatalf("%s decoded %x that Peek rejects (%v)", name, data, peekErr)
		}
		if enc := encode(); !bytes.Equal(enc, data[:size]) {
			t.Fatalf("%s: %x re-encodes to %x", name, data[:size], enc)
		}
	}

	in, err := UnmarshalInit(data)
	roundTrip("UnmarshalInit", err, InitSize, func() []byte { return AppendInit(nil, in) })
	v, err := UnmarshalValue(data)
	roundTrip("UnmarshalValue", err, ValueSize, func() []byte { return AppendValue(nil, v) })
	d, err := UnmarshalDecided(data)
	roundTrip("UnmarshalDecided", err, DecidedSize, func() []byte { return AppendDecided(nil, d) })
	r, err := UnmarshalRBC(data)
	roundTrip("UnmarshalRBC", err, RBCSize, func() []byte { return AppendRBC(nil, r) })

	rep, err := UnmarshalReport(data)
	into, intoErr := UnmarshalReportInto(data, make([]uint16, 0, 1))
	if (err == nil) != (intoErr == nil) {
		t.Fatalf("UnmarshalReport err %v, UnmarshalReportInto err %v", err, intoErr)
	}
	size := ReportHeader + 2*len(rep.Senders)
	roundTrip("UnmarshalReport", err, size, func() []byte { return AppendReport(nil, rep) })
	roundTrip("UnmarshalReportInto", intoErr, size, func() []byte { return AppendReport(nil, into) })

	dim, inner, err := UnmarshalWrapped(data)
	roundTrip("UnmarshalWrapped", err, len(data), func() []byte { return AppendWrapped(nil, dim, inner) })
	if err == nil && depth < 4 {
		checkDecoders(t, inner, depth+1)
	}
}

// checkErr fails unless err is nil or one of the package's decode errors.
func checkErr(t *testing.T, name string, err error) {
	if err != nil && !errors.Is(err, ErrShort) && !errors.Is(err, ErrBadKind) && err != errBadRBCPhase {
		t.Fatalf("%s: error %v is not a wire decode error", name, err)
	}
}
