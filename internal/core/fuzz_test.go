package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/wire"
)

// fuzzParties build the fresh, initialised parties FuzzRestore restores
// into, indexed by the input's kind byte: crash AsyncAA, adaptive AsyncAA
// and WitnessAA, in the shapes of the snapshot round-trip tests.
var fuzzParties = []func() (Snapshotter, error){
	func() (Snapshotter, error) {
		p, err := NewAsyncAA(crashParams(5, 2), 0.5)
		if err == nil {
			p.Init(newFakeAPI(0, 5))
		}
		return p, err
	},
	func() (Snapshotter, error) {
		par := crashParams(7, 2)
		par.Adaptive = true
		p, err := NewAsyncAA(par, 0.5)
		if err == nil {
			p.Init(newFakeAPI(0, 7))
		}
		return p, err
	},
	func() (Snapshotter, error) {
		p, err := NewWitnessAA(Params{Protocol: ProtoWitness, N: 4, T: 1, Eps: 0.25, Lo: 0, Hi: 1}, 0)
		if err == nil {
			p.Init(newFakeAPI(0, 4))
		}
		return p, err
	},
}

// fuzzParty builds the party for kind, failing the test on error.
func fuzzParty(t testing.TB, kind uint8) Snapshotter {
	t.Helper()
	p, err := fuzzParties[int(kind)%len(fuzzParties)]()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzRestore restores arbitrary snapshot bodies into each protocol
// party, seeded with the states the snapshot round-trip tests take. The
// target re-seals each fuzzed body with snapFormat.Seal, so inputs reach
// the payload decoders instead of stopping at the checksum. The oracle:
// no panic; every error wraps frame.ErrMalformed or frame.ErrVersion; and a
// restore that succeeds reaches a fixed point, in that the snapshot it
// leaves restores, onto a fresh party and onto the same one, to a
// byte-identical snapshot. `make fuzz-checkpoint` runs it; findings land
// under testdata/fuzz/FuzzRestore/.
func FuzzRestore(f *testing.F) {
	body := func(s Snapshotter) []byte {
		b := snap(f, s)
		return b[:len(b)-4]
	}
	for kind := range fuzzParties {
		f.Add(uint8(kind), body(fuzzParty(f, uint8(kind))))
	}

	a := fuzzParty(f, 0).(*AsyncAA)
	feed(f, a, 0, 1, 0.5)
	feed(f, a, 1, 1, 0.1)
	f.Add(uint8(0), body(a))
	feed(f, a, 2, 1, 0.9)
	feed(f, a, 3, 1, 0.3)
	f.Add(uint8(0), body(a))

	ad := fuzzParty(f, 1).(*AsyncAA)
	for i, v := range []float64{0.5, 0.2} {
		ad.Deliver(sim.PartyID(i), wire.MarshalInit(wire.Init{Value: v}))
	}
	ad.Deliver(3, wire.MarshalDecided(wire.Decided{Value: 0.4}))
	f.Add(uint8(1), body(ad))

	// One witness execution (320 deliveries) seeded at five depths: after
	// 10, 40, 120 and 240 deliveries, and at quiescence.
	bus := newWitBus(f, 4, 1)
	for _, steps := range []int{10, 30, 80, 120, 1 << 20} {
		bus.pump(steps)
		f.Add(uint8(2), body(bus.procs[0]))
	}

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		p := fuzzParty(t, kind)
		err := p.Restore(snapFormat.Seal(append([]byte(nil), body...)))
		if err != nil {
			if !errors.Is(err, frame.ErrMalformed) && !errors.Is(err, frame.ErrVersion) {
				t.Fatalf("restore error wraps no frame sentinel: %v", err)
			}
			return
		}
		s1 := snap(t, p)
		q := fuzzParty(t, kind)
		if err := q.Restore(s1); err != nil {
			t.Fatalf("own snapshot rejected by a fresh party: %v", err)
		}
		if s2 := snap(t, q); !bytes.Equal(s1, s2) {
			t.Fatalf("fresh party: snapshot %x restores to %x", s1, s2)
		}
		if err := p.Restore(s1); err != nil {
			t.Fatalf("own snapshot rejected: %v", err)
		}
		if s3 := snap(t, p); !bytes.Equal(s1, s3) {
			t.Fatalf("same party: snapshot %x restores to %x", s1, s3)
		}
	})
}
