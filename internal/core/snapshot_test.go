package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/wire"
)

// snap is a test helper: Snapshot with a fresh buffer, failing on error.
func snap(t testing.TB, s Snapshotter) []byte {
	t.Helper()
	b, err := s.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAsyncSnapshotRoundTrip(t *testing.T) {
	p, err := NewAsyncAA(crashParams(5, 2), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 5)
	p.Init(api)
	feed(t, p, 0, 1, 0.5)
	feed(t, p, 1, 1, 0.1) // mid-round: 2 of quorum 3

	a1, a2 := snap(t, p), snap(t, p)
	if !bytes.Equal(a1, a2) {
		t.Fatal("same state produced different snapshots")
	}
	// Restore onto itself is the identity.
	if err := p.Restore(a1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap(t, p), a1) {
		t.Fatal("restore(snapshot) changed the state")
	}
	// Advance past the snapshot, then roll back and replay: the replayed
	// state must be byte-identical to the uninterrupted one.
	feed(t, p, 2, 1, 0.9)
	feed(t, p, 3, 1, 0.3)
	b1 := snap(t, p)
	if err := p.Restore(a1); err != nil {
		t.Fatal(err)
	}
	feed(t, p, 2, 1, 0.9)
	feed(t, p, 3, 1, 0.3)
	if !bytes.Equal(snap(t, p), b1) {
		t.Fatal("rollback + replay diverged from the uninterrupted run")
	}
}

func TestAsyncAdaptiveSnapshotCarriesInitAndFrozen(t *testing.T) {
	par := crashParams(7, 2)
	par.Adaptive = true
	p, err := NewAsyncAA(par, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 7)
	p.Init(api)
	for i, v := range []float64{0.5, 0.2} {
		data := wire.MarshalInit(wire.Init{Value: v})
		p.Deliver(sim.PartyID(i), data)
	}
	p.Deliver(3, wire.MarshalDecided(wire.Decided{Value: 0.4}))
	a := snap(t, p)
	if p.initCnt != 2 || p.frozenCnt != 1 {
		t.Fatalf("test premise: initCnt=%d frozenCnt=%d", p.initCnt, p.frozenCnt)
	}
	// Wipe forward state, then restore and verify counts and spread came
	// back.
	p.Deliver(4, wire.MarshalInit(wire.Init{Value: 0.9}))
	if err := p.Restore(a); err != nil {
		t.Fatal(err)
	}
	if p.initCnt != 2 || p.frozenCnt != 1 {
		t.Errorf("after restore: initCnt=%d frozenCnt=%d", p.initCnt, p.frozenCnt)
	}
	if p.initLo != 0.2 || p.initHi != 0.5 {
		t.Errorf("after restore: spread [%v, %v]", p.initLo, p.initHi)
	}
	if !bytes.Equal(snap(t, p), a) {
		t.Error("restored snapshot differs")
	}
}

func TestAsyncRejoinResends(t *testing.T) {
	p, err := NewAsyncAA(crashParams(5, 2), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	api := newFakeAPI(0, 5)
	p.Init(api)
	sent := len(api.sent)
	p.Rejoin()
	if len(api.sent) != sent+1 {
		t.Fatalf("rejoin sent %d messages, want 1", len(api.sent)-sent)
	}
	m, err := wire.UnmarshalValue(api.sent[len(api.sent)-1].data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Round != p.round || m.Value != p.v {
		t.Errorf("rejoin re-sent round %d value %v, party at round %d value %v",
			m.Round, m.Value, p.round, p.v)
	}
}

func TestAsyncSnapshotShapeMismatchRejected(t *testing.T) {
	p5, _ := NewAsyncAA(crashParams(5, 2), 0.5)
	p7, _ := NewAsyncAA(crashParams(7, 2), 0.5)
	p5.Init(newFakeAPI(0, 5))
	p7.Init(newFakeAPI(0, 7))
	s := snap(t, p5)
	if err := p7.Restore(s); err == nil {
		t.Error("cross-shape restore accepted")
	}
	// Corruption and truncation are rejected with frame sentinels.
	bad := append([]byte(nil), s...)
	bad[len(bad)/2] ^= 0x10
	if err := p5.Restore(bad); !errors.Is(err, frame.ErrMalformed) {
		t.Errorf("corrupt snapshot: %v", err)
	}
	if err := p5.Restore(s[:len(s)-3]); !errors.Is(err, frame.ErrMalformed) {
		t.Errorf("truncated snapshot: %v", err)
	}
}

// witBus is a loopback network for witness parties: every Send is queued
// and delivered FIFO, so a deterministic prefix of a real execution can be
// paused mid-round for snapshotting.
type witBus struct {
	procs []*WitnessAA
	apis  []*fakeAPI
	q     []sentMsg
	qFrom []sim.PartyID
}

func newWitBus(t testing.TB, n, faults int) *witBus {
	t.Helper()
	par := Params{Protocol: ProtoWitness, N: n, T: faults, Eps: 0.25, Lo: 0, Hi: 1}
	b := &witBus{}
	for i := 0; i < n; i++ {
		p, err := NewWitnessAA(par, float64(i)/float64(n-1))
		if err != nil {
			t.Fatal(err)
		}
		b.procs = append(b.procs, p)
		b.apis = append(b.apis, newFakeAPI(sim.PartyID(i), n))
	}
	return b
}

// pump inits all parties and steps the queue at most steps times,
// returning how many deliveries ran.
func (b *witBus) pump(steps int) int {
	if b.q == nil {
		for i, p := range b.procs {
			p.Init(b.apis[i])
			b.drain(i)
		}
	}
	ran := 0
	for ; ran < steps && len(b.q) > 0; ran++ {
		m, from := b.q[0], b.qFrom[0]
		b.q, b.qFrom = b.q[1:], b.qFrom[1:]
		b.procs[m.to].Deliver(from, m.data)
		b.drain(int(m.to))
	}
	return ran
}

// drain moves a party's freshly captured outbound traffic onto the queue,
// expanding multicasts to per-destination deliveries.
func (b *witBus) drain(i int) {
	api := b.apis[i]
	for _, m := range api.sent {
		if m.to == -1 {
			for to := range b.procs {
				b.q = append(b.q, sentMsg{to: sim.PartyID(to), data: m.data})
				b.qFrom = append(b.qFrom, sim.PartyID(i))
			}
		} else {
			b.q = append(b.q, m)
			b.qFrom = append(b.qFrom, sim.PartyID(i))
		}
	}
	api.sent = api.sent[:0]
}

func TestWitnessSnapshotRoundTrip(t *testing.T) {
	bus := newWitBus(t, 4, 1)
	bus.pump(40) // mid-execution: RBC slabs and witness arrays live
	p := bus.procs[0]
	if p.bcast.Instances() == 0 {
		t.Fatal("test premise: no live RBC state after 40 steps")
	}
	a1, a2 := snap(t, p), snap(t, p)
	if !bytes.Equal(a1, a2) {
		t.Fatal("same state produced different snapshots")
	}
	if err := p.Restore(a1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap(t, p), a1) {
		t.Fatal("restore(snapshot) changed the state")
	}
	// Run to completion, then roll party 0 back and re-snapshot: restore
	// must reproduce the mid-run bytes even from a decided state.
	bus.pump(1 << 20)
	for i, api := range bus.apis {
		if !api.decided {
			t.Fatalf("party %d never decided", i)
		}
	}
	if err := p.Restore(a1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap(t, p), a1) {
		t.Fatal("rollback from decided state diverged")
	}
}

func TestWitnessRejoinRebroadcasts(t *testing.T) {
	bus := newWitBus(t, 4, 1)
	bus.pump(40)
	p, api := bus.procs[0], bus.apis[0]
	api.sent = api.sent[:0]
	p.Rejoin()
	if len(api.sent) == 0 {
		t.Fatal("rejoin sent nothing")
	}
	kind, err := wire.Peek(api.sent[0].data)
	if err != nil || kind != wire.KindRBC {
		t.Fatalf("first rejoin message kind %v, want RBC", kind)
	}
}

// BenchmarkSnapshotRestore measures the checkpoint round trip on a
// mid-round crash-protocol party at n=9 — the restore path rides the warm
// runs' zero-allocation budget, so both directions must stay free of
// per-call heap traffic once the caller recycles the buffer. The reported
// snapshot-bytes metric is the full versioned envelope (magic, version,
// body, CRC).
func BenchmarkSnapshotRestore(b *testing.B) {
	p, err := NewAsyncAA(crashParams(9, 2), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	p.Init(newFakeAPI(0, 9))
	for from := sim.PartyID(1); from < 5; from++ {
		p.Deliver(from, wire.MarshalValue(wire.Value{Round: 1, Value: float64(from) / 5, Horizon: p.horizon}))
	}
	buf, err := p.Snapshot(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = p.Snapshot(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Restore(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "snapshot-bytes")
}

// TestRejoinReannouncesDecision pins the restart-supervision liveness
// contract: both runtimes withdraw a killed party's decision (livenet
// undecide, sim restartDown), so a party whose restored checkpoint is
// already decided must re-register that decision through the API on
// Rejoin — a decided non-adaptive party that stays silent hangs the run
// waiting for a decision that already happened. Both runtimes dedup the
// re-call, so the re-announce is safe even when nothing was withdrawn.
func TestRejoinReannouncesDecision(t *testing.T) {
	wide := func(p Params) Params { p.Eps = 5; return p } // eps > range: decide at Init
	cases := []struct {
		name  string
		build func() (Snapshotter, error)
	}{
		{"async", func() (Snapshotter, error) {
			return NewAsyncAA(wide(crashParams(3, 1)), 0.5)
		}},
		{"witness", func() (Snapshotter, error) {
			return NewWitnessAA(wide(Params{Protocol: ProtoWitness, N: 4, T: 1, Eps: 0.25, Lo: 0, Hi: 1}), 0.5)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			api := newFakeAPI(0, 4)
			p.(sim.Process).Init(api)
			if !api.decided {
				t.Fatal("wide-eps party did not decide at Init")
			}
			b := snap(t, p)

			q, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			api2 := newFakeAPI(0, 4)
			q.(sim.Process).Init(api2)
			if err := q.Restore(b); err != nil {
				t.Fatal(err)
			}
			// Model the kill: the runtime withdrew the decision.
			api2.decided = false
			api2.decision = 0
			q.Rejoin()
			if !api2.decided || api2.decision != 0.5 {
				t.Fatalf("rejoin did not re-announce: decided=%v decision=%v",
					api2.decided, api2.decision)
			}
		})
	}
}
