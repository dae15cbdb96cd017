package relnet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sched"
	"repro/internal/sim"
)

// chatterProc multicasts k distinct payloads at Init and records every
// delivery it sees, keyed by (sender, payload index). It never decides, so
// a run ends when the event queue drains — i.e. when every packet has been
// delivered, acked, and retired (or given up on).
type chatterProc struct {
	k    int
	got  map[[2]int]int // {from, index} -> deliveries seen
	junk int            // deliveries that were not chatter payloads
}

func (c *chatterProc) Init(api sim.API) {
	for i := 0; i < c.k; i++ {
		api.Multicast([]byte{byte(api.ID()), byte(i)})
	}
}

func (c *chatterProc) Deliver(from sim.PartyID, data []byte) {
	if len(data) != 2 || sim.PartyID(data[0]) != from {
		c.junk++
		return
	}
	if c.got == nil {
		c.got = make(map[[2]int]int)
	}
	c.got[[2]int{int(from), int(data[1])}]++
}

// lossyChatter is the 20% loss + 20% dup schedule the chatter tests run.
func lossyChatter() sim.Scheduler {
	var scheduler sim.Scheduler = &sched.UniformRandom{Min: 1, Max: 10}
	scheduler = &sched.Loss{Inner: scheduler, P: 0.2}
	return &sched.Dup{Inner: scheduler, P: 0.2, MaxExtra: 20}
}

// runChatter executes n relnet-wrapped chatter processes under the given
// scheduler and returns the wrappers for inspection. A non-nil rec sees
// every call the wrappers make into the runtime's API.
func runChatter(t *testing.T, n, k int, seed int64, scheduler sim.Scheduler, rec *apiRecorder) ([]*Proc, []*chatterProc) {
	t.Helper()
	inner := make([]*chatterProc, n)
	wrapped := make([]*Proc, n)
	net, err := sim.New(sim.Config{N: n, Scheduler: scheduler, Seed: seed, MaxEvents: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		inner[i] = &chatterProc{k: k}
		wrapped[i] = Wrap(inner[i])
		var proc sim.Process = wrapped[i]
		if rec != nil {
			proc = &recordingProc{Proc: wrapped[i], rec: rec}
		}
		if err := net.SetProcess(sim.PartyID(i), proc); err != nil {
			t.Fatal(err)
		}
	}
	// Nobody decides, so the run "stalls" by design once the queue drains;
	// any other verdict is a real failure.
	if _, err := net.Run(); err != sim.ErrStalled {
		t.Fatalf("run verdict = %v, want ErrStalled (quiescent drain)", err)
	}
	return wrapped, inner
}

// TestExactlyOnceUnderLossAndDup is the transport's core property: under
// seeded Bernoulli loss and duplication, every payload reaches every
// recipient exactly once — retransmission heals the drops, receive-side
// dedup absorbs both network duplicates and redundant retransmissions —
// and the retransmit traffic stays inside the per-packet backoff budget.
func TestExactlyOnceUnderLossAndDup(t *testing.T) {
	const n, k = 6, 8
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			wrapped, inner := runChatter(t, n, k, seed, lossyChatter(), nil)

			var total Stats
			for i, w := range wrapped {
				st := w.TransportStats()
				total.Add(st)
				if st.DataSent != int64(k*n) {
					t.Errorf("party %d sent %d data frames, want %d", i, st.DataSent, k*n)
				}
			}
			if total.GiveUps != 0 {
				t.Fatalf("%d packets abandoned; retry budget must absorb 20%% loss", total.GiveUps)
			}
			// Every packet is transmitted at most 1 + maxRetries times.
			if cap := total.DataSent * maxRetries; total.Retransmits > cap {
				t.Errorf("retransmits %d exceed per-packet budget cap %d", total.Retransmits, cap)
			}
			if total.Retransmits == 0 {
				t.Error("20% loss produced no retransmissions")
			}
			if total.DupsSuppressed == 0 {
				t.Error("20% duplication produced no dedup suppressions")
			}
			for i, c := range inner {
				if c.junk != 0 {
					t.Errorf("party %d saw %d unframed deliveries", i, c.junk)
				}
				for from := 0; from < n; from++ {
					for idx := 0; idx < k; idx++ {
						if got := c.got[[2]int{from, idx}]; got != 1 {
							t.Fatalf("party %d got payload (%d,%d) %d times, want exactly once",
								i, from, idx, got)
						}
					}
				}
			}
		})
	}
}

// TestRawPassthrough pins the framing escape hatch: traffic that does not
// carry the relnet frame leaders reaches the inner process untouched (the
// Byzantine path), and framed traffic from a wrapper arrives unframed.
func TestRawPassthrough(t *testing.T) {
	inner := &chatterProc{}
	p := Wrap(inner)
	p.Init(&tapeAPI{n: 2})
	raw := []byte{3, 1, 4, 1, 5}
	p.Deliver(1, raw)
	if inner.junk != 1 {
		t.Fatalf("raw delivery did not pass through (junk=%d)", inner.junk)
	}
}

// TestResetRecycles pins the pooling contract: a reset wrapper carries no
// link state into its next run, and keeps the storage of its links and
// payload slots.
func TestResetRecycles(t *testing.T) {
	a := &chatterProc{}
	p := Wrap(a)
	api := &tapeAPI{n: 2}
	p.Init(api)
	p.Send(1, []byte{9, 9})
	p.Multicast([]byte{8, 8})
	p.Deliver(1, dataFrame(1, 7))
	p.Deliver(1, dataFrame(3, 7))
	if l := p.snd[1]; l.next != 2 || l.base != 0 || l.ring[1].seq != 1 {
		t.Fatalf("send not tracked: next=%d base=%d slot seq=%d", l.next, l.base, l.ring[1].seq)
	}
	if l := p.rcv[1]; l.watermark != 1 || l.bits[0] != 1<<3 {
		t.Fatalf("receive not tracked: watermark=%d bits=%b", l.watermark, l.bits[0])
	}
	if len(p.pays) != 2 || p.pays[0].refs != 1 || p.pays[1].refs != 2 {
		t.Fatalf("payload slots not tracked: %+v", p.pays)
	}
	ring, bits, pays := p.snd[1].ring, p.rcv[1].bits, p.pays
	b := &chatterProc{}
	p.Reset(b)
	if p.Inner() != b {
		t.Fatal("Reset did not swap the inner process")
	}
	if len(p.snd) != 0 || len(p.rcv) != 0 || len(p.pays) != 0 || len(p.free) != 0 || p.stats != (Stats{}) {
		t.Fatalf("Reset leaked state: snd=%d rcv=%d pays=%d free=%d stats=%+v",
			len(p.snd), len(p.rcv), len(p.pays), len(p.free), p.stats)
	}
	// The truncated links come back zeroed, with their storage.
	p.Init(api)
	snd, rcv := link(&p.snd, 1), link(&p.rcv, 1)
	if snd.next != 0 || snd.base != 0 || rcv.watermark != 0 {
		t.Fatalf("recycled link not zeroed: next=%d base=%d watermark=%d", snd.next, snd.base, rcv.watermark)
	}
	if &snd.ring[0] != &ring[0] || &rcv.bits[0] != &bits[0] {
		t.Fatal("Reset dropped a link's ring or bitset instead of recycling it")
	}
	for i, pk := range snd.ring {
		if pk.seq != 0 {
			t.Fatalf("recycled slot %d still holds seq %d", i, pk.seq)
		}
	}
	if rcv.bits[0] != 0 {
		t.Fatalf("recycled bitset not cleared: %b", rcv.bits[0])
	}
	// The truncated payload slots come back with their buffers.
	p.Send(1, []byte{6})
	p.Multicast([]byte{5})
	for i, pl := range p.pays {
		if &pl.buf[0] != &pays[i].buf[0] || pl.refs != pays[i].refs {
			t.Fatalf("payload slot %d not recycled: %+v, was %+v", i, pl, pays[i])
		}
	}
}

// TestPacketLayout pins a send ring slot at 16 bytes: its payload lives
// in a shared slot it names by index, not in a buffer of its own.
func TestPacketLayout(t *testing.T) {
	if got := unsafe.Sizeof(packet{}); got != 16 {
		t.Fatalf("packet is %d bytes, want 16", got)
	}
}

// checkSlots asserts the payload table against the send rings: each
// slot's refs is the number of live packets that name it, and the free
// list holds exactly the slots with none, once each.
func checkSlots(t *testing.T, p *Proc) {
	t.Helper()
	named := make([]int32, len(p.pays))
	for _, l := range p.snd {
		for _, pk := range l.ring {
			if pk.seq != 0 {
				named[pk.pay]++
			}
		}
	}
	free := make([]bool, len(p.pays))
	for _, i := range p.free {
		if free[i] {
			t.Fatalf("slot %d is on the free list twice: %v", i, p.free)
		}
		free[i] = true
	}
	for i, pl := range p.pays {
		if pl.refs != named[i] || free[i] != (pl.refs == 0) {
			t.Fatalf("slot %d: refs %d, named by %d live packets, free %v", i, pl.refs, named[i], free[i])
		}
	}
}

// TestMulticastSharesOnePayload pins the payload slot lifecycle: a
// multicast stores its payload once, in one slot every one of its n
// packets names, and the slot goes back on the free list only when the
// last of them retires — acked and then timed out, or given up on. The
// next multicast reuses the freed slot and its buffer.
func TestMulticastSharesOnePayload(t *testing.T) {
	const n = 4
	for _, acked := range []bool{true, false} {
		t.Run(fmt.Sprintf("acked=%v", acked), func(t *testing.T) {
			p := Wrap(&countProc{})
			api := &tapeAPI{n: n}
			p.Init(api)
			p.Multicast([]byte{7, 7, 7})
			if len(p.pays) != 1 || p.pays[0].refs != n || len(p.free) != 0 {
				t.Fatalf("multicast to %d: slots %+v, free %v; want one slot with refs %d", n, p.pays, p.free, n)
			}
			for to := sim.PartyID(0); to < n; to++ {
				if _, pk := p.outstanding(to, 1); pk == nil || pk.pay != 0 {
					t.Fatalf("packet to %d does not name slot 0: %+v", to, pk)
				}
				if acked {
					p.Deliver(to, ackFrame(1))
				}
			}
			buf := p.pays[0].buf
			for retired := 0; len(api.timers) > 0; {
				tag := api.timers[0]
				api.timers = api.timers[1:]
				p.OnTimer(tag)
				if _, pk := p.outstanding(sim.PartyID(tag>>seqBits&0xff), 1); pk == nil {
					retired++
				}
				checkSlots(t, p)
				if want := int32(n - retired); p.pays[0].refs != want {
					t.Fatalf("%d of %d packets retired, refs %d", retired, n, p.pays[0].refs)
				}
			}
			if st := p.TransportStats(); acked != (st.GiveUps == 0) || !acked && st.GiveUps != n {
				t.Fatalf("acked=%v: %+v", acked, st)
			}
			if len(p.free) != 1 || p.free[0] != 0 {
				t.Fatalf("retired slot not freed: free %v, slots %+v", p.free, p.pays)
			}
			p.Multicast([]byte{8})
			if len(p.pays) != 1 || p.pays[0].refs != n || &p.pays[0].buf[0] != &buf[0] {
				t.Fatalf("next multicast did not reuse the freed slot's buffer: %+v", p.pays)
			}
			checkSlots(t, p)
		})
	}
}

// dataFrame builds the data frame a wrapper sends for (seq, payload...).
func dataFrame(seq uint64, payload ...byte) []byte {
	return append(binary.AppendUvarint([]byte{frameData}, seq), payload...)
}

// ackFrame builds the ack frame for seq.
func ackFrame(seq uint64) []byte {
	return binary.AppendUvarint([]byte{frameAck}, seq)
}

// tapeAPI satisfies sim.API for direct wrapper unit tests. It keeps the
// frames sent, with their bytes back to back in one reused tape, and the
// armed timer tags, in order, for the test to fire (or not) by hand.
type tapeAPI struct {
	n      int
	rng    *rand.Rand
	sends  []sentFrame
	tape   []byte
	timers []uint64
}

// sentFrame is one frame on a tapeAPI: its destination and its bytes'
// span of the tape.
type sentFrame struct {
	to       sim.PartyID
	off, end int
}

// frame returns the bytes of the i-th frame sent.
func (a *tapeAPI) frame(i int) []byte { return a.tape[a.sends[i].off:a.sends[i].end] }

func (a *tapeAPI) ID() sim.PartyID { return 0 }
func (a *tapeAPI) N() int          { return a.n }
func (a *tapeAPI) Rand() *rand.Rand {
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(1))
	}
	return a.rng
}
func (a *tapeAPI) Send(to sim.PartyID, data []byte) {
	a.tape = append(a.tape, data...)
	a.sends = append(a.sends, sentFrame{to, len(a.tape) - len(data), len(a.tape)})
}
func (a *tapeAPI) Multicast([]byte)                   {}
func (a *tapeAPI) SetTimer(_ sim.Time, tag uint64)    { a.timers = append(a.timers, tag) }
func (a *tapeAPI) Decide(float64)                     {}
func (a *tapeAPI) reset()                             { a.sends, a.tape, a.timers = a.sends[:0], a.tape[:0], a.timers[:0] }
func retransmitTag(to sim.PartyID, seq uint64) uint64 { return timerTagBit | uint64(to)<<seqBits | seq }

// countProc is an inner process that counts what reaches it and keeps
// the last payload (aliased, not copied).
type countProc struct {
	got  int
	last []byte
}

func (c *countProc) Init(sim.API)                    { c.got = 0 }
func (c *countProc) Deliver(_ sim.PartyID, b []byte) { c.got, c.last = c.got+1, b }

// TestForgedAckIgnored: an ack for a seq never sent on the link — just
// past next, 2^47, or 2^48+1 (which the old 48-bit link key aliased to
// seq 1) — and an ack from a party never sent to leave the packet
// outstanding, so its timer retransmits it.
func TestForgedAckIgnored(t *testing.T) {
	p := Wrap(&countProc{})
	api := &tapeAPI{n: 3}
	p.Init(api)
	p.Send(1, []byte{1, 1})
	for _, seq := range []uint64{2, 1 << 47, 1<<48 + 1} {
		p.Deliver(1, ackFrame(seq))
	}
	p.Deliver(2, ackFrame(1))
	if _, pk := p.outstanding(1, 1); pk == nil || pk.acked {
		t.Fatalf("forged ack touched the outstanding packet: %+v", pk)
	}
	p.OnTimer(api.timers[0])
	if st := p.TransportStats(); st.Retransmits != 1 || st.GiveUps != 0 || len(api.sends) != 2 {
		t.Fatalf("timer after forged acks: %+v, %d frames sent; want one retransmit", st, len(api.sends))
	}
	if p.snd[1].next != 1 || len(p.snd) != 2 {
		t.Fatalf("forged acks changed the send links: next=%d links=%d", p.snd[1].next, len(p.snd))
	}
}

// TestFarAheadDataBounded: a data frame far above the watermark (forged,
// or absurdly reordered) is delivered once, deduplicated afterwards, and
// lands in the spill set without growing the receive ring past its cap;
// the watermark later catches up through the spill.
func TestFarAheadDataBounded(t *testing.T) {
	inner := &countProc{}
	p := Wrap(inner)
	p.Init(&tapeAPI{n: 2})
	const edge = 64*maxRcvWords + 1 // first seq past the largest ring
	for _, seq := range []uint64{1 << 40, edge, 1 << 40, edge} {
		p.Deliver(1, dataFrame(seq, 5))
	}
	l := &p.rcv[1]
	if inner.got != 2 || p.stats.DupsSuppressed != 2 {
		t.Fatalf("delivered %d, suppressed %d; want 2 and 2", inner.got, p.stats.DupsSuppressed)
	}
	if len(l.bits) > maxRcvWords || len(l.spill) != 2 {
		t.Fatalf("ring %d words (cap %d), spill %d; want spill 2", len(l.bits), maxRcvWords, len(l.spill))
	}
	for seq := uint64(1); seq < edge; seq++ {
		p.Deliver(1, dataFrame(seq, 5))
	}
	if l.watermark != edge || len(l.spill) != 1 || inner.got != edge+1 {
		t.Fatalf("watermark %d spill %d delivered %d; want %d, 1, %d", l.watermark, len(l.spill), inner.got, edge, edge+1)
	}
	p.Deliver(1, dataFrame(edge, 5))
	if inner.got != edge+1 {
		t.Fatal("a spilled seq was delivered twice after the watermark passed it")
	}
}

// TestLostTimerDoesNotBlockRetirement: a packet whose retransmit timer is
// never delivered — its sender crashed, or sat in a restart down-window
// when it fired — stays outstanding forever. Later seqs still retire, the
// ring grows around the stuck slot, and a late firing releases it.
func TestLostTimerDoesNotBlockRetirement(t *testing.T) {
	p := Wrap(&countProc{})
	api := &tapeAPI{n: 2}
	p.Init(api)
	const sends = 40
	for i := 0; i < sends; i++ {
		p.Send(1, []byte{byte(i)})
		p.Deliver(1, ackFrame(uint64(i+1)))
	}
	lost := api.timers[0]
	for _, tag := range api.timers[1:] {
		p.OnTimer(tag)
	}
	l := &p.snd[1]
	if _, pk := p.outstanding(1, 1); pk == nil {
		t.Fatal("the packet whose timer was lost is no longer outstanding")
	}
	for seq := uint64(2); seq <= sends; seq++ {
		if _, pk := p.outstanding(1, seq); pk != nil {
			t.Fatalf("seq %d acked and timed out but not retired", seq)
		}
	}
	if l.base != 0 || len(l.ring) < sends {
		t.Fatalf("base %d ring %d; want 0 and a ring grown past %d", l.base, len(l.ring), sends)
	}
	p.OnTimer(lost)
	if l.base != sends || p.stats.Retransmits != 0 {
		t.Fatalf("late timer: base %d retransmits %d; want %d and 0", l.base, p.stats.Retransmits, sends)
	}
}

// TestSendRingOutOfOrderRetirement drives one send link against a set
// model with seeded random sends and out-of-order retirements, across
// ring wraps and doublings: every live seq stays reachable from its tag,
// retired ones do not, and base is always one below the oldest live seq.
func TestSendRingOutOfOrderRetirement(t *testing.T) {
	p := Wrap(&countProc{})
	api := &tapeAPI{n: 2}
	p.Init(api)
	rng := rand.New(rand.NewSource(27))
	l := link(&p.snd, 1)
	var live []uint64 // the model: seqs sent and not yet retired
	var next uint64
	wraps, doublings := 0, 0
	for step := 0; step < 4000; step++ {
		if len(live) < 40 && (len(live) == 0 || rng.Intn(5) < 3) {
			before := len(l.ring)
			p.Send(1, []byte{byte(step)})
			next++
			live = append(live, next)
			if before > 0 && len(l.ring) > before {
				doublings++
			} else if next&uint64(len(l.ring)-1) == 0 {
				wraps++
			}
			continue
		}
		i := rng.Intn(len(live))
		seq := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		p.Deliver(1, ackFrame(seq))
		p.OnTimer(retransmitTag(1, seq))

		want := next
		for _, s := range live {
			want = min(want, s-1)
		}
		if l.base != want || l.next != next {
			t.Fatalf("step %d: base %d next %d; want %d and %d", step, l.base, l.next, want, next)
		}
		for s := l.base + 1; s <= next; s++ {
			_, pk := p.outstanding(1, s)
			if isLive := slices.Contains(live, s); (pk != nil) != isLive {
				t.Fatalf("step %d: seq %d outstanding=%v, model says %v", step, s, pk != nil, isLive)
			}
		}
	}
	if wraps < 10 || doublings < 2 {
		t.Fatalf("walk too tame: %d wraps, %d doublings", wraps, doublings)
	}
	if p.stats.Retransmits != 0 || p.stats.GiveUps != 0 {
		t.Fatalf("acked packets were retransmitted or abandoned: %+v", p.stats)
	}
}

// TestWarmCycleAllocs pins the recycled wrapper at zero allocations: a
// Reset followed by sends, multicasts, received data, acks and retransmit
// timers reuses the rings, bitsets, payload slots and frame scratch.
func TestWarmCycleAllocs(t *testing.T) {
	inner := &countProc{}
	p := Wrap(inner)
	api := &tapeAPI{n: 4}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	const rounds = 12
	var data [rounds + 1][]byte
	var acks [2*rounds + 1][]byte // each round sends twice on every link
	for seq := range acks {
		acks[seq] = ackFrame(uint64(seq))
	}
	for seq := range data {
		data[seq] = dataFrame(uint64(seq), payload...)
	}
	cycle := func() {
		p.Reset(inner)
		api.reset()
		p.Init(api)
		for round := 1; round <= rounds; round++ {
			for to := sim.PartyID(0); to < 4; to++ {
				p.Send(to, payload)
				p.Deliver(to, data[rounds+1-round]) // newest first
			}
			p.Multicast(payload)
		}
		for i, tag := range api.timers {
			if i%3 != 0 {
				p.Deliver(sim.PartyID(tag>>seqBits&0xff), acks[tag&(1<<seqBits-1)])
			}
			p.OnTimer(tag)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Fatalf("warm Reset/send/ack/timer cycle allocates %.1f times, want 0", got)
	}
	if inner.got != 48 || p.stats.Retransmits == 0 || p.stats.DataSent != 2*48 {
		t.Fatalf("cycle did not exercise delivery and retransmission: got %d, %+v", inner.got, p.stats)
	}
}
