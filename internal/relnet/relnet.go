// Package relnet is the reliable-transport sublayer: an ack/retransmit
// wrapper that turns a lossy network (the loss/dup/outage/flap scenario
// axes, or a real network behind internal/livenet) back into the
// reliable channels the approximate-agreement protocols assume.
//
// A relnet.Proc wraps any sim.Process. Outbound payloads are framed with
// a per-link sequence number and retransmitted on an exponential-backoff
// schedule (with rng jitter from the party's seeded source) until the
// receiver acknowledges them or the retry budget is exhausted; inbound
// frames are acknowledged and deduplicated, so the inner process sees
// every honest payload exactly once no matter how often the network
// drops or duplicates it. Frames from senders that do not speak the
// framing (Byzantine raw traffic) pass through untouched.
//
// Link state is dense, indexed by party: a send ring of 16-byte packet
// slots per destination, a watermark plus a bitset ring above it per
// source, and retransmit timer tags that name their packet. No map is
// touched per frame; only seqs implausibly far above a watermark go to a
// spill set. Outbound payloads live apart from the rings, in a table of
// reference-counted payload slots: a Send stores its payload once, and a
// Multicast stores it once for all n of its packets, not once per
// destination.
//
// The wrapper is runtime-agnostic: it uses only the sim.API surface
// (Send, SetTimer, Rand), so the same code runs under the deterministic
// simulator — where E-tables sweep raw vs reliable transport under loss
// — and as the livenet send path. All retransmit timing comes from
// API.SetTimer and all jitter from API.Rand, never wall clock, so
// simulated runs capture and replay bit-for-bit (see internal/incident).
package relnet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/sim"
)

// Frame leader bytes. The protocol wire dialect (internal/wire) starts
// messages with kind bytes 1..6, so the leaders cannot collide with
// honest unframed traffic; raw bytes that happen to start with a leader
// can only come from a Byzantine sender, which could forge whole frames
// anyway.
const (
	frameData = 0xA7
	frameAck  = 0xA8
)

// Retransmission schedule: the first retry fires after about baseRTO
// ticks (plus jitter in [0, baseRTO/2]), each subsequent retry doubles
// the timeout, and after maxRetries unacknowledged attempts the packet
// is abandoned (GiveUps). 32 ticks comfortably covers every built-in
// scheduler's common delays (1..25), so acked packets rarely retransmit.
const (
	baseRTO    sim.Time = 32
	maxRetries          = 8
)

// timerTagBit marks the wrapper's own retransmit timers; inner-process
// timer tags pass through SetTimer unmodified and must not set it (the
// protocols here use small tags). Below it a retransmit tag carries
// to<<seqBits | seq; 2^48 sends on one link is far beyond any run. Send
// rings start at minSendRing slots; receive bitsets grow up to
// maxRcvWords words, and seqs further ahead spill.
const (
	timerTagBit uint64 = 1 << 63
	seqBits            = 48
	minSendRing        = 8
	maxRcvWords        = 64
)

// Stats counts the wrapper's transport work for one run.
type Stats struct {
	// DataSent counts first-copy data frames sent.
	DataSent int64
	// Retransmits counts retry copies sent after a timeout.
	Retransmits int64
	// AcksSent counts acknowledgement frames sent.
	AcksSent int64
	// DupsSuppressed counts received data frames dropped by dedup
	// (network duplicates and retransmissions of already-acked frames).
	DupsSuppressed int64
	// GiveUps counts packets abandoned after the retry budget.
	GiveUps int64
}

// Add adds o's counters to s.
func (s *Stats) Add(o Stats) {
	s.DataSent += o.DataSent
	s.Retransmits += o.Retransmits
	s.AcksSent += o.AcksSent
	s.DupsSuppressed += o.DupsSuppressed
	s.GiveUps += o.GiveUps
}

// packet is one slot of a send ring: an outbound payload awaiting its
// ack and its retransmit timer, or a retired slot (seq 0). It holds no
// pointer: its payload is the slot pay of Proc.pays, which it shares with
// the rest of its multicast.
type packet struct {
	seq   uint64
	pay   int32
	tries uint8
	acked bool
}

// payload is one outbound payload and the number of live packets that
// name it. A slot whose refs reach 0 goes on the free list; its buffer
// is reused, run to run.
type payload struct {
	buf  []byte
	refs int32
}

// sndLink is the per-destination send window: seqs (1-based) up to base
// are retired, and each seq in (base, next] has slot seq&(len(ring)-1).
// The ring doubles when next - base reaches its length.
type sndLink struct {
	next, base uint64
	ring       []packet
}

// rcvLink is the per-source dedup state: every seq <= watermark has been
// delivered, as has each seq in spill and each seq above the watermark
// whose bit (seq mod 64·len(bits)) is set in the bits ring.
type rcvLink struct {
	watermark uint64
	bits      []uint64
	spill     map[uint64]struct{}
}

// Proc is the reliable-transport wrapper. It implements sim.Process (and
// TimerHandler) toward the runtime and sim.API toward the inner process.
// Create with Wrap, or recycle an existing one with Reset.
type Proc struct {
	inner sim.Process
	api   sim.API

	snd  []sndLink // per destination
	rcv  []rcvLink // per source
	pays []payload // outbound payloads, named by packet.pay
	free []int32   // slots of pays with no live packet

	buf   []byte // frame scratch (Send paths)
	stats Stats
}

var (
	_ sim.Process      = (*Proc)(nil)
	_ sim.TimerHandler = (*Proc)(nil)
	_ sim.API          = (*Proc)(nil)
	_ sim.Estimator    = (*Proc)(nil)
)

// Wrap builds a reliable-transport wrapper around a process.
func Wrap(inner sim.Process) *Proc {
	p := &Proc{}
	p.Reset(inner)
	return p
}

// Reset re-arms the wrapper around a (possibly different) inner process,
// recycling its link windows, payload slots and their buffers, and scratch
// — the pool-friendly contract harness run contexts rely on.
func (p *Proc) Reset(inner sim.Process) {
	p.inner = inner
	p.api = nil
	for i := range p.snd {
		for j := range p.snd[i].ring {
			p.snd[i].ring[j].seq = 0
		}
		p.snd[i].next, p.snd[i].base = 0, 0
	}
	p.snd = p.snd[:0]
	for i := range p.rcv {
		p.rcv[i].watermark = 0
		clear(p.rcv[i].bits)
		clear(p.rcv[i].spill)
	}
	p.rcv = p.rcv[:0]
	p.pays, p.free = p.pays[:0], p.free[:0]
	p.stats = Stats{}
}

// Inner returns the wrapped process (the harness reads protocol state —
// estimator, error surface — through it).
func (p *Proc) Inner() sim.Process { return p.inner }

// TransportStats returns the wrapper's transport counters.
func (p *Proc) TransportStats() Stats { return p.stats }

// link returns &(*links)[i], growing the slice within its capacity first
// so links Reset truncated come back with their (cleared) storage.
func link[L any](links *[]L, i sim.PartyID) *L {
	for int(i) >= len(*links) {
		*links = slices.Grow(*links, 1)[:len(*links)+1]
	}
	return &(*links)[i]
}

// outstanding returns the send link to `to` and the live slot holding
// seq, or a nil slot when seq was never sent on that link or is retired.
func (p *Proc) outstanding(to sim.PartyID, seq uint64) (*sndLink, *packet) {
	if int(to) >= len(p.snd) {
		return nil, nil
	}
	l := &p.snd[to]
	if seq <= l.base || seq > l.next {
		return l, nil
	}
	if pk := &l.ring[seq&uint64(len(l.ring)-1)]; pk.seq == seq {
		return l, pk
	}
	return l, nil
}

// retire frees pk's ring slot, drops its reference to its payload slot,
// and moves base past every retired seq.
func (p *Proc) retire(l *sndLink, pk *packet) {
	pk.seq = 0
	pl := &p.pays[pk.pay]
	if pl.refs--; pl.refs == 0 {
		p.free = append(p.free, pk.pay)
	}
	mask := uint64(len(l.ring) - 1)
	for l.base < l.next && l.ring[(l.base+1)&mask].seq == 0 {
		l.base++
	}
}

// grow doubles a full send ring: each live seq moves from slot i to i or
// i+len(old). Retired slots own nothing, so they are not copied.
func (l *sndLink) grow() {
	old := l.ring
	l.ring = make([]packet, max(minSendRing, 2*len(old)))
	mask := uint64(len(l.ring) - 1)
	for _, pk := range old {
		if pk.seq != 0 {
			l.ring[pk.seq&mask] = pk
		}
	}
}

// bitOf returns the word and mask of seq's bit in a receive ring.
func bitOf(bits []uint64, seq uint64) (*uint64, uint64) {
	i := seq & uint64(64*len(bits)-1)
	return &bits[i/64], 1 << (i % 64)
}

// spilled reports whether seq is in the spill set. Callers check the
// set's length first, which keeps the map off the path while it is empty.
func (l *rcvLink) spilled(seq uint64) bool {
	_, ok := l.spill[seq]
	return ok
}

// add records seq as delivered and reports whether it is new.
func (l *rcvLink) add(seq uint64) bool {
	if seq <= l.watermark || len(l.spill) > 0 && l.spilled(seq) {
		return false
	}
	if seq-l.watermark > 64*maxRcvWords {
		// Beyond the largest ring: the watermark catches up via spill.
		if l.spill == nil {
			l.spill = make(map[uint64]struct{})
		}
		l.spill[seq] = struct{}{}
		return true
	}
	for seq-l.watermark > uint64(64*len(l.bits)) {
		old := l.bits
		l.bits = make([]uint64, max(1, 2*len(old)))
		for s := l.watermark + 1; s <= l.watermark+uint64(64*len(old)); s++ {
			if w, b := bitOf(old, s); *w&b != 0 {
				w, b = bitOf(l.bits, s)
				*w |= b
			}
		}
	}
	w, b := bitOf(l.bits, seq)
	if *w&b != 0 {
		return false
	}
	*w |= b
	for {
		next := l.watermark + 1
		if w, b := bitOf(l.bits, next); *w&b != 0 {
			*w &^= b
		} else if len(l.spill) > 0 && l.spilled(next) {
			delete(l.spill, next)
		} else {
			break
		}
		l.watermark = next
	}
	return true
}

// --- sim.Process toward the runtime ---

// Init implements sim.Process: the wrapper captures the real API and
// hands itself to the inner process as its API.
func (p *Proc) Init(api sim.API) {
	p.api = api
	p.inner.Init(p)
}

// Deliver implements sim.Process: parse the frame, ack and dedup data,
// retire acked packets, and pass raw (unframed) traffic through.
func (p *Proc) Deliver(from sim.PartyID, data []byte) {
	if len(data) >= 2 {
		switch data[0] {
		case frameData:
			if seq, n := binary.Uvarint(data[1:]); n > 0 && seq > 0 {
				p.deliverData(from, seq, data[1+n:])
				return
			}
		case frameAck:
			if seq, n := binary.Uvarint(data[1:]); n > 0 && seq > 0 && 1+n == len(data) {
				p.deliverAck(from, seq)
				return
			}
		}
	}
	// Not a frame this layer produced: a Byzantine sender talking the
	// protocol dialect directly. Hand it through unchanged.
	p.inner.Deliver(from, data)
}

func (p *Proc) deliverData(from sim.PartyID, seq uint64, payload []byte) {
	// Always ack, even duplicates: the previous ack may have been lost.
	p.buf = append(p.buf[:0], frameAck)
	p.buf = binary.AppendUvarint(p.buf, seq)
	p.stats.AcksSent++
	p.api.Send(from, p.buf)

	if !link(&p.rcv, from).add(seq) {
		p.stats.DupsSuppressed++
		return
	}
	p.inner.Deliver(from, payload)
}

func (p *Proc) deliverAck(from sim.PartyID, seq uint64) {
	if _, pk := p.outstanding(from, seq); pk != nil {
		// Mark rather than retire: the pending retransmit timer still
		// names the slot and retires it when it fires.
		pk.acked = true
	}
}

// OnTimer implements sim.TimerHandler: retransmit timers (tag bit set)
// are handled here; everything else belongs to the inner process.
func (p *Proc) OnTimer(tag uint64) {
	if tag&timerTagBit == 0 {
		if th, ok := p.inner.(sim.TimerHandler); ok {
			th.OnTimer(tag)
		}
		return
	}
	to := sim.PartyID((tag &^ timerTagBit) >> seqBits)
	l, pk := p.outstanding(to, tag&(1<<seqBits-1))
	switch {
	case pk == nil:
	case pk.acked:
		p.retire(l, pk)
	case pk.tries > maxRetries:
		p.stats.GiveUps++
		p.retire(l, pk)
	default:
		p.stats.Retransmits++
		p.sendFrame(to, pk)
	}
}

// sendFrame (re)transmits a packet and arms its next retransmit timer
// with exponential backoff and seeded jitter.
func (p *Proc) sendFrame(to sim.PartyID, pk *packet) {
	p.buf = append(p.buf[:0], frameData)
	p.buf = binary.AppendUvarint(p.buf, pk.seq)
	p.buf = append(p.buf, p.pays[pk.pay].buf...)
	p.api.Send(to, p.buf)

	rto := baseRTO << pk.tries
	rto += sim.Time(p.api.Rand().Int63n(int64(baseRTO/2) + 1))
	pk.tries++
	p.api.SetTimer(rto, timerTagBit|uint64(to)<<seqBits|pk.seq)
}

// --- sim.API toward the inner process ---

// ID implements sim.API.
func (p *Proc) ID() sim.PartyID { return p.api.ID() }

// N implements sim.API.
func (p *Proc) N() int { return p.api.N() }

// Rand implements sim.API.
func (p *Proc) Rand() *rand.Rand { return p.api.Rand() }

// Decide implements sim.API.
func (p *Proc) Decide(value float64) { p.api.Decide(value) }

// SetTimer implements sim.API, passing inner-process timers through.
func (p *Proc) SetTimer(delay sim.Time, tag uint64) { p.api.SetTimer(delay, tag) }

// Send implements sim.API: store the payload, frame it with the link's
// next seq, record it for retransmission, and transmit the first copy.
func (p *Proc) Send(to sim.PartyID, data []byte) {
	p.send(to, p.store(data, 1))
}

// Multicast implements sim.API. Frames carry per-link sequence numbers,
// so a multicast expands into per-destination sends (same order as the
// simulator's own expansion: ascending party ID), all naming one payload
// slot.
func (p *Proc) Multicast(data []byte) {
	n := p.api.N()
	pay := p.store(data, int32(n))
	for to := 0; to < n; to++ {
		p.send(sim.PartyID(to), pay)
	}
}

// store copies data into a free payload slot that refs packets will name.
// A new slot extends pays within its capacity first, so the slots Reset
// truncated come back with their buffers.
func (p *Proc) store(data []byte, refs int32) int32 {
	var i int32
	if k := len(p.free); k > 0 {
		i, p.free = p.free[k-1], p.free[:k-1]
	} else {
		i = int32(len(p.pays))
		p.pays = slices.Grow(p.pays, 1)[:i+1]
	}
	pl := &p.pays[i]
	pl.buf = append(pl.buf[:0], data...)
	pl.refs = refs
	return i
}

// send records a packet naming payload slot pay on the link to `to` and
// transmits its first copy.
func (p *Proc) send(to sim.PartyID, pay int32) {
	l := link(&p.snd, to)
	if l.next-l.base == uint64(len(l.ring)) {
		l.grow()
	}
	l.next++
	pk := &l.ring[l.next&uint64(len(l.ring)-1)]
	*pk = packet{seq: l.next, pay: pay}

	p.stats.DataSent++
	p.sendFrame(to, pk)
}

// --- protocol-state passthrough for the harness ---

// Snapshot forwards the crash-recovery checkpoint hook to the inner
// process. The wrapper's own link state (sequence counters, dedup
// watermarks, outstanding packets) is deliberately NOT part of the
// snapshot: resetting sequence numbers on restore would make every
// post-rejoin frame collide with the receivers' dedup watermarks, so
// transport state survives the crash the way durable connection state
// would — only protocol state rolls back.
func (p *Proc) Snapshot(buf []byte) ([]byte, error) {
	sn, ok := p.inner.(snapshotter)
	if !ok {
		return nil, fmt.Errorf("relnet: inner process %T does not support checkpointing", p.inner)
	}
	return sn.Snapshot(buf)
}

// Restore forwards the checkpoint restore to the inner process.
func (p *Proc) Restore(data []byte) error {
	sn, ok := p.inner.(snapshotter)
	if !ok {
		return fmt.Errorf("relnet: inner process %T does not support checkpointing", p.inner)
	}
	return sn.Restore(data)
}

// Rejoin forwards the catch-up hook; the re-sent traffic flows back out
// through the wrapper's Send and gets fresh link sequence numbers, so
// peers that already saw the pre-crash copies accept it.
func (p *Proc) Rejoin() {
	if sn, ok := p.inner.(snapshotter); ok {
		sn.Rejoin()
	}
}

// snapshotter mirrors core.Snapshotter / sim's structural interface.
type snapshotter interface {
	Snapshot(buf []byte) ([]byte, error)
	Restore(data []byte) error
	Rejoin()
}

// Estimate implements sim.Estimator by reading through to the inner
// process (reporting "no estimate" when it is not an estimator).
func (p *Proc) Estimate() (float64, bool) {
	if e, ok := p.inner.(sim.Estimator); ok {
		return e.Estimate()
	}
	return 0, false
}

// Err surfaces the inner process's protocol error, if it tracks one.
func (p *Proc) Err() error {
	if e, ok := p.inner.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}
