package relnet

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/sim"
)

// Fuzz input grammar: a sequence of ops, each led by one byte.
//   - 1xxxxxxx: fire pending retransmit timer number xxxxxxx (mod count);
//   - 01xxxxxx: the inner process sends a two-byte payload (the op and a
//     send counter) to party xxxxxx mod n, or multicasts it when xxxxxx
//     is 63;
//   - 00xxxxxx: deliver a frame from party xxxxxx mod n; the next byte is
//     its length, then the frame bytes (cut short at the end of input).
const fuzzParties = 4

func fuzzDeliverOp(from byte, frame []byte) []byte {
	return append([]byte{from & 0x3f, byte(len(frame))}, frame...)
}

// FuzzDeliver feeds arbitrary frame sequences from arbitrary senders,
// interleaved with sends, multicasts and retransmit timers, into a wrapper
// around a recording process. It checks that nothing panics; that the
// first data frame for each (sender, seq) hands its payload to the inner
// process and every later one is suppressed, so no payload arrives twice;
// that acks reach nobody and every other frame passes through raw; that
// every data frame sent, first copy or retransmit, carries the payload
// the inner process sent with that (destination, seq), so no payload slot
// is reused while a packet still names it; that the receive rings stay
// within their cap and the send rings within twice the sends on their
// link; and that each payload slot's refs count the live packets naming
// it, with exactly the unnamed slots on the free list.
func FuzzDeliver(f *testing.F) {
	var seed []byte
	seed = append(seed, 0x41, 0x41, 0x42)
	seed = append(seed, fuzzDeliverOp(1, ackFrame(1))...)
	seed = append(seed, fuzzDeliverOp(1, ackFrame(2))...)
	seed = append(seed, 0x80, 0x80, 0x80)
	f.Add(seed)

	seed = nil
	for _, seq := range []uint64{1, 3, 3, 2, 1, 4} {
		seed = append(seed, fuzzDeliverOp(2, dataFrame(seq, byte(seq), 9))...)
	}
	f.Add(seed)

	seed = nil
	for _, seq := range []uint64{1 << 40, 64*maxRcvWords + 1, 1 << 40, 2, 1} {
		seed = append(seed, fuzzDeliverOp(3, dataFrame(seq, 7))...)
	}
	f.Add(seed)

	seed = []byte{0x41}
	for _, frame := range [][]byte{
		{frameData, 0x80}, {frameAck, 0xff, 0xff}, {frameData}, {frameAck, 0x01, 0x00},
		ackFrame(1 << 47), ackFrame(1<<48 + 1), {frameData, 0x00, 5}, {3, 1, 4, 1, 5},
	} {
		seed = append(seed, fuzzDeliverOp(1, frame)...)
	}
	f.Add(seed)

	f.Add([]byte{0x41, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})

	seed = []byte{0x7f, 0x42, 0x7f}
	for from := byte(0); from < fuzzParties; from++ {
		seed = append(seed, fuzzDeliverOp(from, ackFrame(1))...)
	}
	seed = append(seed, 0x80, 0x80, 0x80, 0x80, 0x7f, 0x81, 0x82)
	f.Add(seed)

	// A multicast's packet to party 0 retires (acked, then its timer)
	// while the other three are live; a send follows, then the packet to
	// party 1 retransmits.
	seed = append([]byte{0x7f}, fuzzDeliverOp(0, ackFrame(1))...)
	seed = append(seed, 0x80, 0x41, 0x80, 0x7f, 0x80, 0x80)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, in []byte) {
		inner := &countProc{}
		p := Wrap(inner)
		api := &tapeAPI{n: fuzzParties}
		p.Init(api)
		seen := map[[2]uint64]bool{}
		sent := make([]int, fuzzParties)
		payloads := map[[2]uint64][]byte{} // (to, seq) -> what the inner process sent
		checked, sends := 0, 0
		checkSent := func() {
			for ; checked < len(api.sends); checked++ {
				frame, to := api.frame(checked), api.sends[checked].to
				kind, seq, n := parseFrame(frame)
				if want := payloads[[2]uint64{uint64(to), seq}]; kind == frameData && !bytes.Equal(frame[1+n:], want) {
					t.Fatalf("data frame %x to %d carries %x, want %x", frame, to, frame[1+n:], want)
				}
			}
		}
		dataFrames := 0
		for len(in) > 0 {
			op := in[0]
			in = in[1:]
			switch {
			case op&0x80 != 0:
				if len(api.timers) > 0 {
					i := int(op&0x7f) % len(api.timers)
					tag := api.timers[i]
					api.timers = slices.Delete(api.timers, i, i+1)
					p.OnTimer(tag)
				}
				checkSent()
				continue
			case op&0x40 != 0:
				sends++
				payload := []byte{op, byte(sends)}
				lo, hi := int(op%fuzzParties), int(op%fuzzParties)+1
				if op&0x3f == 0x3f {
					lo, hi = 0, fuzzParties
				}
				for to := lo; to < hi; to++ {
					sent[to]++
					payloads[[2]uint64{uint64(to), uint64(sent[to])}] = payload
				}
				if hi-lo > 1 {
					p.Multicast(payload)
				} else {
					p.Send(sim.PartyID(lo), payload)
				}
				checkSent()
				continue
			}
			from := sim.PartyID(op % fuzzParties)
			size := 0
			if len(in) > 0 {
				size, in = min(int(in[0]), len(in)-1), in[1:]
			}
			frame := in[:size]
			in = in[size:]

			before := inner.got
			p.Deliver(from, frame)
			checkSent()
			got := inner.got - before
			kind, seq, n := parseFrame(frame)
			switch kind {
			case frameData:
				dataFrames++
				key := [2]uint64{uint64(from), seq}
				first := !seen[key]
				seen[key] = true
				if first && (got != 1 || !bytes.Equal(inner.last, frame[1+n:])) {
					t.Fatalf("first data frame %x from %d: %d deliveries of %x", frame, from, got, inner.last)
				}
				if !first && got != 0 {
					t.Fatalf("data frame (from %d, seq %d) delivered again", from, seq)
				}
			case frameAck:
				if got != 0 {
					t.Fatalf("ack frame %x reached the inner process", frame)
				}
			default:
				if got != 1 || !bytes.Equal(inner.last, frame) {
					t.Fatalf("raw frame %x: %d deliveries of %x", frame, got, inner.last)
				}
			}
		}
		for from, l := range p.rcv {
			if len(l.bits) > maxRcvWords || len(l.spill) > dataFrames {
				t.Fatalf("source %d: receive ring %d words, spill %d after %d data frames",
					from, len(l.bits), len(l.spill), dataFrames)
			}
		}
		for to, l := range p.snd {
			if len(l.ring) > max(minSendRing, 2*sent[to]) {
				t.Fatalf("destination %d: send ring %d slots after %d sends", to, len(l.ring), sent[to])
			}
		}
		checkSlots(t, p)
	})
}

// parseFrame classifies a frame the way the wire format defines it, not
// the way relnet's code reads it: frameData with a positive uvarint seq,
// frameAck with a positive uvarint seq and nothing after it, or raw (0).
func parseFrame(b []byte) (kind byte, seq uint64, n int) {
	if len(b) < 2 || (b[0] != frameData && b[0] != frameAck) {
		return 0, 0, 0
	}
	seq, n = binary.Uvarint(b[1:])
	if n <= 0 || seq == 0 || (b[0] == frameAck && 1+n != len(b)) {
		return 0, 0, 0
	}
	return b[0], seq, n
}
