package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestEventLayout pins the queued copy (tickEntry) at 16 bytes, the heap
// item at 32 and the send header in the payload arena at 24, and checks
// that the entry, the heap item and the deferred op hold no pointers: the
// queues copy all three as plain memory and never clear them, which is only
// sound while none holds a reference the garbage collector must see.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(tickEntry{}); got != 16 {
		t.Errorf("unsafe.Sizeof(tickEntry{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(heapItem{}); got != 32 {
		t.Errorf("unsafe.Sizeof(heapItem{}) = %d, want 32", got)
	}
	if headerSize != 24 {
		t.Errorf("headerSize = %d, want 24", headerSize)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(tickEntry{}), reflect.TypeOf(heapItem{}), reflect.TypeOf(pendingOp{})} {
		if path, ok := pointerField(typ); ok {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// pointerField walks t and returns the path of the first field that holds
// a pointer (pointers, slices, strings, maps, channels, funcs, interfaces).
func pointerField(t reflect.Type) (string, bool) {
	switch k := t.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128:
		return "", false
	case k == reflect.Array:
		if p, ok := pointerField(t.Elem()); ok {
			return "[]" + p, true
		}
		return "", false
	case k == reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := pointerField(f.Type); ok {
				return "." + f.Name + p, true
			}
		}
		return "", false
	}
	return " (" + t.String() + ")", true
}

// handleTag is a timer tag with the high bits set, in relnet's
// 1<<63 | to<<48 | seq shape.
const handleTag = 1<<63 | 5<<48 | 7

// dupToOne delays every send by 2 ticks and duplicates every fifth send to
// party 1, 3 ticks after the primary copy. It counts the envelopes to party
// 1 whose Data is not the payload sent under that Seq.
type dupToOne struct {
	script [][]byte
	bad    *int
}

func (s dupToOne) Fate(env *Envelope, _ *rand.Rand) Fate {
	f := Fate{Delay: 2}
	if env.To != 1 {
		return f
	}
	if !isPayload(env.Data, sentTo1(s.script, env.Seq)) {
		*s.bad++
	}
	if env.Seq%5 == 0 {
		f.DupExtra = 3
	}
	return f
}

// sentTo1 returns the payload party 0 sent party 1 under seq: script entry
// seq-1, or the empty multicast that follows the script.
func sentTo1(script [][]byte, seq uint64) []byte {
	if seq <= uint64(len(script)) {
		return script[seq-1]
	}
	return nil
}

// isPayload reports whether got carries the bytes of the sent payload want,
// as nil when want is empty.
func isPayload(got, want []byte) bool {
	return bytes.Equal(got, want) && (got == nil) == (len(want) == 0)
}

// handleDelivery is one recorded delivery.
type handleDelivery struct {
	data  []byte
	isNil bool
}

func recordDelivery(data []byte) handleDelivery {
	return handleDelivery{data: bytes.Clone(data), isNil: data == nil}
}

// handleProc is the payload-handle test's process. Party 0 sends the script
// to party 1 at Init, then multicasts an empty payload and sets a timer;
// party 1 echoes every delivery back, so the echoes go through the
// deferred-op flush on batched ticks. Each party decides once it has seen
// everything it expects.
type handleProc struct {
	api     API
	script  [][]byte
	want    int
	got     []handleDelivery
	tags    []uint64
	batches int
}

func (p *handleProc) Init(api API) {
	p.api = api
	if p.script == nil {
		return
	}
	for _, b := range p.script {
		api.Send(1, b)
	}
	api.Multicast(nil)
	api.SetTimer(3, handleTag)
}

func (p *handleProc) Deliver(from PartyID, data []byte) {
	p.got = append(p.got, recordDelivery(data))
	if p.api.ID() == 1 {
		p.api.Send(0, data)
	}
	p.maybeDecide()
}

func (p *handleProc) DeliverBatch(b *Batch) {
	p.batches++
	for from, data, ok := b.Next(); ok; from, data, ok = b.Next() {
		p.Deliver(from, data)
	}
}

func (p *handleProc) OnTimer(tag uint64) {
	p.tags = append(p.tags, tag)
	p.maybeDecide()
}

func (p *handleProc) maybeDecide() {
	if len(p.got) == p.want && (p.script == nil || len(p.tags) > 0) {
		p.api.Decide(0)
	}
}

// handleScript builds payloads that span several arena blocks, with one
// larger than a block and zero-length ones (nil and empty) mixed in.
func handleScript() [][]byte {
	rng := rand.New(rand.NewSource(8))
	script := make([][]byte, 160)
	for i := range script {
		switch {
		case i == 80:
			script[i] = make([]byte, arenaBlock+1000)
		case i%10 == 3:
			script[i] = nil
		case i%10 == 7:
			script[i] = []byte{}
			continue
		default:
			script[i] = make([]byte, 1+rng.Intn(2000))
		}
		rng.Read(script[i])
	}
	return script
}

// TestPayloadHandlesDelivered sends payloads through the arena's send
// headers on both configurations and on a recycled network: headers and
// payloads spanning block turnovers, beside one payload larger than a
// block, zero-length ones (header-only arena entries, which must arrive as
// nil), an empty multicast whose two copies share one header-only entry,
// duplicates under a dup fate (both copies carry the sent bytes, Seq and
// Sent), echoes scheduled through the deferred flush, and a timer on party
// 0 (queued as to = ^0 = -1) whose tag has its high bits set, which must
// come back to party 0 unchanged.
func TestPayloadHandlesDelivered(t *testing.T) {
	script := handleScript()
	dups := 0
	for seq := 1; seq <= len(script); seq++ {
		if seq%5 == 0 {
			dups++
		}
	}
	// Party 0's Init sends the script under Seqs 1..len(script), then the
	// empty multicast: Seq mcast to itself and mcast+1 to party 1.
	mcast := uint64(len(script) + 1)
	recvN := len(script) + 1 + dups // the script, the multicast copy, the duplicates
	sendN := recvN + 1              // their echoes and party 0's own multicast copy
	var net *Network
	for _, reference := range []bool{true, false, false} {
		label := map[bool]string{true: "reference", false: "production"}[reference]
		bad := 0
		cfg := Config{N: 2, Scheduler: dupToOne{script: script, bad: &bad}, Seed: 1, Reference: reference}
		if net == nil {
			var err error
			if net, err = New(cfg); err != nil {
				t.Fatal(err)
			}
		} else if err := net.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		sender := &handleProc{script: script, want: sendN}
		recv := &handleProc{want: recvN}
		if err := net.SetProcess(0, sender); err != nil {
			t.Fatal(err)
		}
		if err := net.SetProcess(1, recv); err != nil {
			t.Fatal(err)
		}
		copies := make(map[uint64]int)
		net.SetObserver(func(now Time, env Envelope) {
			if env.To != 1 {
				// Every send to party 0 is its own multicast copy, sent at
				// Init, or an echo, sent 2 ticks before it arrives.
				if env.Seq == mcast && (env.From != 0 || env.Sent != 0 || env.Data != nil) {
					t.Errorf("%s: party 0's multicast copy arrived as %+v", label, env)
				}
				if env.Seq != mcast && (env.From != 1 || env.Sent != now-2) {
					t.Errorf("%s: echo seq %d from %d sent at %d arrived at %d", label, env.Seq, env.From, env.Sent, now)
				}
				return
			}
			copies[env.Seq]++
			if env.From != 0 || env.Sent != 0 {
				t.Errorf("%s: seq %d to party 1 is from %d, sent at %d; want from 0 at 0", label, env.Seq, env.From, env.Sent)
			}
			if want := sentTo1(script, env.Seq); !isPayload(env.Data, want) {
				t.Errorf("%s: observer's seq %d payload (%d bytes, nil %v) differs from the %d bytes sent",
					label, env.Seq, len(env.Data), env.Data == nil, len(want))
			}
		})
		res, err := net.Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if bad != 0 {
			t.Errorf("%s: the scheduler saw %d envelopes whose Data is not the payload sent", label, bad)
		}
		if !reference && recv.batches == 0 {
			t.Errorf("%s: the receiver never got a DeliverBatch call", label)
		}
		if res.Stats.MessagesDuped != dups || res.Stats.MessagesDelivered != recvN+sendN {
			t.Errorf("%s: stats %+v, want %d dups and %d deliveries", label, res.Stats, dups, recvN+sendN)
		}
		for seq := uint64(1); seq <= uint64(len(script)); seq++ {
			want := 1
			if seq%5 == 0 {
				want = 2
			}
			if copies[seq] != want {
				t.Errorf("%s: seq %d delivered %d times, want %d", label, seq, copies[seq], want)
			}
		}
		if copies[mcast+1] != 1 || len(copies) != len(script)+1 {
			t.Errorf("%s: party 1 got %d copies of the multicast (seq %d) and %d Seqs, want 1 and %d",
				label, copies[mcast+1], mcast+1, len(copies), len(script)+1)
		}
		// Party 1 gets the script in Seq order, then the multicast, then the
		// duplicates; party 0 gets its own multicast copy, then the echoes in
		// the order party 1 sent them.
		var want []handleDelivery
		for _, b := range script {
			want = append(want, recordDelivery(b))
		}
		want = append(want, recordDelivery(nil))
		for i := 4; i < len(script); i += 5 {
			want = append(want, recordDelivery(script[i]))
		}
		for k, got := range [][]handleDelivery{recv.got, sender.got} {
			want := want
			if k == 1 {
				want = append([]handleDelivery{recordDelivery(nil)}, want...)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d deliveries, want %d", label, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i].data, want[i].data) || got[i].isNil != (len(want[i].data) == 0) {
					t.Fatalf("%s: delivery %d has %d bytes (nil %v), want %d", label, i,
						len(got[i].data), got[i].isNil, len(want[i].data))
				}
			}
		}
		if len(sender.tags) != 1 || sender.tags[0] != handleTag || len(recv.tags) != 0 {
			t.Errorf("%s: timer tags %#x on party 0 and %#x on party 1, want [%#x] and none",
				label, sender.tags, recv.tags, uint64(handleTag))
		}
	}
}
