package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestEventLayout pins the queued event at 48 bytes with no pointers, and
// the deferred op without pointers: the queues copy both as plain memory
// and never clear them, which is only sound while neither holds a
// reference the garbage collector must see.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 48", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(event{}), reflect.TypeOf(pendingOp{})} {
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
	if !isPayload(env.Data, s.script[env.Seq-1]) {
		*s.bad++
	}
	if env.Seq%5 == 0 {
		f.DupExtra = 3
	}
	return f
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
// to party 1 at Init and sets a timer; party 1 echoes every delivery back,
// so the echoes go through the deferred-op flush on batched ticks. Each
// party decides once it has seen everything it expects.
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

// TestPayloadHandlesDelivered sends payloads through the arena handles on
// both configurations and on a recycled network: payloads spanning block
// turnovers, one larger than a block, zero-length ones (which must arrive
// as nil), duplicates under a dup fate (both copies carry the sent bytes),
// echoes scheduled through the deferred flush, and a timer tag with its
// high bits set, which must come back unchanged.
func TestPayloadHandlesDelivered(t *testing.T) {
	script := handleScript()
	dups := 0
	for seq := 1; seq <= len(script); seq++ {
		if seq%5 == 0 {
			dups++
		}
	}
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
		sender := &handleProc{script: script, want: len(script) + dups}
		recv := &handleProc{want: len(script) + dups}
		if err := net.SetProcess(0, sender); err != nil {
			t.Fatal(err)
		}
		if err := net.SetProcess(1, recv); err != nil {
			t.Fatal(err)
		}
		copies := make(map[uint64]int)
		net.SetObserver(func(_ Time, env Envelope) {
			if env.To != 1 {
				return
			}
			copies[env.Seq]++
			if want := script[env.Seq-1]; !isPayload(env.Data, want) {
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
		if res.Stats.MessagesDuped != dups || res.Stats.MessagesDelivered != 2*(len(script)+dups) {
			t.Errorf("%s: stats %+v, want %d dups and %d deliveries", label, res.Stats, dups, 2*(len(script)+dups))
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
		// Party 1 gets the script in Seq order, then the duplicates; party 0
		// gets the echoes in the order party 1 sent them.
		var want []handleDelivery
		for _, b := range script {
			want = append(want, recordDelivery(b))
		}
		for i := 4; i < len(script); i += 5 {
			want = append(want, recordDelivery(script[i]))
		}
		for _, got := range [][]handleDelivery{recv.got, sender.got} {
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
		if len(sender.tags) != 1 || sender.tags[0] != handleTag {
			t.Errorf("%s: timer tags %#x, want [%#x]", label, sender.tags, uint64(handleTag))
		}
	}
}
