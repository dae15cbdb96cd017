package sim

import (
	"math/rand"
	"testing"
)

// drainCompare pops both queues tick by tick and asserts identical batches.
func drainCompare(t *testing.T, h, c eventQueue) {
	t.Helper()
	var hb, cb []event
	for h.Len() > 0 || c.Len() > 0 {
		hb = h.PopTick(hb[:0])
		cb = c.PopTick(cb[:0])
		if len(hb) != len(cb) {
			t.Fatalf("batch size mismatch: heap %d, calendar %d", len(hb), len(cb))
		}
		for i := range hb {
			if hb[i].at != cb[i].at || hb[i].env.Seq != cb[i].env.Seq {
				t.Fatalf("batch[%d]: heap (at=%d seq=%d), calendar (at=%d seq=%d)",
					i, hb[i].at, hb[i].env.Seq, cb[i].at, cb[i].env.Seq)
			}
		}
	}
}

// TestCalendarMatchesHeapRandom drives both cores with the same random
// push/pop schedule — delays from 1 tick to past the wheel horizon (so the
// overflow heap and its migration path are exercised) — and asserts
// identical (at, Seq) pop orders.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := eventQueue(&eventHeap{})
		c := eventQueue(newCalendarQueue())
		now := Time(0)
		seq := uint64(0)
		budget := 4000 // total pushes per seed, so the drain terminates
		push := func(k int) {
			if k > budget {
				k = budget
			}
			budget -= k
			for i := 0; i < k; i++ {
				var delay Time
				switch rng.Intn(4) {
				case 0:
					delay = 1 + Time(rng.Int63n(8)) // dense near-future
				case 1:
					delay = 1 + Time(rng.Int63n(wheelSize-1)) // anywhere in the wheel
				case 2:
					delay = wheelSize + Time(rng.Int63n(3*wheelSize)) // overflow
				default:
					delay = 1 + Time(rng.Int63n(int64(MaxDelayCap))) // worst case
				}
				seq++
				e := event{at: now + delay, env: Envelope{Seq: seq}}
				h.Push(e)
				c.Push(e)
			}
		}
		push(64)
		var hb, cb []event
		for h.Len() > 0 {
			hb = h.PopTick(hb[:0])
			cb = c.PopTick(cb[:0])
			if len(hb) != len(cb) {
				t.Fatalf("seed %d: batch size mismatch: heap %d, calendar %d", seed, len(hb), len(cb))
			}
			for i := range hb {
				if hb[i].at != cb[i].at || hb[i].env.Seq != cb[i].env.Seq {
					t.Fatalf("seed %d: batch[%d]: heap (at=%d seq=%d), calendar (at=%d seq=%d)",
						seed, i, hb[i].at, hb[i].env.Seq, cb[i].at, cb[i].env.Seq)
				}
			}
			now = hb[0].at
			if rng.Intn(3) > 0 {
				push(rng.Intn(16)) // interleave pushes, as deliveries do
			}
		}
		if c.Len() != 0 {
			t.Fatalf("seed %d: calendar retains %d events after heap drained", seed, c.Len())
		}
	}
}

// TestCalendarSameTickFIFO pins the per-bucket FIFO: many events on one
// tick must pop as a single batch in send-sequence order.
func TestCalendarSameTickFIFO(t *testing.T) {
	q := newCalendarQueue()
	const k = 100
	for i := 1; i <= k; i++ {
		q.Push(event{at: 7, env: Envelope{Seq: uint64(i)}})
	}
	batch := q.PopTick(nil)
	if len(batch) != k {
		t.Fatalf("got batch of %d, want %d", len(batch), k)
	}
	for i, e := range batch {
		if e.env.Seq != uint64(i+1) {
			t.Fatalf("batch[%d] has seq %d, want %d", i, e.env.Seq, i+1)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue retains %d events", q.Len())
	}
}

// chunkCounts returns the chunks live in wheel buckets and the chunks on
// the free list.
func chunkCounts(q *calendarQueue) (live, free int) {
	for i := range q.wheel {
		for c := q.wheel[i].head; c != nil; c = c.next {
			live++
		}
	}
	for c := q.free; c != nil; c = c.next {
		free++
	}
	return live, free
}

// TestCalendarChunksRecycle pins the chunk free list: pushing and popping in
// waves must not allocate more chunks than the high-water mark of chunks
// live at once.
func TestCalendarChunksRecycle(t *testing.T) {
	q := newCalendarQueue()
	seq := uint64(0)
	now := Time(0)
	highWater := 0
	for wave := 0; wave < 50; wave++ {
		// Dense ticks (several chunks each) next to sparse ones, with the
		// spread changing per wave so buckets land on different slots.
		for i := 0; i < 600; i++ {
			seq++
			q.Push(event{at: now + 1 + Time(i%(2+wave%7)), env: Envelope{Seq: seq}})
		}
		live, _ := chunkCounts(q)
		highWater = max(highWater, live)
		var buf []event
		for q.Len() > 0 {
			buf = q.PopTick(buf[:0])
			now = buf[0].at
		}
		live, free := chunkCounts(q)
		if live != 0 {
			t.Fatalf("wave %d: %d chunks still in the wheel after draining", wave, live)
		}
		if free > highWater {
			t.Fatalf("wave %d: %d chunks allocated, high-water mark of live chunks is %d", wave, free, highWater)
		}
	}
}

// TestCalendarMultiChunkTickAndMigration pins the chunk boundaries against
// the heap core: one tick spanning more than three chunks, and overflow
// events migrating into a bucket whose tail chunk is partly filled.
func TestCalendarMultiChunkTickAndMigration(t *testing.T) {
	h := eventQueue(&eventHeap{})
	c := newCalendarQueue()
	seq := uint64(0)
	push := func(at Time) {
		seq++
		e := event{at: at, env: Envelope{Seq: seq}}
		h.Push(e)
		c.Push(e)
	}
	// Far-future events for tick wheelSize+5, pushed first so they are the
	// older ones: they sit in the overflow heap until the window reaches
	// them, behind nothing.
	for i := 0; i < chunkEvents/2; i++ {
		push(wheelSize + 5)
	}
	// One dense tick spanning 3.5 chunks.
	for i := 0; i < 3*chunkEvents+chunkEvents/2; i++ {
		push(3)
	}
	if live, _ := chunkCounts(c); live != 4 {
		t.Fatalf("dense tick occupies %d chunks, want 4", live)
	}
	// Popping tick 3 moves the window to [3, wheelSize+3): the far events
	// are still out of reach. A push at tick 10 makes the next pop advance
	// the window past wheelSize+5, migrating them into their bucket, whose
	// tail chunk then takes more direct pushes until it spills over.
	hb := h.PopTick(nil)
	cb := c.PopTick(nil)
	if len(hb) != len(cb) || len(cb) != 3*chunkEvents+chunkEvents/2 {
		t.Fatalf("dense tick: heap %d, calendar %d events", len(hb), len(cb))
	}
	for i := range hb {
		if hb[i].env.Seq != cb[i].env.Seq {
			t.Fatalf("dense tick[%d]: heap seq %d, calendar seq %d", i, hb[i].env.Seq, cb[i].env.Seq)
		}
	}
	push(10)
	h.PopTick(nil)
	c.PopTick(nil)
	if c.overflow.Len() != 0 {
		t.Fatalf("overflow holds %d events after the window passed them", c.overflow.Len())
	}
	for i := 0; i < chunkEvents; i++ {
		push(wheelSize + 5)
	}
	drainCompare(t, h, c)
}

// TestNetworkCoresAgree runs the same echo execution on the reference
// configuration (heap) and in production (calendar queue) and compares
// results field for field.
func TestNetworkCoresAgree(t *testing.T) {
	run := func(reference bool) *Result {
		t.Helper()
		net, _ := newEchoNet(t, 5, func(cfg *Config) { cfg.Reference = reference })
		res, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(true), run(false)
	if a.FinishTime != b.FinishTime || a.Stats != b.Stats || len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("core results diverge: heap %+v, calendar %+v", a, b)
	}
	for id, v := range a.Decisions {
		if b.Decisions[id] != v || a.DecidedAt[id] != b.DecidedAt[id] {
			t.Fatalf("party %d diverges across cores", id)
		}
	}
}
