package sim

import (
	"math/rand"
	"testing"
)

// drainCompare pops both queues tick by tick and asserts identical batches.
func drainCompare(t *testing.T, h, c eventQueue) {
	t.Helper()
	var hb, cb []tickEntry
	for h.Len() > 0 || c.Len() > 0 {
		var ht, ct Time
		hb, ht = h.PopTick(hb[:0])
		cb, ct = c.PopTick(cb[:0])
		if len(hb) != len(cb) || ht != ct {
			t.Fatalf("batch mismatch: heap %d at %d, calendar %d at %d", len(hb), ht, len(cb), ct)
		}
		for i := range hb {
			if hb[i] != cb[i] {
				t.Fatalf("batch[%d]: heap %+v, calendar %+v", i, hb[i], cb[i])
			}
		}
	}
}

// TestCalendarMatchesHeapRandom drives both cores with the same random
// push/pop schedule — delays from 1 tick to past the wheel horizon (so the
// overflow heap and its migration path are exercised) — and asserts
// identical (at, Seq) pop orders, every entry field intact. Each entry's ref
// is its Seq, so the pops are also checked against the tick and the Seq
// order they were pushed with.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := eventQueue(&eventHeap{})
		c := eventQueue(newCalendarQueue())
		now := Time(0)
		seq := uint64(0)
		due := make(map[uint64]Time)
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
				due[seq] = now + delay
				e := tickEntry{ref: seq, to: int32(rng.Intn(11)) - 5}
				h.Push(now+delay, seq, e)
				c.Push(now+delay, seq, e)
			}
		}
		push(64)
		var hb, cb []tickEntry
		for h.Len() > 0 {
			var ht, ct Time
			hb, ht = h.PopTick(hb[:0])
			cb, ct = c.PopTick(cb[:0])
			if len(hb) != len(cb) || ht != ct {
				t.Fatalf("seed %d: batch mismatch: heap %d at %d, calendar %d at %d", seed, len(hb), ht, len(cb), ct)
			}
			for i := range hb {
				if hb[i] != cb[i] {
					t.Fatalf("seed %d: batch[%d]: heap %+v, calendar %+v", seed, i, hb[i], cb[i])
				}
				if due[hb[i].ref] != ht || (i > 0 && hb[i].ref <= hb[i-1].ref) {
					t.Fatalf("seed %d: batch[%d] (seq %d, due %d) popped at %d out of Seq order", seed, i, hb[i].ref, due[hb[i].ref], ht)
				}
			}
			now = ht
			if rng.Intn(3) > 0 {
				push(rng.Intn(16)) // interleave pushes, as deliveries do
			}
		}
		if c.Len() != 0 {
			t.Fatalf("seed %d: calendar retains %d events after heap drained", seed, c.Len())
		}
	}
}

// TestCalendarSameTickFIFO pins the per-bucket FIFO: many entries on one
// tick must pop as a single batch in send-sequence order.
func TestCalendarSameTickFIFO(t *testing.T) {
	q := newCalendarQueue()
	const k = 100
	for i := 1; i <= k; i++ {
		q.Push(7, uint64(i), tickEntry{ref: uint64(i)})
	}
	batch, at := q.PopTick(nil)
	if len(batch) != k || at != 7 {
		t.Fatalf("got batch of %d at %d, want %d at 7", len(batch), at, k)
	}
	for i, e := range batch {
		if e.ref != uint64(i+1) {
			t.Fatalf("batch[%d] has seq %d, want %d", i, e.ref, i+1)
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
			q.Push(now+1+Time(i%(2+wave%7)), seq, tickEntry{ref: seq})
		}
		live, _ := chunkCounts(q)
		highWater = max(highWater, live)
		var buf []tickEntry
		for q.Len() > 0 {
			buf, now = q.PopTick(buf[:0])
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
// entries migrating into a bucket whose tail chunk is partly filled.
func TestCalendarMultiChunkTickAndMigration(t *testing.T) {
	h := eventQueue(&eventHeap{})
	c := newCalendarQueue()
	seq := uint64(0)
	push := func(at Time) {
		seq++
		e := tickEntry{ref: seq<<32 | seq, to: int32(seq%5) - 2}
		h.Push(at, seq, e)
		c.Push(at, seq, e)
	}
	// Far-future entries for tick wheelSize+5, pushed first so they are the
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
	hb, ht := h.PopTick(nil)
	cb, ct := c.PopTick(nil)
	if len(hb) != len(cb) || len(cb) != 3*chunkEvents+chunkEvents/2 || ht != 3 || ct != 3 {
		t.Fatalf("dense tick: heap %d at %d, calendar %d entries at %d", len(hb), ht, len(cb), ct)
	}
	for i := range hb {
		if hb[i] != cb[i] {
			t.Fatalf("dense tick[%d]: heap %+v, calendar %+v", i, hb[i], cb[i])
		}
	}
	push(10)
	h.PopTick(nil)
	c.PopTick(nil)
	if c.overflow.Len() != 0 {
		t.Fatalf("overflow holds %d entries after the window passed them", c.overflow.Len())
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
