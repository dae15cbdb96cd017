package livenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// The mailbox takes its clock as an argument, so everything below runs
// without the wall clock, goroutines or sleeps: the tests say what time it
// is.

const tick = time.Microsecond

// testBox is a mailbox with its owner's side: the batch buffer a party
// keeps between takes and the slab view the last take returned.
type testBox struct {
	mailbox
	batch []uint32
	slab  []item
}

func newTestMailbox(depth int) *testBox {
	m := &testBox{}
	m.init(depth, 0)
	return m
}

// msg is a data item whose payload byte names it.
func msg(name byte) item { return item{from: sim.PartyID(name), data: []byte{name}} }

// next takes a batch at now, as the owner's loop does, and renders it.
func (m *testBox) next(now time.Duration) (got string, sleep time.Duration) {
	m.batch, m.slab, sleep = m.take(now, m.batch)
	return m.render(m.batch), sleep
}

// render shows the items of slots as a string: a data item as its payload
// byte, a timer as the digit of its tag.
func (m *testBox) render(slots []uint32) string {
	var got []byte
	for _, s := range slots {
		if it := m.slab[s]; it.timer {
			got = append(got, '0'+byte(it.tag))
		} else {
			got = append(got, it.data[0])
		}
	}
	return string(got)
}

// drain takes everything landed at now and renders it. One take hands over
// all of it, so a second take at the same now must find nothing.
func drain(m *testBox, now time.Duration) string {
	got, _ := m.next(now)
	var again testBox
	again.batch, again.slab, _ = m.take(now, nil)
	if len(again.batch) > 0 {
		panic("a second take at the same time found " + again.render(again.batch))
	}
	return got
}

// inUse counts the slab slots not on the free list.
func (m *testBox) inUse() int {
	free := 0
	for f := m.free; f != 0; f = uint32(m.mailbox.slab[f-1].tag) {
		free++
	}
	return len(m.mailbox.slab) - free
}

// signalled consumes the wake token, if there is one.
func signalled(m *testBox) bool {
	select {
	case <-m.wake:
		return true
	default:
		return false
	}
}

func TestMailboxDeliversInDueThenPushOrder(t *testing.T) {
	m := newTestMailbox(64)
	// Pushed out of due order, with two ties: c/d at 20 and a/e at 10.
	m.push(0, 30*tick, msg('f'))
	m.push(0, 10*tick, msg('a'))
	m.push(0, 20*tick, msg('c'))
	m.push(0, 20*tick, msg('d'))
	m.push(0, 10*tick, msg('e'))
	m.push(0, 15*tick, msg('b'))

	if got, sleep := m.next(9 * tick); got != "" || sleep != tick {
		t.Fatalf("before anything is due: took %q, sleep %v, want nothing and 1µs", got, sleep)
	}
	if got := drain(m, 15*tick); got != "aeb" {
		t.Errorf("due at 15µs: got %q, want %q", got, "aeb")
	}
	if got := drain(m, 29*tick); got != "cd" {
		t.Errorf("due at 29µs: got %q, want %q", got, "cd")
	}
	if got := drain(m, time.Hour); got != "f" {
		t.Errorf("the rest: got %q, want %q", got, "f")
	}
	if got, sleep := m.next(time.Hour); got != "" || sleep >= 0 {
		t.Errorf("empty mailbox: took %q, sleep %v, want no item and a negative sleep", got, sleep)
	}
	if m.shed != 0 {
		t.Errorf("shed %d with room to spare", m.shed)
	}
}

func TestMailboxShedsOldestBeyondDepth(t *testing.T) {
	// 40 is past the ring's first allocation, so the ring grows on the way
	// to its bound; the pops in between make it wrap.
	const depth, extra = 40, 25
	m := newTestMailbox(depth)
	for i := 0; i < 10; i++ {
		m.push(0, tick, msg(byte(i)))
	}
	if got := drain(m, tick); len(got) != 10 {
		t.Fatalf("warm-up: took %d of 10", len(got))
	}
	for i := 0; i < depth+extra; i++ {
		m.push(0, time.Duration(2+i)*tick, msg(byte(i)))
	}
	got := drain(m, time.Hour)
	if m.shed != extra {
		t.Errorf("shed %d, want %d", m.shed, extra)
	}
	if len(got) != depth {
		t.Fatalf("%d survivors, want %d", len(got), depth)
	}
	for i := range got {
		if want := byte(extra + i); got[i] != want {
			t.Fatalf("survivor %d is item %d, want %d: the newest %d in order", i, got[i], want, depth)
		}
	}
	if cap(m.ready.buf) > depth {
		t.Errorf("ring grew to %d, past its depth %d", cap(m.ready.buf), depth)
	}
}

func TestMailboxShedsBehindAWedgedOwner(t *testing.T) {
	// The owner never takes: once the mailbox holds more than its depth,
	// the senders' own pushes land what is due and shed, so its memory
	// stays bounded with nobody taking.
	m := newTestMailbox(4)
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * tick
		m.push(now, now, msg(byte(i)))
	}
	if m.shed != 96 || m.ready.n != 4 || len(m.heap) != 0 {
		t.Errorf("shed %d, landed %d, in flight %d; want 96, 4, 0", m.shed, m.ready.n, len(m.heap))
	}
}

func TestMailboxTimersSurviveOverflowAndComeFirst(t *testing.T) {
	m := newTestMailbox(1)
	m.push(0, 1*tick, msg('a'))
	m.push(0, 2*tick, item{tag: 1, timer: true})
	m.push(0, 3*tick, msg('b'))
	m.push(0, 4*tick, item{tag: 2, timer: true})
	m.push(0, 5*tick, msg('c'))
	m.push(0, 6*tick, item{tag: 3, timer: true})
	if got := drain(m, time.Hour); got != "123c" {
		t.Errorf("got %q, want %q: every timer, in order, before the one surviving message", got, "123c")
	}
	if m.shed != 2 {
		t.Errorf("shed %d, want 2 (messages only)", m.shed)
	}
}

func TestMailboxCrashDropsLandedDataOnly(t *testing.T) {
	m := newTestMailbox(8)
	m.push(0, 1*tick, msg('a'))
	m.push(0, 2*tick, item{tag: 1, timer: true})
	m.push(0, 3*tick, msg('b'))
	m.push(0, 9*tick, msg('c'))                  // still in flight at the crash
	m.push(0, 9*tick, item{tag: 2, timer: true}) // likewise
	m.crash(5*tick, nil)
	if m.shed != 0 {
		t.Errorf("crash counted %d as shed; a restart's lost buffers are not shedding", m.shed)
	}
	if got := drain(m, 5*tick); got != "1" {
		t.Errorf("right after the crash: got %q, want the fired timer alone", got)
	}
	if got := drain(m, time.Hour); got != "2c" {
		t.Errorf("after the crash: got %q, want %q (what was in flight still arrives)", got, "2c")
	}
}

func TestMailboxWakesOnlyForANewMinimum(t *testing.T) {
	m := newTestMailbox(8)
	steps := []struct {
		due  time.Duration
		wake bool
		why  string
	}{
		{50 * tick, true, "first item: the owner sleeps with no deadline"},
		{60 * tick, false, "later than the minimum"},
		{50 * tick, false, "ties the minimum, but was pushed after it"},
		{40 * tick, true, "earlier than the minimum"},
		{45 * tick, false, "between the new minimum and the old"},
	}
	for i, s := range steps {
		m.push(0, s.due, msg(byte(i)))
		if got := signalled(m); got != s.wake {
			t.Errorf("push %d (due %v): wake %v, want %v: %s", i, s.due, got, s.wake, s.why)
		}
	}
	// A push that is due at once still signals: it was the minimum when it
	// went in, and the owner may be asleep with nothing to wait for.
	drain(m, time.Hour)
	m.push(100*tick, 100*tick, msg('z'))
	if !signalled(m) {
		t.Error("push of an already-due item into an empty mailbox did not signal")
	}
	if got := drain(m, 100*tick); got != "z" {
		t.Errorf("got %q, want %q", got, "z")
	}
}

func TestMailboxTakeHandsOverEveryTimerBeforeData(t *testing.T) {
	m := newTestMailbox(64)
	m.push(0, 1*tick, msg('a'))
	m.push(0, 2*tick, item{tag: 1, timer: true})
	m.push(0, 3*tick, msg('b'))
	m.push(0, 5*tick, item{tag: 3, timer: true})
	m.push(0, 4*tick, item{tag: 2, timer: true})
	m.push(0, 6*tick, msg('c'))
	m.push(0, 9*tick, item{tag: 4, timer: true}) // not yet due
	got, sleep := m.next(6 * tick)
	if got != "123abc" {
		t.Errorf("batch %q, want %q: every fired timer in due order, then the data", got, "123abc")
	}
	if sleep != 3*tick {
		t.Errorf("sleep %v, want 3µs until the timer still in flight", sleep)
	}
	// The next take frees the first batch's slots and reuses its buffer.
	first := &m.batch[0]
	if got, _ := m.next(time.Hour); got != "4" || &m.batch[0] != first {
		t.Errorf("second take %q, in a new buffer %v; want %q in the first batch's buffer", got, &m.batch[0] != first, "4")
	}
	if n := m.inUse(); n != 1 {
		t.Errorf("%d slots in use, want 1: the second batch's alone", n)
	}
}

func TestMailboxTakeKeepsTheNewestDepthData(t *testing.T) {
	const depth = 3
	m := newTestMailbox(depth)
	// Nothing is due while these go in, so no push lands anything: the
	// one take finds all of it due at once.
	for i, name := range []byte("abcdef") {
		m.push(0, time.Duration(10+i)*tick, msg(name))
	}
	m.push(0, 11*tick, item{tag: 1, timer: true})
	if m.shed != 0 || m.ready.n != 0 || len(m.heap) != 7 {
		t.Fatalf("before the take: shed %d, landed %d, in flight %d; want 0, 0, 7", m.shed, m.ready.n, len(m.heap))
	}
	if got := drain(m, time.Hour); got != "1def" {
		t.Errorf("got %q, want %q: the timer, then the newest %d data items in order", got, "1def", depth)
	}
	if m.shed != 3 {
		t.Errorf("shed %d, want 3", m.shed)
	}
}

func TestMailboxKillMidBatchDropsItsDataKeepsItsTimers(t *testing.T) {
	m := newTestMailbox(8)
	m.push(0, 1*tick, item{tag: 1, timer: true})
	m.push(0, 2*tick, item{tag: 2, timer: true})
	m.push(0, 3*tick, msg('a'))
	m.push(0, 4*tick, msg('b'))
	m.push(0, 9*tick, msg('c')) // in flight at the kill
	if got, _ := m.next(5 * tick); got != "12ab" {
		t.Fatalf("batch %q, want %q", got, "12ab")
	}
	// The owner delivered the first timer and was killed before the rest.
	rest := m.crash(6*tick, m.batch[1:])
	if got := m.render(rest); got != "2" {
		t.Errorf("batch after the kill %q, want %q: its timers survive, its data is gone", got, "2")
	}
	if m.shed != 0 {
		t.Errorf("the kill counted %d as shed; a restart's lost buffers are not shedding", m.shed)
	}
	if got := drain(m, time.Hour); got != "c" {
		t.Errorf("after the kill: got %q, want %q (what was in flight still arrives)", got, "c")
	}
	// Killed after the batch's timers: nothing of the rest survives.
	m.push(10*tick, 10*tick, item{tag: 3, timer: true})
	m.push(10*tick, 10*tick, msg('d'))
	m.push(10*tick, 10*tick, msg('e'))
	if got, _ := m.next(10 * tick); got != "3de" {
		t.Fatalf("batch %q, want %q", got, "3de")
	}
	if rest := m.crash(10*tick, m.batch[2:]); len(rest) != 0 {
		t.Errorf("kill after the timers kept %q, want nothing", m.render(rest))
	}
	// The next take frees every slot of the killed batch.
	m.next(time.Hour)
	if n := m.inUse(); n != 0 {
		t.Errorf("%d slots still in use after the killed batch's next take", n)
	}
}

func TestMailboxPushLandsOnlyPastDepth(t *testing.T) {
	const depth = 4
	m := newTestMailbox(depth)
	for i := 0; i < depth; i++ {
		m.push(time.Hour, 0, msg(byte('a'+i)))
	}
	if m.ready.n != 0 || len(m.heap) != depth || m.shed != 0 {
		t.Fatalf("%d due pushes into depth %d: landed %d, in flight %d, shed %d; want nothing landed by a push",
			depth, depth, m.ready.n, len(m.heap), m.shed)
	}
	// One more is past the depth: this push lands everything due and
	// sheds the oldest, and so does every push after it while the owner
	// never takes.
	for i := depth; i < 10; i++ {
		m.push(time.Hour, 0, msg(byte('a'+i)))
		if held := m.ready.n + len(m.heap); held != depth {
			t.Fatalf("push %d: mailbox holds %d, want %d", i, held, depth)
		}
	}
	if m.shed != 6 {
		t.Errorf("shed %d, want 6", m.shed)
	}
	if got := drain(m, time.Hour); got != "ghij" {
		t.Errorf("the owner finally takes %q, want the newest %d %q", got, depth, "ghij")
	}
	if len(m.mailbox.slab) > depth+1 {
		t.Errorf("slab grew to %d slots behind a wedged owner; depth %d", len(m.mailbox.slab), depth)
	}
}

// TestMailboxConservesItemsUnderConcurrentPushes runs eight pushers against
// one batched taker on a small mailbox. The taker starts once every pusher
// is halfway, so the pushes have landed and shed on their own before the
// take races them. Every item pushed is taken exactly once or counted as
// shed. Run it under -race (make race does).
func TestMailboxConservesItemsUnderConcurrentPushes(t *testing.T) {
	const pushers, each, depth = 8, 2000, 16
	m := newTestMailbox(depth)
	payloads := make([][]byte, pushers*each)
	for i := range payloads {
		payloads[i] = []byte{byte(i), byte(i >> 8), byte(i >> 16)}
	}
	var wg, halfway sync.WaitGroup
	for p := range pushers {
		wg.Add(1)
		halfway.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				if i == each/2 {
					halfway.Done()
				}
				now := time.Duration(i) * tick
				m.push(now, now+time.Duration(i%5)*tick, item{from: sim.PartyID(p), data: payloads[p*each+i]})
			}
		}()
	}
	pushed := make(chan struct{})
	go func() { wg.Wait(); close(pushed) }()
	halfway.Wait()

	taken := make([]int, pushers*each)
	record := func() {
		for _, s := range m.batch {
			d := m.slab[s].data
			taken[int(d[0])|int(d[1])<<8|int(d[2])<<16]++
		}
	}
	for now := time.Duration(0); ; now += tick {
		select {
		case <-pushed:
			m.next(time.Hour)
			record()
			m.next(time.Hour) // frees the last batch's slots
			var total int64
			for i, c := range taken {
				if c > 1 {
					t.Fatalf("item %d taken %d times", i, c)
				}
				total += int64(c)
			}
			if total+m.shed != pushers*each {
				t.Errorf("taken %d + shed %d != pushed %d", total, m.shed, pushers*each)
			}
			if m.shed == 0 {
				t.Error("nothing shed, though half the pushes had no taker")
			}
			if n := m.inUse(); n != 0 {
				t.Errorf("%d slab slots still in use with everything taken", n)
			}
			return
		default:
		}
		m.next(now)
		record()
	}
}
