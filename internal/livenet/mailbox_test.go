package livenet

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The mailbox takes its clock as an argument, so everything below runs
// without the wall clock, goroutines or sleeps: the tests say what time it
// is.

const tick = time.Microsecond

func newTestMailbox(depth int) *mailbox {
	m := &mailbox{}
	m.init(depth)
	return m
}

// msg is a data item whose payload byte names it.
func msg(name byte) item { return item{from: sim.PartyID(name), data: []byte{name}} }

// drain takes everything landed at now and renders it as a string: a data
// item as its payload byte, a timer as the digit of its tag.
func drain(m *mailbox, now time.Duration) string {
	var got []byte
	for {
		it, ok, _ := m.next(now)
		if !ok {
			return string(got)
		}
		if it.timer {
			got = append(got, '0'+byte(it.tag))
		} else {
			got = append(got, it.data[0])
		}
	}
}

// signalled consumes the wake token, if there is one.
func signalled(m *mailbox) bool {
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

	if it, ok, sleep := m.next(9 * tick); ok || sleep != tick {
		t.Fatalf("before anything is due: took %v %v, sleep %v, want nothing and 1µs", it, ok, sleep)
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
	if _, ok, sleep := m.next(time.Hour); ok || sleep >= 0 {
		t.Errorf("empty mailbox: ok %v sleep %v, want no item and a negative sleep", ok, sleep)
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
	// The owner never calls next: the senders' own pushes land what is due
	// and shed, so landed memory stays bounded with nobody taking.
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
	m.crash(5 * tick)
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
