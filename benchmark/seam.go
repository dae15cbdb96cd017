package main

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// The seam. sim.Network, relnet.Wrap and livenet.Run all take a
// sim.Process and hand it a sim.API, so a wrapper that implements both
// sees every call that crosses a layer boundary in either direction,
// without a line of the program changing. A seam times the calls into the
// process it wraps (Init, Deliver, DeliverBatch, OnTimer) and, through the
// API it hands that process, the calls the process makes back out (Send,
// Multicast, SetTimer, Decide). The time between the two is the wrapped
// layer's own.
//
// Accumulators are per party: a party is driven by one goroutine at a time
// (a shard worker in sim, its own goroutine in livenet), so they need no
// lock, and they are read only after the run has returned.

// seamCounts is what one seam of one party accumulated.
type seamCounts struct {
	procCalls  int64 // Deliver + DeliverBatch calls
	timerFires int64
	procNS     int64 // inside outermost process calls
	apiCalls   int64
	apiNS      int64 // inside API calls made by the wrapped process
}

func (c *seamCounts) add(o seamCounts) {
	c.procCalls += o.procCalls
	c.timerFires += o.timerFires
	c.procNS += o.procNS
	c.apiCalls += o.apiCalls
	c.apiNS += o.apiNS
}

// seam wraps a process that takes one envelope at a time.
type seam struct {
	seamCounts
	inner sim.Process
	api   sim.API
	// depth is above zero while a process call is on the stack: a batch
	// fires due timers from inside DeliverBatch, and that nested OnTimer
	// is already inside the span being timed.
	depth int
}

// seamBatch is the seam for a process that takes a tick at a time. The
// simulator batches only for processes that ask, so the wrapper asks
// exactly when the process it wraps does.
type seamBatch struct {
	seam
	innerBatch sim.BatchProcess
}

var (
	_ sim.Process      = (*seam)(nil)
	_ sim.TimerHandler = (*seam)(nil)
	_ sim.API          = (*seam)(nil)
	_ sim.BatchProcess = (*seamBatch)(nil)
)

// seamCounter is what the traced pass reads back from either kind.
type seamCounter interface {
	sim.Process
	counts() seamCounts
}

func (s *seam) counts() seamCounts { return s.seamCounts }

// newSeam wraps a process, keeping DeliverBatch if it has one.
func newSeam(inner sim.Process) seamCounter {
	if b, ok := inner.(sim.BatchProcess); ok {
		return &seamBatch{seam: seam{inner: inner}, innerBatch: b}
	}
	return &seam{inner: inner}
}

// epoch anchors the seams' clock. A stamp is time.Since(epoch): one read
// of the monotonic clock, where time.Now would also read the wall clock.
// Two stamps bracket every call that crosses a seam, so on the
// per-envelope path their price is most of what tracing costs.
var epoch = time.Now()

func stamp() int64 { return int64(time.Since(epoch)) }

// enter and leave bracket a call into the wrapped process.
func (s *seam) enter() int64 {
	s.depth++
	if s.depth > 1 {
		return 0
	}
	return stamp()
}

func (s *seam) leave(start int64) {
	s.depth--
	if s.depth == 0 {
		s.procNS += stamp() - start
	}
}

// Init implements sim.Process; the wrapped process gets the seam as its API.
func (s *seam) Init(api sim.API) {
	s.api = api
	start := s.enter()
	s.inner.Init(s)
	s.leave(start)
}

// Deliver implements sim.Process.
func (s *seam) Deliver(from sim.PartyID, data []byte) {
	s.procCalls++
	start := s.enter()
	s.inner.Deliver(from, data)
	s.leave(start)
}

// DeliverBatch implements sim.BatchProcess.
func (s *seamBatch) DeliverBatch(b *sim.Batch) {
	s.procCalls++
	start := s.enter()
	s.innerBatch.DeliverBatch(b)
	s.leave(start)
}

// OnTimer implements sim.TimerHandler, forwarding when the wrapped
// process handles timers (the runtimes skip a process that does not, and
// a forward to nothing is the same).
func (s *seam) OnTimer(tag uint64) {
	s.timerFires++
	th, ok := s.inner.(sim.TimerHandler)
	if !ok {
		return
	}
	start := s.enter()
	th.OnTimer(tag)
	s.leave(start)
}

// ID implements sim.API.
func (s *seam) ID() sim.PartyID { return s.api.ID() }

// N implements sim.API.
func (s *seam) N() int { return s.api.N() }

// Rand implements sim.API.
func (s *seam) Rand() *rand.Rand { return s.api.Rand() }

// Send implements sim.API.
func (s *seam) Send(to sim.PartyID, data []byte) {
	start := stamp()
	s.api.Send(to, data)
	s.apiNS += stamp() - start
	s.apiCalls++
}

// Multicast implements sim.API.
func (s *seam) Multicast(data []byte) {
	start := stamp()
	s.api.Multicast(data)
	s.apiNS += stamp() - start
	s.apiCalls++
}

// SetTimer implements sim.API.
func (s *seam) SetTimer(delay sim.Time, tag uint64) {
	start := stamp()
	s.api.SetTimer(delay, tag)
	s.apiNS += stamp() - start
	s.apiCalls++
}

// Decide implements sim.API.
func (s *seam) Decide(value float64) {
	start := stamp()
	s.api.Decide(value)
	s.apiNS += stamp() - start
	s.apiCalls++
}
