// The robustness envelope: every request admitted into the serving layer
// passes through the same chain of guards — per-cohort circuit breaker,
// token-bucket rate admission, then queue-depth and watermark shedding —
// and every rejection is attributed to exactly one structured outcome, so
// the service-level accounting identity
//
//	Offered == Decided + Shed + DeadlineExceeded + BreakerOpen + Degraded
//
// holds by construction: no request is ever silently dropped. The guards
// are pure state machines over a "now" in ticks, which is what lets the
// one serve loop (engine.go) drive them on the virtual clock and on the
// wall clock (live.go) alike.
package serve

import (
	"fmt"

	"repro/internal/workload"
)

// Outcome classifies how one request left the service.
type Outcome uint8

const (
	// OutcomeDecided: the agreement instance ran to full epsilon-agreement
	// within the deadline.
	OutcomeDecided Outcome = iota
	// OutcomeShed: rejected at admission by the token bucket, the queue
	// bound, or the watermark's priority shed — before any instance ran.
	OutcomeShed
	// OutcomeDeadline: the per-request deadline expired — in the queue,
	// or with retries that could not finish in the remaining budget.
	OutcomeDeadline
	// OutcomeBreakerOpen: rejected because the cohort's circuit breaker
	// was open.
	OutcomeBreakerOpen
	// OutcomeDegraded: the retry budget ran out with deadline to spare;
	// the request was answered with the last attempt's partial (or empty)
	// result instead of full agreement.
	OutcomeDegraded
)

func (o Outcome) String() string {
	switch o {
	case OutcomeDecided:
		return "decided"
	case OutcomeShed:
		return "shed"
	case OutcomeDeadline:
		return "deadline-exceeded"
	case OutcomeBreakerOpen:
		return "breaker-open"
	case OutcomeDegraded:
		return "degraded-partial"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Counters are the service-level counters, one per outcome plus the
// envelope's internal accounting.
type Counters struct {
	// Offered counts every generated request presented for admission.
	Offered int64
	// Admitted counts requests that entered the queue.
	Admitted int64
	// One counter per structured outcome.
	Decided, Shed, DeadlineExceeded, BreakerOpen, Degraded int64
	// Retries counts re-enqueued attempts after a failed instance.
	Retries int64
	// BreakerTrips counts closed->open transitions across cohorts.
	BreakerTrips int64
	// Shed attribution: the bucket, a full queue (incoming or evicted
	// victim), or the watermark's low-priority shed.
	ShedBucket, ShedQueue, ShedWatermark int64
}

// count records one terminal outcome.
func (c *Counters) count(o Outcome) {
	switch o {
	case OutcomeDecided:
		c.Decided++
	case OutcomeShed:
		c.Shed++
	case OutcomeDeadline:
		c.DeadlineExceeded++
	case OutcomeBreakerOpen:
		c.BreakerOpen++
	case OutcomeDegraded:
		c.Degraded++
	}
}

// Accounted reports the no-silent-drops identity: every offered request
// reached exactly one terminal outcome.
func (c Counters) Accounted() bool {
	return c.Offered == c.Decided+c.Shed+c.DeadlineExceeded+c.BreakerOpen+c.Degraded
}

// tokenBucket is the rate-admission guard: fill tokens per kilotick up to
// burst, one token per admission.
type tokenBucket struct {
	level, burst float64
	fill         float64 // tokens per kilotick; <= 0 disables the bucket
	last         int64
}

func newTokenBucket(fillPerKilotick, burst float64) tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return tokenBucket{level: burst, burst: burst, fill: fillPerKilotick}
}

func (b *tokenBucket) take(now int64) bool {
	if b.fill <= 0 {
		return true
	}
	if now > b.last {
		b.level += float64(now-b.last) * b.fill / 1000
		if b.level > b.burst {
			b.level = b.burst
		}
		b.last = now
	}
	if b.level >= 1 {
		b.level--
		return true
	}
	return false
}

// breakerState is the classic three-state circuit breaker.
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker trips open after threshold consecutive instance failures,
// rejects while open, half-opens after cooldown ticks to let exactly one
// probe through, and closes again on the probe's success (re-opens on its
// failure). One breaker per cohort: a cohort whose instances keep failing
// (for example, every request in an outage window) stops burning workers
// without taking the healthy cohorts down with it.
type breaker struct {
	threshold int
	cooldown  int64

	fails    int
	state    breakerState
	openedAt int64
	probing  bool
	trips    int64
}

func newBreaker(threshold int, cooldown int64) breaker {
	return breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether an arrival may pass, transitioning open ->
// half-open when the cooldown has elapsed.
func (b *breaker) allow(now int64) bool {
	if b.threshold <= 0 {
		return true
	}
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now-b.openedAt >= b.cooldown {
			b.state = breakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open: one probe in flight
		if !b.probing {
			b.probing = true
			return true
		}
		return false
	}
}

// onResult records one instance attempt's verdict.
func (b *breaker) onResult(ok bool, now int64) {
	if b.threshold <= 0 {
		return
	}
	if ok {
		b.fails = 0
		if b.state != breakerClosed {
			b.state = breakerClosed
			b.probing = false
		}
		return
	}
	b.fails++
	if b.state == breakerHalfOpen {
		// The probe failed: straight back to open.
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		b.trips++
		return
	}
	if b.state == breakerClosed && b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
		b.trips++
	}
}

// retryPolicy is the relnet-style bounded exponential backoff: attempt k's
// retry waits Base << (k-1) ticks (shift capped), and the engine never
// schedules a retry that cannot finish before the request's deadline.
type retryPolicy struct {
	budget int   // extra attempts after the first
	base   int64 // first backoff in ticks
}

func (r retryPolicy) backoff(attempt int) int64 {
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 6 {
		shift = 6
	}
	return r.base << shift
}

// pending is one admitted request waiting in the queue (or between
// retries).
type pending struct {
	req       workload.Request
	scenario  string // composed instance scenario (explicit n, t)
	attempt   int    // completed attempts
	notBefore int64  // backoff gate; 0 = ready
	seed      int64  // last attempt's instance seed
	partial   bool   // last failed attempt still decided some parties
}

func (p *pending) absDeadline() int64 { return p.req.Arrival + p.req.Deadline }

// reqQueue is the admission queue: pop order is highest priority first,
// FIFO within a class; eviction order is lowest priority first, oldest
// within a class. Linear scans — the queue is depth-bounded by Options.
type reqQueue struct {
	items []*pending
}

func (q *reqQueue) len() int        { return len(q.items) }
func (q *reqQueue) push(p *pending) { q.items = append(q.items, p) }
func (q *reqQueue) remove(i int) *pending {
	p := q.items[i]
	q.items = append(q.items[:i], q.items[i+1:]...)
	return p
}

// popReady removes and returns the highest-priority request whose backoff
// gate has passed, or nil.
func (q *reqQueue) popReady(now int64) *pending {
	best := -1
	for i, p := range q.items {
		if p.notBefore > now {
			continue
		}
		if best < 0 || p.req.Priority > q.items[best].req.Priority {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return q.remove(best)
}

// earliestReady returns the soonest tick at which popReady could yield, or
// -1 on an empty queue.
func (q *reqQueue) earliestReady() int64 {
	if len(q.items) == 0 {
		return -1
	}
	e := int64(-1)
	for _, p := range q.items {
		if e < 0 || p.notBefore < e {
			e = p.notBefore
		}
	}
	return e
}

// evictLowest removes the oldest request of the lowest priority class
// strictly below `below`, or returns nil when nothing qualifies.
func (q *reqQueue) evictLowest(below int) *pending {
	victim := -1
	for i, p := range q.items {
		if p.req.Priority >= below {
			continue
		}
		if victim < 0 || p.req.Priority < q.items[victim].req.Priority {
			victim = i
		}
	}
	if victim < 0 {
		return nil
	}
	return q.remove(victim)
}

// envelope binds the guards and counters; the serve loop drives one.
type envelope struct {
	opts     Options
	bucket   tokenBucket
	breakers []breaker // one per cohort
	retry    retryPolicy
	c        Counters
}

func newEnvelope(opts Options, cohorts int) *envelope {
	e := &envelope{
		opts:   opts,
		bucket: newTokenBucket(opts.BucketFill, opts.BucketBurst),
		retry:  retryPolicy{budget: opts.RetryBudget, base: opts.RetryBase},
	}
	e.breakers = make([]breaker, cohorts)
	for i := range e.breakers {
		e.breakers[i] = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	return e
}

// admission is one admit verdict: rejected requests carry their outcome,
// admitted ones may carry an evicted victim that must be finished as shed.
type admission struct {
	admitted bool
	outcome  Outcome  // valid when !admitted
	victim   *pending // non-nil when admission evicted a queued request
}

// admit runs the guard chain for one arrival against the current queue.
// It counts Offered/Admitted and shed attribution but NOT the terminal
// outcome — the engine records outcomes (it owns request bookkeeping).
func (e *envelope) admit(now int64, req workload.Request, q *reqQueue) admission {
	e.c.Offered++
	if !e.breakers[req.Cohort].allow(now) {
		return admission{outcome: OutcomeBreakerOpen}
	}
	if !e.bucket.take(now) {
		e.c.ShedBucket++
		return admission{outcome: OutcomeShed}
	}
	var victim *pending
	if q.len() >= e.opts.QueueDepth {
		victim = q.evictLowest(req.Priority)
		if victim == nil {
			e.c.ShedQueue++
			return admission{outcome: OutcomeShed}
		}
		e.c.ShedQueue++
	} else if q.len() >= e.opts.ShedWatermark && req.Priority <= 0 {
		// Above the watermark only priority > 0 traffic is admitted: the
		// sheddable class goes first, predictably, while there is still
		// headroom for the traffic that must not be dropped.
		e.c.ShedWatermark++
		return admission{outcome: OutcomeShed}
	}
	e.c.Admitted++
	return admission{admitted: true, victim: victim}
}

// onAttempt records an instance attempt's verdict with the cohort breaker
// and reports whether this attempt tripped it open.
func (e *envelope) onAttempt(cohort int, ok bool, now int64) (tripped bool) {
	b := &e.breakers[cohort]
	before := b.trips
	b.onResult(ok, now)
	if b.trips > before {
		e.c.BreakerTrips++
		return true
	}
	return false
}
