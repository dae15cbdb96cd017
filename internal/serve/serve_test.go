package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomeDecided:     "decided",
		OutcomeShed:        "shed",
		OutcomeDeadline:    "deadline-exceeded",
		OutcomeBreakerOpen: "breaker-open",
		OutcomeDegraded:    "degraded-partial",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(10, 2) // 10 tokens/kilotick, burst 2
	if !b.take(0) || !b.take(0) {
		t.Fatal("burst tokens refused")
	}
	if b.take(0) {
		t.Fatal("empty bucket granted a token")
	}
	// 10/kt refills one token every 100 ticks.
	if b.take(50) {
		t.Fatal("half a token granted")
	}
	if !b.take(100) {
		t.Fatal("refilled token refused")
	}
	// Refill is capped at burst.
	if !b.take(10_000) || !b.take(10_000) || b.take(10_000) {
		t.Fatal("burst cap not enforced")
	}
	// Disabled bucket always grants.
	d := newTokenBucket(0, 1)
	for i := 0; i < 100; i++ {
		if !d.take(0) {
			t.Fatal("disabled bucket refused")
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(2, 100)
	if !b.allow(0) {
		t.Fatal("closed breaker refused")
	}
	b.onResult(false, 0)
	if !b.allow(1) {
		t.Fatal("one failure tripped a threshold-2 breaker")
	}
	b.onResult(false, 1)
	if b.trips != 1 {
		t.Fatalf("trips = %d after threshold failures", b.trips)
	}
	if b.allow(50) {
		t.Fatal("open breaker admitted before cooldown")
	}
	if !b.allow(101) {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.allow(102) {
		t.Fatal("half-open breaker admitted a second probe")
	}
	b.onResult(false, 102) // probe fails: reopen
	if b.trips != 2 || b.allow(103) {
		t.Fatalf("failed probe did not reopen (trips=%d)", b.trips)
	}
	if !b.allow(202) {
		t.Fatal("second half-open refused the probe")
	}
	b.onResult(true, 203) // probe succeeds: close
	if !b.allow(204) || !b.allow(205) {
		t.Fatal("closed breaker refusing after successful probe")
	}
	// A success resets the consecutive-failure count.
	b.onResult(false, 206)
	b.onResult(true, 207)
	b.onResult(false, 208)
	if !b.allow(209) {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

func TestRetryBackoff(t *testing.T) {
	r := retryPolicy{budget: 3, base: 32}
	for attempt, want := range map[int]int64{1: 32, 2: 64, 3: 128, 10: 32 << 6} {
		if got := r.backoff(attempt); got != want {
			t.Errorf("backoff(%d) = %d, want %d", attempt, got, want)
		}
	}
}

func TestReqQueueOrder(t *testing.T) {
	q := &reqQueue{}
	mk := func(id, prio int, notBefore int64) *pending {
		return &pending{req: workload.Request{ID: id, Priority: prio}, notBefore: notBefore}
	}
	q.push(mk(0, 0, 0))
	q.push(mk(1, 2, 0))
	q.push(mk(2, 1, 0))
	q.push(mk(3, 2, 50)) // backoff-gated
	if p := q.popReady(0); p.req.ID != 1 {
		t.Fatalf("popped %d, want highest priority 1", p.req.ID)
	}
	if p := q.popReady(0); p.req.ID != 2 {
		t.Fatalf("popped %d, want 2", p.req.ID)
	}
	if e := q.earliestReady(); e != 0 {
		t.Fatalf("earliestReady = %d", e)
	}
	// Eviction takes the lowest priority strictly below the bar.
	if v := q.evictLowest(1); v == nil || v.req.ID != 0 {
		t.Fatalf("evicted %+v, want request 0", v)
	}
	if v := q.evictLowest(1); v != nil {
		t.Fatalf("evicted %+v from a queue with no priority<1 items", v)
	}
	if p := q.popReady(0); p != nil {
		t.Fatalf("gated request popped early: %+v", p)
	}
	if p := q.popReady(50); p == nil || p.req.ID != 3 {
		t.Fatal("gated request not popped at its notBefore")
	}
}

// testConfig is a small, fast instance configuration.
func testConfig() Config {
	return Config{Protocol: core.ProtoCrash, N: 5, T: 1, Eps: 1e-3, Lo: 0, Hi: 100, Seed: 5}
}

func TestSimulateDeterministic(t *testing.T) {
	w := workload.MustParse("poisson:30+lognormal:3:0.4+cohort:web:0.7:200:1+cohort:batch:0.3:800:0")
	opts := Options{Workers: 2, QueueDepth: 8, BucketFill: 25, BucketBurst: 4, RetryBudget: 1}
	a, err := Simulate(w, testConfig(), opts, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(w, testConfig(), opts, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("virtual-time engine not deterministic")
	}
	if a.Offered == 0 || a.Decided == 0 {
		t.Fatalf("degenerate run: %+v", a.Counters)
	}
	if !a.Accounted() {
		t.Fatalf("accounting identity broken: %+v", a.Counters)
	}
	if a.LatencyP(0.99) < a.LatencyP(0.5) {
		t.Fatalf("p99 %d < p50 %d", a.LatencyP(0.99), a.LatencyP(0.5))
	}
}

// TestSimulateOverloadSheds drives 6x saturation through a tight bucket
// and checks the overload story: goodput per admission, everything else
// shed with attribution, nothing silently dropped.
func TestSimulateOverloadSheds(t *testing.T) {
	w := workload.MustParse("const:300+lognormal:3:0.4+cohort:web:0.7:200:1+cohort:batch:0.3:800:0")
	opts := Options{Workers: 2, QueueDepth: 8, ShedWatermark: 6, BucketFill: 60, BucketBurst: 8}
	sum, err := Simulate(w, testConfig(), opts, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Accounted() {
		t.Fatalf("accounting identity broken: %+v", sum.Counters)
	}
	if sum.Shed == 0 {
		t.Fatal("6x saturation shed nothing")
	}
	if sum.ShedBucket == 0 {
		t.Error("token bucket never engaged")
	}
	if sum.Shed != sum.ShedBucket+sum.ShedQueue+sum.ShedWatermark {
		t.Errorf("shed attribution drifted: %d != %d+%d+%d",
			sum.Shed, sum.ShedBucket, sum.ShedQueue, sum.ShedWatermark)
	}
	if sum.Decided == 0 {
		t.Fatal("overload collapsed goodput to zero")
	}
}

// TestSimulateDisturbanceWindow pins the failure path: every instance in
// the outage window stalls on the raw network, so the envelope's retries,
// degraded outcomes, and breaker all engage — and the out-of-window
// traffic keeps deciding.
func TestSimulateDisturbanceWindow(t *testing.T) {
	w := workload.MustParse("const:25+lognormal:3:0.3+cohort:web:1:600:1+outagewin:400:1200")
	cfg := testConfig()
	cfg.N, cfg.T = 10, 3
	opts := Options{Workers: 4, QueueDepth: 16, RetryBudget: 1, RetryBase: 16,
		BreakerThreshold: 3, BreakerCooldown: 400}
	sum, err := Simulate(w, cfg, opts, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Accounted() {
		t.Fatalf("accounting identity broken: %+v", sum.Counters)
	}
	if sum.Decided == 0 {
		t.Fatal("out-of-window traffic did not decide")
	}
	failed := sum.DeadlineExceeded + sum.Degraded + sum.BreakerOpen
	if failed == 0 {
		t.Fatalf("outage window produced no failures: %+v", sum.Counters)
	}
	if sum.Retries == 0 {
		t.Error("no retries under the outage window")
	}
	if sum.BreakerTrips == 0 {
		t.Error("breaker never tripped under a full outage window")
	}
	// Requests that ran carry the composed scenario of their window.
	sawOutage := false
	for _, ro := range sum.Outcomes {
		if strings.Contains(ro.Scenario, "outage:3:") {
			sawOutage = true
			break
		}
	}
	if !sawOutage {
		t.Error("no outcome carries the outage-composed scenario")
	}
}

func TestWriteArtifacts(t *testing.T) {
	w := workload.MustParse("const:25+lognormal:3:0.3+cohort:web:1:600:1+outagewin:0:2000")
	cfg := testConfig()
	cfg.N, cfg.T = 10, 3
	opts := Options{Workers: 4, QueueDepth: 16, RetryBudget: 1, RetryBase: 16,
		BreakerThreshold: 3, BreakerCooldown: 400}
	sum, err := Simulate(w, cfg, opts, 1200)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	n := WriteArtifacts(dir, sum, cfg, &buf)
	if n == 0 {
		t.Fatalf("no artifacts from an all-outage run: %+v\n%s", sum.Counters, buf.String())
	}
	if !strings.Contains(buf.String(), "reproduce: aarun -replay ") {
		t.Fatalf("no repro line printed:\n%s", buf.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("%d bundles on disk, writer reported %d", len(ents), n)
	}
	if n > maxArtifacts {
		t.Fatalf("artifact cap not enforced: %d", n)
	}
	last := map[string]RequestOutcome{}
	for _, ro := range sum.Outcomes {
		last[fmt.Sprintf("serve-req-%d-%s", ro.ID, ro.Outcome)] = ro
	}
	s, err := newServer(w, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every bundle must load, validate, carry the outage scenario, and
	// replay a run that fails the way the request's last attempt did: the
	// attempt, re-run, sends as many messages and fails the same way, with
	// decisions exactly when the outcome is marked partial.
	for _, ent := range ents {
		b, err := incident.Load(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatalf("load %s: %v", ent.Name(), err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("validate %s: %v", ent.Name(), err)
		}
		if !strings.Contains(b.Scenario, "outage:3:") || !strings.Contains(b.Scenario, "/n=10,t=3") {
			t.Fatalf("bundle %s scenario %q lost the composed axes", ent.Name(), b.Scenario)
		}
		if len(b.Inputs) != 10 {
			t.Fatalf("bundle %s has %d inputs", ent.Name(), len(b.Inputs))
		}
		ro, ok := last[b.Name]
		if !ok {
			t.Fatalf("bundle %s names no request outcome", b.Name)
		}
		rep, div, err := incident.Replay(b)
		if err != nil || div != nil {
			t.Fatalf("replay %s: div=%v err=%v", b.Name, div, err)
		}
		v := s.simAttempt(&pending{req: workload.Request{ID: ro.ID}, scenario: ro.Scenario, seed: ro.Seed}, 0)
		if v.err != nil || v.partial != ro.Partial {
			t.Fatalf("%s: re-run attempt %+v, request partial=%v", b.Name, v, ro.Partial)
		}
		partial := !rep.OK() && len(rep.Result.Decisions) > 0
		if rep.OK() != v.ok || partial != v.partial || b.Digest.MessagesSent != v.msgs {
			t.Errorf("%s: bundle run ok=%v partial=%v msgs=%d, last attempt ok=%v partial=%v msgs=%d (%s)",
				b.Name, rep.OK(), partial, b.Digest.MessagesSent, v.ok, v.partial, v.msgs, rep.Failure())
		}
	}
}

// TestE15GracefulDegradation is the acceptance bar: at 4x saturation the
// clean mix's goodput stays within 20% of the 1x plateau, with every
// rejected request accounted.
func TestE15GracefulDegradation(t *testing.T) {
	base, err := e15Workload(false)
	if err != nil {
		t.Fatal(err)
	}
	sat := base.SaturationRate(e15Workers)
	cfg := Config{Protocol: core.ProtoCrash, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 100,
		Scenario: "random", Seed: e15Seed}
	goodput := map[float64]float64{}
	for _, mult := range []float64{1, 4} {
		sum, err := Simulate(base.Scale(mult), cfg, e15Options(sat), e15Horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !sum.Accounted() {
			t.Fatalf("%gx: accounting identity broken: %+v", mult, sum.Counters)
		}
		goodput[mult] = sum.Goodput()
		if mult == 4 && sum.Shed == 0 {
			t.Error("4x saturation shed nothing")
		}
	}
	g1, g4 := goodput[1], goodput[4]
	if g1 == 0 {
		t.Fatal("no goodput at 1x")
	}
	if diff := g4 - g1; diff < -0.2*g1 || diff > 0.2*g1 {
		t.Errorf("goodput collapsed: 4x %.1f vs 1x %.1f (>20%% apart)", g4, g1)
	}
}

func TestServeLiveSimBackend(t *testing.T) {
	w := workload.MustParse("poisson:30+lognormal:3:0.3+cohort:web:1:300:1")
	cfg := testConfig()
	sum, err := ServeLive(w, cfg, Options{Workers: 4, QueueDepth: 16}, LiveConfig{
		Backend: BackendSim, TickDur: 200 * time.Microsecond, Requests: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Offered != 24 {
		t.Fatalf("offered %d of 24", sum.Offered)
	}
	if !sum.Accounted() {
		t.Fatalf("live accounting identity broken: %+v", sum.Counters)
	}
	if sum.Decided == 0 {
		t.Fatalf("nothing decided: %+v", sum.Counters)
	}
}

// TestServeLiveRetriesNoLeak runs the wall-clock loop through an outage
// window that fails every attempt, so retries, degraded answers and the
// breaker all engage, and checks the accounting identity and that every
// attempt goroutine is gone once ServeLive returns.
func TestServeLiveRetriesNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	w := workload.MustParse("poisson:30+lognormal:3:0.3+cohort:web:1:600:1+outagewin:0:100000")
	cfg := testConfig()
	cfg.N, cfg.T = 10, 3
	sum, err := ServeLive(w, cfg, Options{
		Workers: 4, QueueDepth: 16, RetryBudget: 2, RetryBase: 16,
		BreakerThreshold: 3, BreakerCooldown: 200,
	}, LiveConfig{Backend: BackendSim, TickDur: 200 * time.Microsecond, Requests: 24})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Offered != 24 || !sum.Accounted() {
		t.Fatalf("live accounting identity broken: %+v", sum.Counters)
	}
	if sum.Retries == 0 || sum.BreakerTrips == 0 {
		t.Fatalf("an all-outage run neither retried nor tripped: %+v", sum.Counters)
	}
	// An attempt goroutine that has reported may still be on its way out.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after ServeLive, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLiveAttemptPastDeadlineNotCounted checks that a live attempt whose
// deadline passed before it started runs no instance and leaves
// Instances, and so MsgsPerInstance, alone.
func TestLiveAttemptPastDeadlineNotCounted(t *testing.T) {
	w := workload.MustParse("poisson:30+lognormal:3:0.3+cohort:web:1:300:1")
	s, err := newServer(w, testConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &wallClock{lc: LiveConfig{Backend: BackendLive, TickDur: time.Millisecond},
		begin: time.Now().Add(-time.Second)}
	p := &pending{req: workload.Request{Arrival: 0, Deadline: 300, Service: 20}, attempt: 1}
	v := c.liveAttempt(s, p)
	if v.ran || v.ok || v.err != nil {
		t.Fatalf("attempt past its deadline: %+v", v)
	}
	s.report(v)
	if s.sum.Instances != 0 || s.sum.InstanceMsgs != 0 {
		t.Fatalf("attempt that never ran counted: %d instances, %d msgs", s.sum.Instances, s.sum.InstanceMsgs)
	}
}

// TestLiveVerdictUsesDrawnInputs: the live backend judges an attempt's
// outputs against the hull of the inputs its recipe drew, not against the
// promised range [Lo, Hi]. Outputs that agree and lie inside [Lo, Hi] but
// above every drawn input are not decided (a range check accepts them); a
// real attempt on the same seed still is.
func TestLiveVerdictUsesDrawnInputs(t *testing.T) {
	cfg := testConfig()
	const seed = 11
	w := workload.MustParse("poisson:30+lognormal:3:0.3+cohort:web:1:300:1")
	s, err := newServer(w, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := s.cfg.instance(s.scens[0], seed) // liveAttempt's recipe
	_, _, byz, judged, err := r.Live()
	if err != nil {
		t.Fatal(err)
	}
	inputs := r.Inputs
	above := (slices.Max(inputs) + cfg.Hi) / 2
	if above <= slices.Max(inputs)+1 || above >= cfg.Hi {
		t.Fatalf("seed %d leaves no room above the drawn inputs %v", seed, inputs)
	}
	decisions := map[sim.PartyID]float64{}
	for i := range inputs {
		decisions[sim.PartyID(i)] = above
	}
	if v := harness.Judge(inputs, byz, judged, decisions, cfg.Eps); v.ValidityOK || !v.AgreementOK {
		t.Errorf("outputs at %v outside the drawn hull [%v, %v]: valid=%v agreed=%v",
			above, v.HullLo, v.HullHi, v.ValidityOK, v.AgreementOK)
	}

	c := &wallClock{lc: LiveConfig{Backend: BackendLive, TickDur: time.Millisecond, MaxJitter: -1},
		begin: time.Now()}
	p := &pending{req: workload.Request{Deadline: 10_000, Service: 20}, attempt: 1, seed: seed, scenario: s.scens[0]}
	if v := c.liveAttempt(s, p); !v.ran || !v.ok || v.err != nil {
		t.Fatalf("real live attempt not decided: %+v", v)
	}
}

// TestServeLiveRejectsWhatLiveCannotRun: on the live backend, an instance
// scenario with a crash token fails before the first request, naming the
// token; the simulated backend runs the same configuration. A workload
// whose flapstorm window splices a flap axis into the instance scenario
// runs on both.
func TestServeLiveRejectsWhatLiveCannotRun(t *testing.T) {
	w := workload.MustParse("poisson:30+lognormal:3:0.3+cohort:web:1:300:1")
	cfg := testConfig()
	cfg.Scenario = "random+crash"
	lc := LiveConfig{Backend: BackendLive, TickDur: 200 * time.Microsecond, Requests: 4}
	_, err := ServeLive(w, cfg, Options{Workers: 2, QueueDepth: 8}, lc)
	if err == nil || !strings.Contains(err.Error(), "serve: config:") || !strings.Contains(err.Error(), `"crash"`) {
		t.Fatalf("crash token on the live backend: %v, want a config error naming crash", err)
	}
	lc.Backend = BackendSim
	if _, err := ServeLive(w, cfg, Options{Workers: 2, QueueDepth: 8}, lc); err != nil {
		t.Fatalf("crash token on the simulated backend: %v", err)
	}
	flapstorm := workload.MustParse("poisson:30+lognormal:3:0.3+cohort:web:1:300:1+flapstorm:0:100")
	for _, b := range []Backend{BackendSim, BackendLive} {
		lc.Backend = b
		if _, err := ServeLive(flapstorm, testConfig(), Options{Workers: 2, QueueDepth: 8}, lc); err != nil {
			t.Fatalf("flapstorm window on backend %d: %v", b, err)
		}
	}
}

// TestServeLiveSimBackendLoss: the base scenario's loss axis reaches the
// simulated backend's instances. At 50% raw loss no instance decides, and
// the instances send far fewer messages than on a lossless network.
func TestServeLiveSimBackendLoss(t *testing.T) {
	w := workload.MustParse("poisson:30+lognormal:3:0.3+cohort:web:1:300:1")
	msgs := map[string]float64{}
	for _, scen := range []string{"random", "random+loss:0.5"} {
		cfg := testConfig()
		cfg.Scenario = scen
		sum, err := ServeLive(w, cfg, Options{Workers: 4, QueueDepth: 16}, LiveConfig{
			Backend: BackendSim, TickDur: 200 * time.Microsecond, Requests: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Instances == 0 {
			t.Fatalf("%s: no instance ran: %+v", scen, sum.Counters)
		}
		msgs[scen] = sum.MsgsPerInstance()
		if scen != "random" && sum.Decided != 0 {
			t.Errorf("%s: %d requests decided on a raw network losing half its sends", scen, sum.Decided)
		}
	}
	if msgs["random+loss:0.5"] >= msgs["random"]/2 {
		t.Errorf("msgs/instance %v under 50%% loss, %v without: the loss axis is not applied", msgs["random+loss:0.5"], msgs["random"])
	}
}

// TestServeSoak is the env-gated -race soak arm (`make serve-soak`):
// heavy-tail arrivals at 2x saturation on the live backend with the
// scenario's 10% loss axis and its flap axis (one flapping party at t=1)
// over the reliable transport. It asserts the
// goodput floor and that every request is accounted — zero unshed drops.
func TestServeSoak(t *testing.T) {
	if os.Getenv("SERVE_SOAK") == "" {
		t.Skip("set SERVE_SOAK=1 to run the serving soak")
	}
	w := workload.MustParse("burst:20:8:900+pareto:40:1.5+cohort:web:0.8:600:1+cohort:batch:0.2:1500:0")
	// 2x the pool's saturation rate for this service model.
	w = w.Scale(2 * w.SaturationRate(4) / w.Arrival.Rate)
	cfg := Config{Protocol: core.ProtoCrash, N: 5, T: 1, Eps: 1e-3, Lo: 0, Hi: 100, Seed: 11,
		Scenario: "random+loss:0.1+flap", Reliable: true}
	sum, err := ServeLive(w, cfg, Options{
		Workers: 4, QueueDepth: 16, RetryBudget: 2, RetryBase: 16,
		BreakerThreshold: 5, BreakerCooldown: 400,
	}, LiveConfig{
		Backend: BackendLive, TickDur: time.Millisecond, Requests: 32,
		MaxJitter: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Offered != 32 {
		t.Fatalf("offered %d of 32", sum.Offered)
	}
	if !sum.Accounted() {
		t.Fatalf("unshed drops: %+v", sum.Counters)
	}
	// Goodput floor: under 2x overload with injected faults a meaningful
	// fraction of the offered requests must still decide. Observed steady
	// state is 8/32; the floor sits below it so wall-clock jitter on a
	// slow CI machine can flip a deadline-margin request without flaking.
	if sum.Decided < 6 {
		t.Fatalf("goodput floor broken: %d/32 decided (%+v)", sum.Decided, sum.Counters)
	}
	t.Logf("soak: %d/32 decided, shed %d, deadline %d, breaker %d, degraded %d, retries %d, trips %d",
		sum.Decided, sum.Shed, sum.DeadlineExceeded, sum.BreakerOpen, sum.Degraded,
		sum.Retries, sum.BreakerTrips)
}
