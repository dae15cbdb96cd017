package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file pins production (calendar queue, batched dense ticks) to the
// reference configuration (heap, per-envelope delivery): identical delivery
// traces, stats, decisions, and errors across schedulers (including
// rng-consuming ones), crash plans, timers, mid-tick run completion, and
// event-budget aborts — the simulator-level form of the byte-identical-
// tables contract in internal/harness.

// chattyProc reacts to every delivery with a point-to-point reply and a
// periodic multicast, uses a timer, and decides after a message quota — a
// dense mix of every API call the batching layer defers.
type chattyProc struct {
	api   API
	need  int
	got   int
	burst int
	buf   [3]byte
}

func (p *chattyProc) Init(api API) {
	p.api = api
	p.buf = [3]byte{byte(api.ID()), 0, 0}
	api.Multicast(p.buf[:])
	api.SetTimer(7, 42)
}

func (p *chattyProc) Deliver(from PartyID, data []byte) {
	p.got++
	if p.got >= p.need {
		p.api.Decide(float64(p.api.ID()) + 0.5)
		return
	}
	p.buf[1] = byte(p.got)
	p.api.Send(from, p.buf[:])
	if p.got%5 == 0 {
		p.api.Multicast(p.buf[:])
	}
}

func (p *chattyProc) OnTimer(tag uint64) {
	p.burst++
	if p.burst < 3 {
		p.buf[2] = byte(p.burst)
		p.api.Multicast(p.buf[:])
		p.api.SetTimer(5, tag)
	}
}

// batchRecord is one observed delivery.
type batchRecord struct {
	Now      Time
	From, To PartyID
	Seq      uint64
	Len      int
}

// runBatchTrace executes a chatty mesh under the given scheduler, in the
// reference configuration or in production, and returns the delivery
// trace, result, and run error.
func runBatchTrace(t *testing.T, sched Scheduler, reference bool, mut func(*Config)) ([]batchRecord, *Result, error) {
	t.Helper()
	cfg := Config{N: 6, Scheduler: sched, Seed: 11, Reference: reference}
	if mut != nil {
		mut(&cfg)
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trace []batchRecord
	net.SetObserver(func(now Time, env Envelope) {
		trace = append(trace, batchRecord{Now: now, From: env.From, To: env.To, Seq: env.Seq, Len: len(env.Data)})
	})
	for i := 0; i < cfg.N; i++ {
		if _, isByz := cfg.Byzantine[PartyID(i)]; isByz {
			continue
		}
		if err := net.SetProcess(PartyID(i), &chattyProc{need: 40}); err != nil {
			t.Fatal(err)
		}
	}
	res, runErr := net.Run()
	return trace, res, runErr
}

// requireSameRun asserts two (trace, result, error) triples are identical.
func requireSameRun(t *testing.T, label string,
	refTrace []batchRecord, refRes *Result, refErr error,
	gotTrace []batchRecord, gotRes *Result, gotErr error,
) {
	t.Helper()
	if !errors.Is(gotErr, refErr) && !(gotErr == nil && refErr == nil) {
		t.Fatalf("%s: errors diverge: ref %v, got %v", label, refErr, gotErr)
	}
	if len(refTrace) != len(gotTrace) {
		t.Fatalf("%s: trace lengths diverge: ref %d, got %d", label, len(refTrace), len(gotTrace))
	}
	for i := range refTrace {
		if refTrace[i] != gotTrace[i] {
			t.Fatalf("%s: delivery %d diverges: ref %+v, got %+v", label, i, refTrace[i], gotTrace[i])
		}
	}
	if refRes.Stats != gotRes.Stats {
		t.Fatalf("%s: stats diverge: ref %+v, got %+v", label, refRes.Stats, gotRes.Stats)
	}
	if refRes.FinishTime != gotRes.FinishTime || refRes.MaxHonestDelay != gotRes.MaxHonestDelay {
		t.Fatalf("%s: timing diverges: ref (%d,%d), got (%d,%d)", label,
			refRes.FinishTime, refRes.MaxHonestDelay, gotRes.FinishTime, gotRes.MaxHonestDelay)
	}
	if len(refRes.Decisions) != len(gotRes.Decisions) {
		t.Fatalf("%s: decision counts diverge", label)
	}
	for id, v := range refRes.Decisions {
		if gotRes.Decisions[id] != v || gotRes.DecidedAt[id] != refRes.DecidedAt[id] {
			t.Fatalf("%s: party %d decision diverges", label, id)
		}
	}
}

// TestBatchModeTraceEquivalence asserts event-for-event identical delivery
// traces, stats, and decisions between production and the reference
// across a scheduler matrix that includes shared-rng draws (UniformRandom-
// style) and crash plans that truncate multicasts mid-tick.
func TestBatchModeTraceEquivalence(t *testing.T) {
	scheds := map[string]func() Scheduler{
		"const":  func() Scheduler { return constDelay{d: 5} },
		"random": func() Scheduler { return rngSched{max: 9} },
		"skewed": func() Scheduler { return fromSched{} },
	}
	muts := map[string]func(*Config){
		"fault-free": nil,
		"crash": func(cfg *Config) {
			cfg.Crashes = []CrashPlan{{Party: 1, AfterSends: 9}, {Party: 4, AfterSends: 20}}
		},
	}
	for sname, mk := range scheds {
		for mname, mut := range muts {
			t.Run(sname+"/"+mname, func(t *testing.T) {
				refTrace, refRes, refErr := runBatchTrace(t, mk(), true, mut)
				gotTrace, gotRes, gotErr := runBatchTrace(t, mk(), false, mut)
				requireSameRun(t, sname+"/"+mname, refTrace, refRes, refErr, gotTrace, gotRes, gotErr)
			})
		}
	}
}

// The Shard* tests below keep the names they had when a dense tick was
// split across shard workers. What each worker held — its deferred-op
// list, delivery triggers, stats deltas, completion trigger, payload arena
// and Batch iterator — is now plain Network state driven by one tick body,
// and these tests pin that body against the reference configuration at
// the shapes the shard matrix used: N=12 meshes, N=64 dense ticks, budget
// aborts, same-tick completion, and recycled networks.

// TestShardTraceEquivalence runs the scheduler × crash matrix at N=12 and
// compares production, event for event, against the reference.
func TestShardTraceEquivalence(t *testing.T) {
	scheds := map[string]func() Scheduler{
		"const":  func() Scheduler { return constDelay{d: 5} },
		"random": func() Scheduler { return rngSched{max: 9} },
		"skewed": func() Scheduler { return fromSched{} },
	}
	muts := map[string]func(*Config){
		"fault-free": nil,
		"crash": func(cfg *Config) {
			cfg.Crashes = []CrashPlan{{Party: 1, AfterSends: 9}, {Party: 4, AfterSends: 20}}
		},
	}
	for sname, mk := range scheds {
		for mname, mut := range muts {
			t.Run(sname+"/"+mname, func(t *testing.T) {
				shape := func(cfg *Config) {
					cfg.N = 12
					if mut != nil {
						mut(cfg)
					}
				}
				refTrace, refRes, refErr := runBatchTrace(t, mk(), true, shape)
				gotTrace, gotRes, gotErr := runBatchTrace(t, mk(), false, shape)
				requireSameRun(t, sname+"/"+mname, refTrace, refRes, refErr, gotTrace, gotRes, gotErr)
			})
		}
	}
}

// TestShardTraceEquivalenceParallel runs a mesh large enough that dense
// ticks hold thousands of events from dozens of receiving parties (N=64
// multicast storms are 4096-event ticks), so the tick-end trigger sort
// reorders long interleaved per-party op runs, with crash plans truncating
// multicasts inside them.
func TestShardTraceEquivalenceParallel(t *testing.T) {
	for _, mk := range []struct {
		name  string
		sched func() Scheduler
	}{
		{"const", func() Scheduler { return constDelay{d: 5} }},
		{"random", func() Scheduler { return rngSched{max: 4} }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			mut := func(cfg *Config) {
				cfg.N = 64
				cfg.Crashes = []CrashPlan{{Party: 3, AfterSends: 70}, {Party: 40, AfterSends: 130}}
			}
			refTrace, refRes, refErr := runBatchTrace(t, mk.sched(), true, mut)
			gotTrace, gotRes, gotErr := runBatchTrace(t, mk.sched(), false, mut)
			requireSameRun(t, mk.name, refTrace, refRes, refErr, gotTrace, gotRes, gotErr)
		})
	}
}

// TestShardBudgetEquivalence pins the event-budget abort at N=12, where the
// budget-tripping tick is dense: production hands that tick to the
// per-envelope body, so the aborted prefix, partial stats, and decisions
// must match the reference run exactly.
func TestShardBudgetEquivalence(t *testing.T) {
	for _, budget := range []int{7, 23, 50, 400} {
		mut := func(cfg *Config) {
			cfg.N = 12
			cfg.MaxEvents = budget
		}
		refTrace, refRes, refErr := runBatchTrace(t, constDelay{d: 3}, true, mut)
		if !errors.Is(refErr, ErrEventBudget) {
			t.Fatalf("budget %d: reference run did not trip the budget: %v", budget, refErr)
		}
		gotTrace, gotRes, gotErr := runBatchTrace(t, constDelay{d: 3}, false, mut)
		requireSameRun(t, fmt.Sprintf("budget %d", budget), refTrace, refRes, refErr, gotTrace, gotRes, gotErr)
	}
}

// TestShardMidTickCompletion pins the completion repair across mesh sizes:
// under a constant-delay scheduler every party decides in the same dense
// tick, and the completion trigger must cut the flush at the event where
// the per-envelope loop stops, leaving identical traces and stats.
func TestShardMidTickCompletion(t *testing.T) {
	for _, n := range []int{8, 12, 16} {
		mut := func(cfg *Config) {
			cfg.N = n
			cfg.Seed = 3
		}
		refTrace, refRes, refErr := runBatchTrace(t, constDelay{d: 4}, true, mut)
		if refErr != nil {
			t.Fatalf("n=%d: reference run failed: %v", n, refErr)
		}
		for id, at := range refRes.DecidedAt {
			if at != refRes.FinishTime {
				t.Fatalf("n=%d: party %d decided at %d, want every party at the final tick %d", n, id, at, refRes.FinishTime)
			}
		}
		gotTrace, gotRes, gotErr := runBatchTrace(t, constDelay{d: 4}, false, mut)
		requireSameRun(t, fmt.Sprintf("n=%d", n), refTrace, refRes, refErr, gotTrace, gotRes, gotErr)
	}
}

// TestShardRecycledNetworkEquivalence pins Reset's recycling of the batched
// tick scratch: a network that just finished a dense batched run (under a
// different shape, scheduler, and crash plan) and is Reset must reproduce a
// fresh network's run exactly — pend list, staging, delivery triggers, and
// payload arena all rewound. The recycled runs alternate between
// production and the reference, so Reset also swaps the event queue both
// ways.
func TestShardRecycledNetworkEquivalence(t *testing.T) {
	net, err := New(Config{N: 16, Scheduler: rngSched{max: 4}, Seed: 5,
		Crashes: []CrashPlan{{Party: 2, AfterSends: 30}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := net.SetProcess(PartyID(i), &chattyProc{need: 40}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 12, Scheduler: constDelay{d: 5}, Seed: 11}
	for round := 0; round < 3; round++ {
		cfg.Reference = round == 1
		if err := net.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		var trace []batchRecord
		net.SetObserver(func(now Time, env Envelope) {
			trace = append(trace, batchRecord{Now: now, From: env.From, To: env.To, Seq: env.Seq, Len: len(env.Data)})
		})
		for i := 0; i < cfg.N; i++ {
			if err := net.SetProcess(PartyID(i), &chattyProc{need: 40}); err != nil {
				t.Fatal(err)
			}
		}
		res, runErr := net.Run()
		refTrace, refRes, refErr := runBatchTrace(t, constDelay{d: 5}, false, func(c *Config) { c.N = cfg.N })
		requireSameRun(t, "recycled", refTrace, refRes, refErr, trace, res, runErr)
	}
}

// rngSched draws every delay from the shared rng: the serial dependency
// that forces the batched loop to flush deferred sends in trigger order.
type rngSched struct{ max int64 }

func (s rngSched) Delay(_ Envelope, _ Time, rng *rand.Rand) Time {
	return 1 + Time(rng.Int63n(s.max))
}

// fromSched gives each sender a different deterministic delay, spreading a
// multicast's envelopes across many ticks (staggered-style).
type fromSched struct{}

func (fromSched) Delay(env Envelope, _ Time, _ *rand.Rand) Time {
	return 1 + Time(env.From)*2
}

// TestBatchModeBudgetEquivalence pins the event-budget abort: production
// must abort at the exact same event, with identical partial stats, which
// it does by handing the budget-tripping tick to the per-envelope body.
func TestBatchModeBudgetEquivalence(t *testing.T) {
	for _, budget := range []int{1, 7, 23, 50} {
		mut := func(cfg *Config) { cfg.MaxEvents = budget }
		refTrace, refRes, refErr := runBatchTrace(t, constDelay{d: 3}, true, mut)
		gotTrace, gotRes, gotErr := runBatchTrace(t, constDelay{d: 3}, false, mut)
		if !errors.Is(refErr, ErrEventBudget) {
			t.Fatalf("budget %d: reference run did not trip the budget: %v", budget, refErr)
		}
		if !errors.Is(gotErr, ErrEventBudget) {
			t.Fatalf("budget %d: production run error %v, want ErrEventBudget", budget, gotErr)
		}
		if len(refTrace) != len(gotTrace) {
			t.Fatalf("budget %d: trace lengths diverge: reference %d, production %d", budget, len(refTrace), len(gotTrace))
		}
		for i := range refTrace {
			if refTrace[i] != gotTrace[i] {
				t.Fatalf("budget %d: delivery %d diverges", budget, i)
			}
		}
		if refRes.Stats != gotRes.Stats {
			t.Fatalf("budget %d: partial stats diverge: reference %+v, production %+v", budget, refRes.Stats, gotRes.Stats)
		}
	}
}

// lateDecider decides on its quota like chattyProc but keeps talking
// afterward only through messages already in flight, so runs routinely end
// in the middle of a dense tick — exercising the completion repair
// (production's stats and send stream must match the reference's early
// exit exactly). The scenario already occurs in the equivalence matrix
// above; this test makes the mid-tick ending certain by having all parties
// decide at the same tick under a constant-delay scheduler.
func TestBatchModeMidTickCompletion(t *testing.T) {
	run := func(reference bool) (*Result, Stats) {
		cfg := Config{N: 8, Scheduler: constDelay{d: 4}, Seed: 3, Reference: reference}
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.N; i++ {
			if err := net.SetProcess(PartyID(i), &chattyProc{need: 25}); err != nil {
				t.Fatal(err)
			}
		}
		res, runErr := net.Run()
		if runErr != nil {
			t.Fatalf("run failed: %v", runErr)
		}
		return res, res.Stats
	}
	refRes, refStats := run(true)
	gotRes, gotStats := run(false)
	if refStats != gotStats {
		t.Fatalf("stats diverge: reference %+v, production %+v", refStats, gotStats)
	}
	if refRes.FinishTime != gotRes.FinishTime {
		t.Fatalf("finish time diverges: reference %d, production %d", refRes.FinishTime, gotRes.FinishTime)
	}
	for id, v := range refRes.Decisions {
		if gotRes.Decisions[id] != v {
			t.Fatalf("party %d decision diverges", id)
		}
	}
}

// batchEcho is an echoProc that opts into DeliverBatch, counting batch
// calls so the test can assert batching actually engaged.
type batchEcho struct {
	echoProc
	batches int
}

func (p *batchEcho) DeliverBatch(b *Batch) {
	p.batches++
	for env := b.Next(); env != nil; env = b.Next() {
		p.echoProc.Deliver(env.From, env.Data)
	}
}

// TestBatchProcessDispatch checks that a BatchProcess receives its whole
// tick in one DeliverBatch call (with per-envelope results identical to
// the shim) and that unconsumed envelopes are drained by the runtime.
func TestBatchProcessDispatch(t *testing.T) {
	const n = 5
	cfg := Config{N: n, Scheduler: constDelay{d: 2}, Seed: 9}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*batchEcho, n)
	for i := 0; i < n; i++ {
		procs[i] = &batchEcho{echoProc: echoProc{need: n}}
		if err := net.SetProcess(PartyID(i), procs[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != n {
		t.Fatalf("got %d decisions, want %d", len(res.Decisions), n)
	}
	for i, p := range procs {
		// All n greetings land at tick 2 in one batch per party.
		if p.batches != 1 {
			t.Errorf("party %d saw %d batch calls, want 1", i, p.batches)
		}
		if p.got != n {
			t.Errorf("party %d got %d deliveries, want %d", i, p.got, n)
		}
	}
}

// partialBatch consumes only the first envelope of every batch; the
// runtime must drain the rest so behavior matches full consumption.
type partialBatch struct{ echoProc }

func (p *partialBatch) DeliverBatch(b *Batch) {
	if env := b.Next(); env != nil {
		p.echoProc.Deliver(env.From, env.Data)
	}
}

func TestBatchPartialConsumerDrained(t *testing.T) {
	const n = 5
	net, err := New(Config{N: n, Scheduler: constDelay{d: 2}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := net.SetProcess(PartyID(i), &partialBatch{echoProc{need: n}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != n {
		t.Fatalf("got %d decisions, want %d (drain must deliver unconsumed envelopes)", len(res.Decisions), n)
	}
	if res.Stats.MessagesDelivered != n*n {
		t.Fatalf("MessagesDelivered = %d, want %d", res.Stats.MessagesDelivered, n*n)
	}
}

// TestFlushPendingOrder pins the flush's trigger sort against the stable
// comparison sort it replaces: per-party runs of ascending triggers
// concatenated the way the per-party tick drain emits them, plus ops
// triggered past the completion point, which the flush must drop.
func TestFlushPendingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		net, _ := newEchoNet(t, 8, nil)
		const tick = 64
		var ops []pendingOp
		for p := PartyID(0); p < 8; p++ {
			// Each party's ops come out in ascending trigger order, with
			// several ops sharing a trigger.
			trig := int32(rng.Intn(8))
			for k := rng.Intn(12); k > 0 && trig < tick; k-- {
				op := pendingOp{from: p, to: PartyID(rng.Intn(8)), trig: trig, data: []byte{byte(len(ops))}}
				if rng.Intn(4) == 0 {
					op = pendingOp{from: p, trig: trig, timer: true, delay: 5, tag: uint64(len(ops))}
				}
				ops = append(ops, op)
				trig += int32(rng.Intn(3)) * int32(rng.Intn(6))
			}
		}
		if round == 0 {
			slices.SortFunc(ops, func(a, b pendingOp) int { return int(a.trig) - int(b.trig) })
		}
		want := slices.Clone(ops)
		slices.SortStableFunc(want, func(a, b pendingOp) int { return int(a.trig) - int(b.trig) })
		maxTrig := int32(tick)
		if round%2 == 1 {
			maxTrig = int32(rng.Intn(tick))
		}
		net.pend = append(net.pend[:0], ops...)
		net.flushPending(maxTrig)
		if len(net.pend) != 0 {
			t.Fatalf("round %d: %d ops left pending", round, len(net.pend))
		}
		var got []event
		for net.queue.Len() > 0 {
			got = net.queue.PopTick(got)
		}
		i := 0
		for _, op := range want {
			if op.trig > maxTrig {
				continue
			}
			if i == len(got) {
				t.Fatalf("round %d: %d events flushed, want more", round, len(got))
			}
			ev := got[i]
			same := ev.timer == op.timer && ev.env.From == op.from
			if op.timer {
				same = same && ev.tag == op.tag
			} else {
				same = same && ev.env.To == op.to && ev.env.Data[0] == op.data[0]
			}
			if !same {
				t.Fatalf("round %d: flushed event %d is %+v, want op %+v", round, i, ev, op)
			}
			i++
		}
		if i != len(got) {
			t.Fatalf("round %d: %d events flushed, want %d", round, len(got), i)
		}
	}
}
