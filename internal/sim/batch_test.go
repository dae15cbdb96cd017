package sim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// This file pins the batched tick-delivery core to the per-envelope
// reference loop: identical delivery traces, stats, decisions, and errors
// across schedulers (including rng-consuming ones), crash plans, timers,
// mid-tick run completion, and event-budget aborts — the simulator-level
// form of the byte-identical-tables contract in internal/harness.

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

// runBatchTrace executes a chatty mesh under the given scheduler and batch
// mode and returns the delivery trace, result, and run error.
func runBatchTrace(t *testing.T, sched Scheduler, mode BatchMode, mut func(*Config)) ([]batchRecord, *Result, error) {
	t.Helper()
	cfg := Config{N: 6, Scheduler: sched, Seed: 11, Batch: mode}
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

// TestBatchModeTraceEquivalence asserts event-for-event identical delivery
// traces, stats, and decisions between batched and unbatched delivery
// across a scheduler matrix that includes shared-rng draws (UniformRandom-
// style) and crash plans that truncate multicasts mid-tick.
func TestBatchModeTraceEquivalence(t *testing.T) {
	randSched := func(Envelope, Time, *rand.Rand) Time { return 0 } // placeholder
	_ = randSched
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
				offTrace, offRes, offErr := runBatchTrace(t, mk(), BatchOff, mut)
				onTrace, onRes, onErr := runBatchTrace(t, mk(), BatchOn, mut)
				if !errors.Is(onErr, offErr) && !(onErr == nil && offErr == nil) {
					t.Fatalf("errors diverge: off %v, on %v", offErr, onErr)
				}
				if len(offTrace) != len(onTrace) {
					t.Fatalf("trace lengths diverge: off %d, on %d", len(offTrace), len(onTrace))
				}
				for i := range offTrace {
					if offTrace[i] != onTrace[i] {
						t.Fatalf("delivery %d diverges: off %+v, on %+v", i, offTrace[i], onTrace[i])
					}
				}
				if offRes.Stats != onRes.Stats {
					t.Fatalf("stats diverge: off %+v, on %+v", offRes.Stats, onRes.Stats)
				}
				if offRes.FinishTime != onRes.FinishTime || offRes.MaxHonestDelay != onRes.MaxHonestDelay {
					t.Fatalf("timing diverges: off (%d,%d), on (%d,%d)",
						offRes.FinishTime, offRes.MaxHonestDelay, onRes.FinishTime, onRes.MaxHonestDelay)
				}
				if len(offRes.Decisions) != len(onRes.Decisions) {
					t.Fatal("decision counts diverge")
				}
				for id, v := range offRes.Decisions {
					if onRes.Decisions[id] != v || onRes.DecidedAt[id] != offRes.DecidedAt[id] {
						t.Fatalf("party %d decision diverges", id)
					}
				}
			})
		}
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

// TestBatchModeBudgetEquivalence pins the event-budget abort: the batched
// loop must abort at the exact same event, with identical partial stats,
// which it does by handing the budget-tripping tick to the reference loop.
func TestBatchModeBudgetEquivalence(t *testing.T) {
	for _, budget := range []int{1, 7, 23, 50} {
		mut := func(cfg *Config) { cfg.MaxEvents = budget }
		offTrace, offRes, offErr := runBatchTrace(t, constDelay{d: 3}, BatchOff, mut)
		onTrace, onRes, onErr := runBatchTrace(t, constDelay{d: 3}, BatchOn, mut)
		if !errors.Is(offErr, ErrEventBudget) {
			t.Fatalf("budget %d: reference run did not trip the budget: %v", budget, offErr)
		}
		if !errors.Is(onErr, ErrEventBudget) {
			t.Fatalf("budget %d: batched run error %v, want ErrEventBudget", budget, onErr)
		}
		if len(offTrace) != len(onTrace) {
			t.Fatalf("budget %d: trace lengths diverge: off %d, on %d", budget, len(offTrace), len(onTrace))
		}
		for i := range offTrace {
			if offTrace[i] != onTrace[i] {
				t.Fatalf("budget %d: delivery %d diverges", budget, i)
			}
		}
		if offRes.Stats != onRes.Stats {
			t.Fatalf("budget %d: partial stats diverge: off %+v, on %+v", budget, offRes.Stats, onRes.Stats)
		}
	}
}

// lateDecider decides on its quota like chattyProc but keeps talking
// afterward only through messages already in flight, so runs routinely end
// in the middle of a dense tick — exercising the completion repair (the
// batched loop's stats and send stream must match the reference loop's
// early exit exactly). The scenario already occurs in the equivalence
// matrix above; this test makes the mid-tick ending certain by having all
// parties decide at the same tick under a constant-delay scheduler.
func TestBatchModeMidTickCompletion(t *testing.T) {
	run := func(mode BatchMode) (*Result, Stats) {
		cfg := Config{N: 8, Scheduler: constDelay{d: 4}, Seed: 3, Batch: mode}
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
	offRes, offStats := run(BatchOff)
	onRes, onStats := run(BatchOn)
	if offStats != onStats {
		t.Fatalf("stats diverge: off %+v, on %+v", offStats, onStats)
	}
	if offRes.FinishTime != onRes.FinishTime {
		t.Fatalf("finish time diverges: off %d, on %d", offRes.FinishTime, onRes.FinishTime)
	}
	for id, v := range offRes.Decisions {
		if onRes.Decisions[id] != v {
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
// interleaved the way shard workers concatenate them, plus ops triggered
// past the completion point, which the flush must drop.
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
