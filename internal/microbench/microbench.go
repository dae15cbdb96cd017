// Package microbench holds the substrate micro-benchmark bodies shared by
// the root benchmark suite (bench_test.go) and cmd/aabench's -json
// snapshot, so `go test -bench` and the BENCH_*.json trajectory can never
// silently measure different code or parameters.
package microbench

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/multiset"
	"repro/internal/rbc"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Case is one named micro-benchmark, keyed by its snapshot identifier
// (micro[*].name in BENCH_*.json).
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// SortedInput returns the canonical quorum-sized sorted multiset the
// approximation-function benchmarks run on.
func SortedInput() []float64 {
	sorted := make([]float64, 64)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	return sorted
}

// Cases returns the snapshot micro-benchmark inventory, in snapshot order.
func Cases() []Case {
	return []Case{
		{"multiset/apply-sorted/midextremes", func(b *testing.B) {
			ApplySorted(b, multiset.MidExtremes{Trim: 8})
		}},
		{"multiset/apply-sorted/selectdouble", func(b *testing.B) {
			ApplySorted(b, multiset.SelectDouble{Trim: 8, K: 4})
		}},
		{"multiset/contraction-search", ContractionSearch},
		{"wire/value-roundtrip", WireRoundtrip},
		{"wire/value-append-reuse", WireAppendReuse},
		{"rbc/round", RBCRound},
		{"simloop/calendar", func(b *testing.B) { SimLoop(b, sim.CoreCalendar) }},
		{"simloop/heap", func(b *testing.B) { SimLoop(b, sim.CoreHeap) }},
		{"scenario/e12", ScenarioE12},
		{"deliverbatch/on", func(b *testing.B) { DeliverBatch(b, sim.BatchOn) }},
		{"deliverbatch/off", func(b *testing.B) { DeliverBatch(b, sim.BatchOff) }},
		{"shardedtick/s1", func(b *testing.B) { ShardedTick(b, 1) }},
		{"shardedtick/s4", func(b *testing.B) { ShardedTick(b, 4) }},
		{"harness/run-reused", RunReused},
		{"livenet/run-n32", LiveRun},
	}
}

// LiveRun measures one whole run on the goroutine runtime: crash protocol,
// n=32 t=10, every message held for a uniform draw from [0, 200 µs), party
// construction included (livenet has no recycled form). A run is ~10 240
// messages, so besides ns/op and allocs/op it reports ns/msg and
// allocs/msg — the units the simulator rows are quoted in. ns/msg is wall
// time: at this size the run is processor-bound, but a round can never
// finish faster than its jitter draws allow.
func LiveRun(b *testing.B) {
	const n = 32
	p := core.Params{Protocol: core.ProtoCrash, N: n, T: 10, Eps: 1e-3, Lo: 0, Hi: 1}
	inputs := harness.UniformInputs(n, 0, 1, 17)
	procs := make([]sim.Process, n)
	var msgs int64
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range procs {
			proc, err := core.NewAsyncAA(p, inputs[j])
			if err != nil {
				b.Fatal(err)
			}
			procs[j] = proc
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := livenet.Run(ctx, procs, livenet.Options{MaxJitter: 200 * time.Microsecond, Seed: int64(i)})
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Messages
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "allocs/msg")
}

// stormProc is a protocol-free message storm: every delivery triggers one
// send until the party's budget drains, isolating the event core (push,
// pop, payload snapshot) from protocol arithmetic.
type stormProc struct {
	api    sim.API
	budget int
	buf    [1]byte
}

func (p *stormProc) Init(api sim.API) {
	p.api = api
	p.send(3)
}

func (p *stormProc) send(k int) {
	n := p.api.N()
	for i := 0; i < k && p.budget > 0; i++ {
		p.budget--
		to := (int(p.api.ID())*31 + p.budget*17 + i) % n
		p.api.Send(sim.PartyID(to), p.buf[:])
	}
	if p.budget == 0 {
		p.budget = -1
		p.api.Decide(0)
	}
}

func (p *stormProc) Deliver(sim.PartyID, []byte) { p.send(1) }

// SimLoop measures the raw simulator event loop on the selected core: 64
// parties, ~19k messages per iteration, delays spread over two hundred
// ticks so the calendar queue's wheel (and the heap's depth) both see
// realistic occupancy. This is the microbenchmark behind the calendar-
// versus-heap acceptance numbers in PERF.md.
func SimLoop(b *testing.B, eventCore sim.EventCore) {
	const n, budget = 64, 300
	for i := 0; i < b.N; i++ {
		net, err := sim.New(sim.Config{
			N:         n,
			Scheduler: &sched.UniformRandom{Min: 1, Max: 200},
			Seed:      1,
			Core:      eventCore,
		})
		if err != nil {
			b.Fatal(err)
		}
		for id := 0; id < n; id++ {
			if err := net.SetProcess(sim.PartyID(id), &stormProc{budget: budget}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ScenarioE12 measures one representative E12 unit: a full crash-protocol
// run at n=64 under the "splitviews+crash" scenario — the workload the
// calendar-queue core exists for, resolved through the scenario registry
// exactly as the E12 driver does it.
func ScenarioE12(b *testing.B) {
	scen := scenario.MustParse("splitviews+crash/n=64,t=31")
	p := core.Params{Protocol: core.ProtoCrash, N: 64, T: 31, Eps: 1e-3, Lo: 0, Hi: 1}
	inputs := harness.BimodalInputs(64, 0, 1)
	for i := 0; i < b.N; i++ {
		spec, err := harness.SpecFrom(p, inputs, scen, 17)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := harness.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("run failed: %s", rep.Failure())
		}
	}
}

// DeliverBatch measures the tick-delivery core A/B: the same E12-style
// crash-protocol run at n=64 with batched destination-grouped delivery
// (sim.BatchOn, the default) versus the per-envelope reference loop
// (sim.BatchOff). The runs are observably identical — pinned by the batch
// equivalence tests — so the delta is pure delivery-path cost.
func DeliverBatch(b *testing.B, mode sim.BatchMode) {
	harness.SetBatching(mode)
	defer harness.SetBatching(sim.BatchDefault)
	scen := scenario.MustParse("splitviews+crash/n=64,t=31")
	p := core.Params{Protocol: core.ProtoCrash, N: 64, T: 31, Eps: 1e-3, Lo: 0, Hi: 1}
	inputs := harness.BimodalInputs(64, 0, 1)
	spec, err := harness.SpecFrom(p, inputs, scen, 17)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := harness.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("run failed: %s", rep.Failure())
		}
	}
}

// ShardedTick measures the intra-run sharding A/B: the same E12-style
// crash-protocol run at n=256 (dense multicast ticks well past the worker
// dispatch threshold) at the given shard count, on a warm recycled run
// context so the delta is pure tick-execution cost. shards=1 is the
// sequential reference; shards=4 engages the concurrent worker phase and
// the barrier merge. The runs are observably identical — pinned by the
// shard equivalence tests — so on multi-core hardware the s4/s1 ratio is
// the intra-run speedup, and on a single core it is the sharding overhead.
func ShardedTick(b *testing.B, shards int) {
	harness.SetSharding(shards)
	defer harness.SetSharding(0)
	scen := scenario.MustParse("splitviews+crash/n=256,t=127")
	p := core.Params{Protocol: core.ProtoCrash, N: 256, T: 127, Eps: 1e-3, Lo: 0, Hi: 1}
	spec, err := harness.SpecFrom(p, harness.BimodalInputs(256, 0, 1), scen, 17)
	if err != nil {
		b.Fatal(err)
	}
	spec.MaxEvents = 20_000_000
	ctx := harness.NewRunContext()
	if rep, err := ctx.Run(spec); err != nil {
		b.Fatalf("warm-up failed: %v", err)
	} else if !rep.OK() {
		b.Fatalf("warm-up run failed: %s", rep.Failure())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ctx.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("run failed: %s", rep.Failure())
		}
	}
}

// RunReused measures one full crash-protocol run (n=10 t=4, splitviews
// scheduler with a crash storm) on a warm recycled harness.RunContext —
// the form every engine run takes since the run-context recycling PR. Its
// allocs_op in the snapshot is the steady-state pin: ~0 after warm-up
// (the reused-report path; TestRunReusedAllocs asserts exactly 0).
func RunReused(b *testing.B) {
	scen := scenario.MustParse("splitviews+crash/n=10,t=4")
	p := core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}
	spec, err := harness.SpecFrom(p, harness.BimodalInputs(10, 0, 1), scen, 17)
	if err != nil {
		b.Fatal(err)
	}
	ctx := harness.NewRunContext()
	if rep, err := ctx.Run(spec); err != nil {
		b.Fatalf("warm-up failed: %v", err)
	} else if !rep.OK() {
		b.Fatalf("warm-up run failed: %s", rep.Failure())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ctx.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("run failed: %s", rep.Failure())
		}
	}
}

// RBCRound measures n concurrent reliable broadcasts among n=16 parties
// delivered to completion — the witness protocol's per-round substrate
// and the target of the dense-state arena refactor.
func RBCRound(b *testing.B) {
	const n, tf = 16, 5
	for i := 0; i < b.N; i++ {
		queue := make([][]byte, 0, 1024)
		senders := make([]uint16, 0, 1024)
		bcs := make([]*rbc.Broadcaster, n)
		for p := 0; p < n; p++ {
			p := p
			// The broadcaster encodes into a reused scratch buffer, so the
			// multicast function must snapshot the payload (as the simulator
			// and livenet runtimes do) before queueing it.
			bc, err := rbc.New(n, tf, uint16(p), func(data []byte) {
				queue = append(queue, append([]byte(nil), data...))
				senders = append(senders, uint16(p))
			})
			if err != nil {
				b.Fatal(err)
			}
			bcs[p] = bc
		}
		for p := 0; p < n; p++ {
			bcs[p].Broadcast(1, float64(p))
		}
		delivered := 0
		for len(queue) > 0 {
			data, from := queue[0], senders[0]
			queue, senders = queue[1:], senders[1:]
			for p := 0; p < n; p++ {
				if _, ok := bcs[p].Handle(from, data); ok {
					delivered++
				}
			}
		}
		if delivered != n*n {
			b.Fatalf("delivered %d, want %d", delivered, n*n)
		}
	}
}

// ApplySorted measures f's trusted-sorted fast path — the path every
// protocol round takes (multiset.ApplyInPlace → ApplySorted). f is boxed
// once, as the protocols hold it, so no per-call interface allocation is
// charged to the measurement.
func ApplySorted(b *testing.B, f multiset.Func) {
	sorted := SortedInput()
	for i := 0; i < b.N; i++ {
		if _, err := multiset.ApplySorted(f, sorted); err != nil {
			b.Fatal(err)
		}
	}
}

// ApplyValidated measures f's validating Apply path (with its O(n)
// sortedness re-scan), the comparison point for ApplySorted.
func ApplyValidated(b *testing.B, f multiset.Func) {
	sorted := SortedInput()
	for i := 0; i < b.N; i++ {
		if _, err := f.Apply(sorted); err != nil {
			b.Fatal(err)
		}
	}
}

// ContractionSearch measures the adversarial one-round contraction search
// used by experiments E2 and E7.
func ContractionSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := multiset.WorstContraction(multiset.MidExtremes{},
			multiset.ViewModel{N: 9, T: 4}, 500, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// WireRoundtrip measures allocate-per-message encode plus decode of the
// core round message.
func WireRoundtrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := wire.MarshalValue(wire.Value{Round: 7, Horizon: 30, Value: 3.25})
		if _, err := wire.UnmarshalValue(m); err != nil {
			b.Fatal(err)
		}
	}
}

// WireAppendReuse measures the buffer-reusing encoder on a scratch buffer,
// the zero-allocation form of the wire hot path.
func WireAppendReuse(b *testing.B) {
	buf := make([]byte, 0, wire.ValueSize)
	for i := 0; i < b.N; i++ {
		buf = wire.AppendValue(buf[:0], wire.Value{Round: 7, Horizon: 30, Value: 3.25})
		if _, err := wire.UnmarshalValue(buf); err != nil {
			b.Fatal(err)
		}
	}
}
