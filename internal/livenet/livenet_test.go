package livenet

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/relnet"
	"repro/internal/sched"
	"repro/internal/sim"
)

func crashProcs(t *testing.T, n, faults int, inputs []float64) []sim.Process {
	t.Helper()
	p := core.Params{Protocol: core.ProtoCrash, N: n, T: faults, Eps: 1e-3, Lo: 0, Hi: 1}
	procs := make([]sim.Process, n)
	for i := range procs {
		proc, err := core.NewAsyncAA(p, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = proc
	}
	return procs
}

// reliable wraps every process in the ack/retransmit transport.
func reliable(procs []sim.Process) []sim.Process {
	for i, p := range procs {
		procs[i] = relnet.Wrap(p)
	}
	return procs
}

func TestLiveAgreement(t *testing.T) {
	inputs := []float64{0, 0.3, 0.5, 0.7, 1}
	procs := crashProcs(t, 5, 2, inputs)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Run(ctx, procs, Options{MaxJitter: 300 * time.Microsecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 5 {
		t.Fatalf("decisions: %v", res.Decisions)
	}
	lo, hi := 2.0, -1.0
	for _, v := range res.Decisions {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 1e-3 {
		t.Errorf("spread %v > eps", hi-lo)
	}
	if lo < 0 || hi > 1 {
		t.Errorf("validity violated: [%v, %v]", lo, hi)
	}
	if res.Messages == 0 {
		t.Error("no messages counted")
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestLiveWaitFor(t *testing.T) {
	// One party never decides (a stuck process); WaitFor=4 must still
	// complete.
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	procs := crashProcs(t, 5, 2, inputs)
	procs[4] = stuckProc{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Run(ctx, procs, Options{WaitFor: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) < 4 {
		t.Fatalf("only %d decisions", len(res.Decisions))
	}
}

// stuckProc never sends or decides.
type stuckProc struct{}

func (stuckProc) Init(sim.API)                {}
func (stuckProc) Deliver(sim.PartyID, []byte) {}

func TestLiveTimeout(t *testing.T) {
	procs := []sim.Process{stuckProc{}, stuckProc{}}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, procs, Options{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestLiveValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{}); err == nil {
		t.Error("empty process list accepted")
	}
	if _, err := Run(context.Background(), []sim.Process{nil}, Options{}); err == nil {
		t.Error("nil process accepted")
	}
}

func TestLiveTimers(t *testing.T) {
	// A process that decides only when its timer fires.
	done := &timerProc{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := Run(ctx, []sim.Process{done}, Options{Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[0] != 42 {
		t.Errorf("decision = %v", res.Decisions[0])
	}
}

type timerProc struct{ api sim.API }

func (p *timerProc) Init(api sim.API) {
	p.api = api
	api.SetTimer(5, 7)
}

func (p *timerProc) Deliver(sim.PartyID, []byte) {}

func (p *timerProc) OnTimer(tag uint64) {
	if tag == 7 {
		p.api.Decide(42)
	}
}

func TestLivePartialResultOnTimeout(t *testing.T) {
	// Raw transport under heavy injected loss: the run cannot finish, but
	// the timeout must return the partial progress, not just an error.
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	procs := crashProcs(t, 5, 2, inputs)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, procs, Options{Loss: 0.6, Seed: 9})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if res == nil {
		t.Fatal("timeout returned no partial result")
	}
	if res.Dropped == 0 {
		t.Error("loss injection dropped nothing")
	}
	if len(res.Decisions)+len(res.Undecided) != 5 {
		t.Errorf("decisions %d + undecided %d != n", len(res.Decisions), len(res.Undecided))
	}
}

func TestLiveShedOldestKeepsSendersUnblocked(t *testing.T) {
	// A one-slot inbox on a recipient whose consumer loop is wedged inside
	// Deliver: the burst must shed (never block a sender goroutine), and
	// the flooder — deciding on a timer long after the burst — must still
	// finish. The slow consumer holds its loop for longer than the whole
	// run, so overflow is guaranteed, not a scheduling race.
	procs := []sim.Process{&floodProc{}, &slowProc{block: 2 * time.Second}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := Run(ctx, procs, Options{
		WaitFor:    1,
		InboxDepth: 1,
		MaxJitter:  time.Microsecond,
		Tick:       10 * time.Millisecond,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 && res.SendTimeouts == 0 {
		t.Error("overflowed inbox neither shed nor timed out")
	}
	if len(res.Degraded) == 0 {
		t.Error("overflow not attributed to a degraded party")
	}
}

// floodProc fires a burst at party 1 at Init and decides on a timer tick
// well after the burst has landed.
type floodProc struct{ api sim.API }

func (p *floodProc) Init(api sim.API) {
	p.api = api
	for i := 0; i < 256; i++ {
		api.Send(1, []byte{byte(i)})
	}
	api.SetTimer(5, 1)
}
func (p *floodProc) Deliver(sim.PartyID, []byte) {}
func (p *floodProc) OnTimer(uint64)              { p.api.Decide(1) }

// slowProc wedges its consumer loop inside the first Deliver.
type slowProc struct {
	block time.Duration
	once  bool
}

func (p *slowProc) Init(sim.API) {}
func (p *slowProc) Deliver(sim.PartyID, []byte) {
	if !p.once {
		p.once = true
		time.Sleep(p.block)
	}
}

func TestLiveRestartSupervision(t *testing.T) {
	// Two parties are checkpointed, killed, and rejoined mid-run under
	// modest loss with the reliable transport. Loss forces the run through
	// at least one retransmit RTO (32 ticks), so the staggered kills land
	// while the exchange is still in flight; after both rejoin, everyone
	// must converge and the restarts must be attributed.
	const n, faults = 9, 2
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / float64(n-1)
	}
	procs := reliable(crashProcs(t, n, faults, inputs))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Run(ctx, procs, Options{
		MaxJitter: 2 * time.Millisecond,
		Tick:      time.Millisecond,
		Seed:      21,
		Loss:      0.05,
		Restarts: []sim.RestartPlan{
			{Party: 0, Checkpoint: 15, Down: 15, Rejoin: 35},
			{Party: 1, Checkpoint: 25, Down: 25, Rejoin: 45},
		},
	})
	if err != nil {
		t.Fatalf("restart run did not converge: %v (decided %d, undecided %v, restarts %d)",
			err, len(res.Decisions), res.Undecided, res.Restarts)
	}
	if len(res.Decisions) != n {
		t.Fatalf("decisions: %d of %d", len(res.Decisions), n)
	}
	lo, hi := 2.0, -1.0
	for _, v := range res.Decisions {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 1e-3 {
		t.Errorf("spread %v > eps", hi-lo)
	}
	if lo < 0 || hi > 1 {
		t.Errorf("validity violated: [%v, %v]", lo, hi)
	}
	if res.Restarts != 2 {
		t.Errorf("restarts = %d, want 2", res.Restarts)
	}
	if len(res.Restarted) != 2 || res.Restarted[0] != 0 || res.Restarted[1] != 1 {
		t.Errorf("restarted = %v, want [0 1]", res.Restarted)
	}
	t.Logf("restart run: %v elapsed, %d msgs, %d dropped, %d retransmits, %d restarts",
		res.Elapsed, res.Messages, res.Dropped, res.Transport.Retransmits, res.Restarts)
}

func TestLiveRestartRequiresSnapshotter(t *testing.T) {
	// A process without checkpoint support cannot be restart-supervised;
	// the run must refuse up front, not fail mid-restart.
	procs := []sim.Process{stuckProc{}, stuckProc{}}
	plan := []sim.RestartPlan{{Party: 0, Down: 1, Rejoin: 2}}
	if _, err := Run(context.Background(), procs, Options{Restarts: plan}); err == nil {
		t.Error("snapshot-less process accepted under restart supervision")
	}
}

// TestLiveRestartPlanCheckMatchesSimulator: livenet checks restart plans
// with the simulator's own check, so a bad plan fails before the run with
// the message sim.Config.Validate gives.
func TestLiveRestartPlanCheckMatchesSimulator(t *testing.T) {
	const n = 3
	for name, plans := range map[string][]sim.RestartPlan{
		"party out of range":     {{Party: n, Down: 5, Rejoin: 9}},
		"down before checkpoint": {{Party: 1, Checkpoint: 6, Down: 5, Rejoin: 9}},
		"down at zero":           {{Party: 1, Down: 0, Rejoin: 9}},
		"rejoin not after down":  {{Party: 1, Down: 5, Rejoin: 5}},
		"two plans one party":    {{Party: 1, Down: 5, Rejoin: 9}, {Party: 1, Down: 20, Rejoin: 30}},
	} {
		cfg := sim.Config{N: n, Scheduler: &sched.UniformRandom{Min: 1, Max: 2}, Restarts: plans}
		want := cfg.Validate()
		if want == nil {
			t.Fatalf("%s: the simulator accepts %v", name, plans)
		}
		procs := crashProcs(t, n, 1, []float64{0, 0.5, 1})
		if _, err := Run(context.Background(), procs, Options{Restarts: plans}); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: livenet error %v, want the simulator's %q", name, err, want)
		}
	}
}

// TestDarkDropsBySendAndDueTime drives post on a network with no goroutines
// and no wall clock: party 1 is dark from tick 10 on, one tick per
// millisecond. A send from it while it is dark is dropped; a send to it is
// dropped exactly when its jittered due time falls in the window, though
// it was sent before the window opened; and a multicast outside the window
// still allocates only its one shared copy, as on a network with no Dark.
func TestDarkDropsBySendAndDueTime(t *testing.T) {
	dark := func(p sim.PartyID, at sim.Time) bool { return p == 1 && at >= 10 }
	net := newNetwork(3, Options{MaxJitter: 2 * time.Millisecond, Tick: time.Millisecond, InboxDepth: 4096, Seed: 5, Dark: dark})
	payload := make([]byte, 14)

	from1 := &net.parties[1]
	from1.post(0, 10*time.Millisecond, payload, nil)
	if from1.dropped != 1 {
		t.Fatalf("a send from a dark party: %d dropped, want 1", from1.dropped)
	}
	if batch, _, wait := net.boxes[0].take(time.Hour, nil); len(batch) > 0 || wait >= 0 {
		t.Fatal("a send from a dark party reached its recipient")
	}

	// Sent at 9ms with up to 2ms of jitter: a message due at 10ms or later
	// lands in the window and is dropped; the rest land before it opens.
	const sends = 200
	from0 := &net.parties[0]
	for range sends {
		from0.post(1, 9*time.Millisecond, payload, nil)
	}
	batch, _, _ := net.boxes[1].take(10*time.Millisecond-1, nil)
	landed := len(batch)
	if batch, _, wait := net.boxes[1].take(time.Hour, batch); len(batch) > 0 || wait >= 0 {
		t.Error("a send due inside the recipient's window was delivered")
	}
	if from0.dropped == 0 || landed == 0 || int(from0.dropped)+landed != sends {
		t.Errorf("%d sends due around the window opening: %d dropped, %d landed before it", sends, from0.dropped, landed)
	}

	multicast := &net.parties[2]
	if allocs := multicastAllocs(net, multicast, 0); allocs != 1 {
		t.Errorf("warm Multicast outside every window: %v allocs, want 1 (the shared copy)", allocs)
	}
}

func TestLiveFlapShedRetransmitSurvival(t *testing.T) {
	// Flap windows on top of one-slot inboxes: the shed storm discards
	// queued frames wholesale, and the flap drops everything in the dark
	// windows, but the retransmit timers — which are never shed — must
	// keep their cadence and re-deliver until every party converges.
	const n, faults = 5, 1
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	procs := reliable(crashProcs(t, n, faults, inputs))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Run(ctx, procs, Options{
		MaxJitter:  500 * time.Microsecond,
		Tick:       time.Millisecond,
		Seed:       17,
		InboxDepth: 1,
		Dark:       (&fault.Flap{Slots: 2, Base: 10, Stagger: 15, Len: 25}).Dark,
	})
	if err != nil {
		t.Fatalf("flap+shed run did not converge: %v (decided %d, shed %d, retransmits %d)",
			err, len(res.Decisions), res.Shed, res.Transport.Retransmits)
	}
	if len(res.Decisions) != n {
		t.Fatalf("decisions: %d of %d", len(res.Decisions), n)
	}
	if res.Shed == 0 {
		t.Error("one-slot inboxes shed nothing")
	}
	if res.Transport.Retransmits == 0 {
		t.Error("reliable transport never retransmitted through the shed storm")
	}
	t.Logf("flap+shed run: %v elapsed, %d msgs, %d dropped, %d shed, %d retransmits, %d give-ups",
		res.Elapsed, res.Messages, res.Dropped, res.Shed,
		res.Transport.Retransmits, res.Transport.GiveUps)
}

// TestLiveShedTimeoutRestartInterplay pins the serving layer's worst-case
// interplay in one process: one-slot inboxes shedding their oldest item on
// every contention and restart supervision killing and reviving a party —
// concurrently over the reliable transport. The retransmit timers are
// never shed and the supervisor runs on the party's own goroutine, so
// neither mechanism may starve the other: the run must still converge,
// with the shedding, the restart, and the retransmit cadence all
// attributed in the result. Result.SendTimeouts is always zero; it is
// printed because the Result still carries the field.
func TestLiveShedTimeoutRestartInterplay(t *testing.T) {
	const n, faults = 5, 1
	inputs := []float64{0, 0.25, 0.5, 0.75, 1}
	procs := reliable(crashProcs(t, n, faults, inputs))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, procs, Options{
		MaxJitter:  500 * time.Microsecond,
		Tick:       time.Millisecond,
		Seed:       29,
		InboxDepth: 1,
		Restarts:   []sim.RestartPlan{{Party: 0, Checkpoint: 15, Down: 15, Rejoin: 35}},
	})
	if err != nil {
		t.Fatalf("shed+timeout+restart run did not converge: %v (decided %d, shed %d, sendTimeouts %d, restarts %d)",
			err, len(res.Decisions), res.Shed, res.SendTimeouts, res.Restarts)
	}
	if len(res.Decisions) != n {
		t.Fatalf("decisions: %d of %d", len(res.Decisions), n)
	}
	lo, hi := 2.0, -1.0
	for _, v := range res.Decisions {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 1e-3 {
		t.Errorf("spread %v > eps", hi-lo)
	}
	if res.Shed == 0 {
		t.Error("one-slot inboxes shed nothing")
	}
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
	if res.Transport.Retransmits == 0 {
		t.Error("reliable transport never retransmitted through the shed/restart churn")
	}
	t.Logf("interplay run: %v elapsed, %d msgs, %d shed, %d send-timeouts, %d retransmits, %d restarts, degraded %v",
		res.Elapsed, res.Messages, res.Shed, res.SendTimeouts,
		res.Transport.Retransmits, res.Restarts, res.Degraded)
}

// TestRecoverySoak is the CI recovery soak: two parties killed and
// restarted under 10% loss with the reliable transport and -race, which
// must reconverge with the restarts attributed. Gated behind
// RECOVERY_SOAK=1 to keep default test runs fast.
func TestRecoverySoak(t *testing.T) {
	if os.Getenv("RECOVERY_SOAK") == "" {
		t.Skip("set RECOVERY_SOAK=1 to run the crash-recovery soak")
	}
	const n, faults = 9, 2
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / float64(n-1)
	}
	procs := reliable(crashProcs(t, n, faults, inputs))
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()
	res, err := Run(ctx, procs, Options{
		MaxJitter:  500 * time.Microsecond,
		Tick:       500 * time.Microsecond,
		Seed:       13,
		InboxDepth: 256,
		Loss:       0.1,
		Restarts: []sim.RestartPlan{
			{Party: 0, Checkpoint: 30, Down: 30, Rejoin: 80},
			{Party: 1, Checkpoint: 50, Down: 50, Rejoin: 100},
		},
	})
	if err != nil {
		t.Fatalf("recovery soak did not converge: %v (decided %d, undecided %v, restarts %d, retransmits %d)",
			err, len(res.Decisions), res.Undecided, res.Restarts, res.Transport.Retransmits)
	}
	if len(res.Decisions) != n {
		t.Fatalf("decisions: %d of %d", len(res.Decisions), n)
	}
	lo, hi := 2.0, -1.0
	for _, v := range res.Decisions {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 1e-3 {
		t.Errorf("spread %v > eps", hi-lo)
	}
	if lo < 0 || hi > 1 {
		t.Errorf("validity violated: [%v, %v]", lo, hi)
	}
	if res.Restarts != 2 {
		t.Errorf("restarts = %d, want 2", res.Restarts)
	}
	if res.Dropped == 0 {
		t.Error("soak injected no loss")
	}
	t.Logf("recovery soak: %v elapsed, %d msgs, %d dropped, %d retransmits, %d restarts, degraded %v",
		res.Elapsed, res.Messages, res.Dropped, res.Transport.Retransmits, res.Restarts, res.Degraded)
}

// TestLivenetSoak is the CI soak: loss + duplication + flapping parties
// with the reliable transport under -race, which must converge with no
// hung senders. Gated behind LIVENET_SOAK=1 to keep default test runs
// fast.
func TestLivenetSoak(t *testing.T) {
	if os.Getenv("LIVENET_SOAK") == "" {
		t.Skip("set LIVENET_SOAK=1 to run the lossy-network soak")
	}
	const n, faults = 9, 2
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / float64(n-1)
	}
	procs := reliable(crashProcs(t, n, faults, inputs))
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()
	res, err := Run(ctx, procs, Options{
		MaxJitter:  500 * time.Microsecond,
		Tick:       500 * time.Microsecond,
		Seed:       11,
		InboxDepth: 256,
		Loss:       0.1,
		Dup:        0.05,
		Dark:       (&fault.Flap{Slots: 2, Base: 40, Stagger: 60, Len: 80}).Dark,
	})
	if err != nil {
		t.Fatalf("soak did not converge: %v (decided %d, undecided %v, dropped %d, retransmits %d)",
			err, len(res.Decisions), res.Undecided, res.Dropped, res.Transport.Retransmits)
	}
	if len(res.Decisions) != n {
		t.Fatalf("decisions: %d of %d", len(res.Decisions), n)
	}
	lo, hi := 2.0, -1.0
	for _, v := range res.Decisions {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo > 1e-3 {
		t.Errorf("spread %v > eps", hi-lo)
	}
	if lo < 0 || hi > 1 {
		t.Errorf("validity violated: [%v, %v]", lo, hi)
	}
	if res.Dropped == 0 {
		t.Error("soak injected no loss")
	}
	if res.Transport.Retransmits == 0 {
		t.Error("reliable transport never retransmitted under loss")
	}
	t.Logf("soak: %v elapsed, %d msgs, %d dropped, %d duped, %d retransmits, %d dedup, %d shed",
		res.Elapsed, res.Messages, res.Dropped, res.Duped,
		res.Transport.Retransmits, res.Transport.DupsSuppressed, res.Shed)
}

// TestMulticastAllocatesOneSharedCopy pins the send path: once the
// mailboxes' slabs and heaps and the parties' batches have their capacity,
// a 32-way Multicast allocates exactly the one payload copy every
// recipient shares — no closure, timer or buffer per recipient.
func TestMulticastAllocatesOneSharedCopy(t *testing.T) {
	const n = 32
	net := newNetwork(n, Options{MaxJitter: 200 * time.Microsecond, InboxDepth: 4096, Seed: 5})
	api := &net.parties[0]
	if allocs := multicastAllocs(net, api, 0); allocs != 1 {
		t.Errorf("warm %d-way Multicast: %v allocs, want 1 (the shared copy)", n, allocs)
	}
	// One warming round, one more inside AllocsPerRun, then its 100.
	if want := int64(102 * n); api.messages != want {
		t.Errorf("counted %d sends, want %d", api.messages, want)
	}
}

// multicastAllocs multicasts a payload from api with the run's clock at
// now, drains every mailbox, and returns the warm allocations per round.
func multicastAllocs(net *network, api *liveAPI, now time.Duration) float64 {
	net.start = time.Now().Add(-now)
	payload := make([]byte, 14)
	round := func() {
		api.Multicast(payload)
		for i := range net.boxes {
			a := &net.parties[i]
			a.batch, _, _ = net.boxes[i].take(time.Hour, a.batch)
		}
	}
	round()
	return testing.AllocsPerRun(100, round)
}

// TestLiveRunAllocBudget pins a whole crash-protocol run at n=32 — about
// 10 240 messages — under 2 670 allocations, party construction included
// (measured: 2 137, of which about 1 000 are the protocol's own round
// buckets: newRoundBucket ~750, appendValues ~170, fitStore ~90; the
// budget is that figure plus 25 %). One allocation per message would add
// 10 240, so a timer, closure or copy creeping back into the per-message
// path fails here and not only in the benchmark.
func TestLiveRunAllocBudget(t *testing.T) {
	const n, budget = 32, 2670
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / float64(n-1)
	}
	var messages int64
	allocs := testing.AllocsPerRun(3, func() {
		procs := crashProcs(t, n, 10, inputs)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := Run(ctx, procs, Options{MaxJitter: 200 * time.Microsecond, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		messages = res.Messages
	})
	if allocs > budget {
		t.Errorf("n=%d run of %d messages: %v allocs, budget %d", n, messages, allocs, budget)
	}
	t.Logf("n=%d run of %d messages: %v allocs", n, messages, allocs)
}
