package sim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/multiset"
)

// constDelay is a trivial scheduler for tests.
type constDelay struct{ d Time }

func (c constDelay) Fate(*Envelope, *rand.Rand) Fate { return Fate{Delay: c.d} }

// echoProc decides after receiving a fixed number of messages; on Init it
// multicasts one greeting.
type echoProc struct {
	api     API
	need    int
	got     int
	decided float64
}

func (p *echoProc) Init(api API) {
	p.api = api
	api.Multicast([]byte{1})
}

func (p *echoProc) Deliver(from PartyID, data []byte) {
	p.got++
	if p.got >= p.need {
		p.api.Decide(float64(p.api.ID()))
	}
}

func newEchoNet(t *testing.T, n int, cfgMut func(*Config)) (*Network, []*echoProc) {
	t.Helper()
	cfg := Config{N: n, Scheduler: constDelay{d: 5}, Seed: 1}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*echoProc, n)
	for i := 0; i < n; i++ {
		if _, isByz := cfg.Byzantine[PartyID(i)]; isByz {
			continue
		}
		procs[i] = &echoProc{need: n}
		if err := net.SetProcess(PartyID(i), procs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return net, procs
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero parties", Config{N: 0, Scheduler: constDelay{1}}},
		{"nil scheduler", Config{N: 3}},
		{"crash out of range", Config{N: 3, Scheduler: constDelay{1}, Crashes: []CrashPlan{{Party: 3}}}},
		{"negative budget", Config{N: 3, Scheduler: constDelay{1}, Crashes: []CrashPlan{{Party: 0, AfterSends: -1}}}},
		{"double fault", Config{N: 3, Scheduler: constDelay{1},
			Crashes:   []CrashPlan{{Party: 0, AfterSends: 1}},
			Byzantine: map[PartyID]Process{0: &echoProc{}}}},
		{"byz out of range", Config{N: 3, Scheduler: constDelay{1},
			Byzantine: map[PartyID]Process{5: &echoProc{}}}},
		{"nil byz process", Config{N: 3, Scheduler: constDelay{1},
			Byzantine: map[PartyID]Process{1: nil}}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	good := Config{N: 3, Scheduler: constDelay{1},
		Crashes:   []CrashPlan{{Party: 0, AfterSends: 2}},
		Byzantine: map[PartyID]Process{1: &echoProc{}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestAllHonestDecide(t *testing.T) {
	net, _ := newEchoNet(t, 4, nil)
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 4 {
		t.Fatalf("got %d decisions, want 4", len(res.Decisions))
	}
	for id, v := range res.Decisions {
		if v != float64(id) {
			t.Errorf("party %d decided %v", id, v)
		}
	}
	if res.MaxHonestDelay != 5 {
		t.Errorf("MaxHonestDelay = %d, want 5", res.MaxHonestDelay)
	}
	// Every delivery happens at time 5 (one hop), so rounds = 1.
	if r := res.Rounds(); r != 1 {
		t.Errorf("Rounds = %v, want 1", r)
	}
	if res.Stats.MessagesSent != 16 {
		t.Errorf("MessagesSent = %d, want 16 (4 multicasts of 4)", res.Stats.MessagesSent)
	}
	if res.Stats.BytesSent != 16 {
		t.Errorf("BytesSent = %d, want 16", res.Stats.BytesSent)
	}
}

func TestCrashTruncatesMulticast(t *testing.T) {
	// Party 0 may send only 2 of its 4 multicast messages: recipients 0 and
	// 1 get the greeting, 2 and 3 never do, so they stall at need=4.
	net, _ := newEchoNet(t, 4, func(cfg *Config) {
		cfg.Crashes = []CrashPlan{{Party: 0, AfterSends: 2}}
	})
	res, err := net.Run()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if _, ok := res.Decisions[2]; ok {
		t.Error("party 2 decided despite missing a message")
	}
	// Exactly 2 + 3*4 = 14 messages were sent.
	if res.Stats.MessagesSent != 14 {
		t.Errorf("MessagesSent = %d, want 14", res.Stats.MessagesSent)
	}
}

func TestCrashedPartyStopsReceiving(t *testing.T) {
	counts := make([]int, 3)
	net, err := New(Config{N: 3, Scheduler: constDelay{1}, Seed: 1,
		Crashes: []CrashPlan{{Party: 0, AfterSends: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		i := i
		var api API
		if err := net.SetProcess(PartyID(i), &funcProc{
			init: func(a API) { api = a; a.Multicast([]byte{7}) },
			deliver: func(PartyID, []byte) {
				counts[i]++
				if counts[i] == 2 { // greetings from the two live parties
					api.Decide(0)
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 {
		t.Errorf("crashed party received %d deliveries, want 0", counts[0])
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Errorf("live parties received %d/%d, want >0", counts[1], counts[2])
	}
}

// funcProc adapts closures to Process.
type funcProc struct {
	init    func(API)
	deliver func(PartyID, []byte)
	timer   func(uint64)
}

func (f *funcProc) Init(api API) {
	if f.init != nil {
		f.init(api)
	}
}

func (f *funcProc) Deliver(from PartyID, data []byte) {
	if f.deliver != nil {
		f.deliver(from, data)
	}
}

func (f *funcProc) OnTimer(tag uint64) {
	if f.timer != nil {
		f.timer(tag)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := Config{N: 5, Scheduler: &randomSched{}, Seed: 77}
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := net.SetProcess(PartyID(i), &echoProc{need: 5}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinishTime != b.FinishTime || a.Stats != b.Stats {
		t.Errorf("nondeterministic executions: %+v vs %+v", a, b)
	}
}

type randomSched struct{}

func (randomSched) Fate(_ *Envelope, rng *rand.Rand) Fate {
	return Fate{Delay: Time(rng.Int63n(20) + 1)}
}

func TestDelayClamping(t *testing.T) {
	// Scheduler returning absurd delays gets clamped into [1, MaxDelayCap].
	net, err := New(Config{N: 2, Scheduler: constDelay{d: -100}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := net.SetProcess(PartyID(i), &echoProc{need: 2}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxHonestDelay != 1 {
		t.Errorf("negative delay not clamped to 1: %d", res.MaxHonestDelay)
	}

	net2, err := New(Config{N: 2, Scheduler: constDelay{d: MaxDelayCap * 10}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := net2.SetProcess(PartyID(i), &echoProc{need: 2}); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := net2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.MaxHonestDelay != MaxDelayCap {
		t.Errorf("oversized delay not clamped to cap: %d", res2.MaxHonestDelay)
	}
}

func TestTimer(t *testing.T) {
	var fired []uint64
	net, err := New(Config{N: 1, Scheduler: constDelay{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	proc := &funcProc{}
	proc.init = func(api API) {
		api.SetTimer(10, 1)
		api.SetTimer(5, 2)
	}
	proc.timer = func(tag uint64) {
		fired = append(fired, tag)
		if len(fired) == 2 {
			// Timers fire in time order: 2 (t=5) before 1 (t=10).
			net.parties[0].Decide(0)
		}
	}
	if err := net.SetProcess(0, proc); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 1 {
		t.Errorf("timer order = %v, want [2 1]", fired)
	}
}

func TestEventBudget(t *testing.T) {
	// Two processes ping-pong forever; the budget must stop them.
	mk := func() Process {
		return &funcProc{
			init:    func(api API) { api.Multicast([]byte{0}) },
			deliver: func(from PartyID, _ []byte) {},
		}
	}
	pingPong := &funcProc{}
	var api0 API
	pingPong.init = func(api API) { api0 = api; api.Send(1, []byte{0}) }
	pingPong.deliver = func(PartyID, []byte) { api0.Send(1, []byte{0}) }
	pong := &funcProc{}
	var api1 API
	pong.init = func(api API) { api1 = api }
	pong.deliver = func(PartyID, []byte) { api1.Send(0, []byte{0}) }

	net, err := New(Config{N: 2, Scheduler: constDelay{1}, Seed: 1, MaxEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetProcess(0, pingPong); err != nil {
		t.Fatal(err)
	}
	if err := net.SetProcess(1, pong); err != nil {
		t.Fatal(err)
	}
	_ = mk
	if _, err := net.Run(); !errors.Is(err, ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

func TestStallWhenNoTraffic(t *testing.T) {
	net, err := New(Config{N: 2, Scheduler: constDelay{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := net.SetProcess(PartyID(i), &funcProc{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(); !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestSetProcessErrors(t *testing.T) {
	net, err := New(Config{N: 2, Scheduler: constDelay{1}, Seed: 1,
		Byzantine: map[PartyID]Process{1: &echoProc{}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetProcess(5, &echoProc{}); err == nil {
		t.Error("out-of-range party accepted")
	}
	if err := net.SetProcess(1, &echoProc{}); err == nil {
		t.Error("byzantine party process overwrite accepted")
	}
	if err := net.SetProcess(0, nil); err == nil {
		t.Error("nil process accepted")
	}
	if _, err := net.Run(); err == nil {
		t.Error("run with missing process accepted")
	}
}

func TestObserverAndNow(t *testing.T) {
	net, _ := newEchoNet(t, 3, nil)
	var observed int
	var lastTime Time
	net.SetObserver(func(now Time, env Envelope) {
		observed++
		if now < lastTime {
			t.Error("time went backwards")
		}
		lastTime = now
		if net.Now() != now {
			t.Error("Now() disagrees with observer time")
		}
	})
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if observed != res.Stats.MessagesDelivered {
		t.Errorf("observer saw %d deliveries, stats say %d", observed, res.Stats.MessagesDelivered)
	}
}

func TestDecideIdempotent(t *testing.T) {
	net, err := New(Config{N: 1, Scheduler: constDelay{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetProcess(0, &funcProc{init: func(api API) {
		api.Decide(1)
		api.Decide(2) // ignored
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[0] != 1 {
		t.Errorf("decision = %v, want first value 1", res.Decisions[0])
	}
}

func TestHonestSpreadAndDecisions(t *testing.T) {
	res := &Result{
		Decisions: map[PartyID]float64{0: 3, 1: 1, 2: 5, 3: 100},
		Honest:    []PartyID{0, 1, 2},
	}
	d := res.HonestDecisions()
	if len(d) != 3 || d[0] != 1 || d[2] != 5 {
		t.Errorf("HonestDecisions = %v", d)
	}
	if s := multiset.Spread(d); s != 4 {
		t.Errorf("honest spread = %v, want 4", s)
	}
	empty := &Result{Decisions: map[PartyID]float64{}, Honest: []PartyID{0}}
	if d := empty.HonestDecisions(); len(d) != 0 || multiset.Spread(d) != 0 {
		t.Errorf("empty honest decisions %v", d)
	}
}

func TestByzantinePartyRuns(t *testing.T) {
	// The byzantine replacement process runs and can disturb the others,
	// but its faulty stats are separated.
	byz := &funcProc{init: func(api API) {
		api.Multicast([]byte{9, 9, 9})
	}}
	net, err := New(Config{N: 3, Scheduler: constDelay{1}, Seed: 1,
		Byzantine: map[PartyID]Process{2: byz}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := net.SetProcess(PartyID(i), &echoProc{need: 3}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Honest) != 2 {
		t.Errorf("Honest = %v, want [0 1]", res.Honest)
	}
	if res.Stats.HonestMessagesSent != 6 {
		t.Errorf("HonestMessagesSent = %d, want 6", res.Stats.HonestMessagesSent)
	}
	if res.Stats.MessagesSent != 9 {
		t.Errorf("MessagesSent = %d, want 9", res.Stats.MessagesSent)
	}
}

func TestHeapOrdering(t *testing.T) {
	var h eventHeap
	times := []Time{9, 3, 7, 3, 1, 8, 1}
	for i, at := range times {
		h.Push(at, uint64(i), tickEntry{ref: uint64(i)})
	}
	var got []Time
	var seqs []uint64
	for h.Len() > 0 {
		e := h.Pop()
		got = append(got, e.at)
		seqs = append(seqs, e.seq)
	}
	want := []Time{1, 1, 3, 3, 7, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap order %v, want %v", got, want)
		}
	}
	// Equal times pop in send order (seq): the two at=1 events are seqs 4,6
	// and the two at=3 events are seqs 1,3.
	if seqs[0] != 4 || seqs[1] != 6 || seqs[2] != 1 || seqs[3] != 3 {
		t.Errorf("tiebreak order %v", seqs)
	}
}
