package sim

import (
	"strings"
	"testing"

	"repro/internal/frame"
)

// rollProc is a minimal checkpointable process: it sums received bytes and
// decides once the sum reaches need. Rejoin re-multicasts its greeting, the
// idempotent catch-up a real protocol performs.
type rollProc struct {
	api  API
	sum  int
	need int
}

func (p *rollProc) Init(api API) {
	p.api = api
	api.Multicast([]byte{1})
}

func (p *rollProc) Deliver(from PartyID, data []byte) {
	p.sum += int(data[0])
	if p.sum >= p.need {
		p.api.Decide(float64(p.sum))
	}
}

// rollFormat frames rollProc's snapshots.
var rollFormat = frame.Format{Magic: "ROLL", Version: 1, SealHeader: true}

func (p *rollProc) Snapshot(buf []byte) ([]byte, error) {
	buf = rollFormat.Begin(buf, rollFormat.Version)
	buf = frame.AppendVarint(buf, int64(p.sum))
	return rollFormat.Seal(buf), nil
}

func (p *rollProc) Restore(data []byte) error {
	d, _, err := rollFormat.Open(data)
	if err != nil {
		return err
	}
	p.sum = int(d.Varint())
	return d.Done()
}

func (p *rollProc) Rejoin() { p.api.Multicast([]byte{1}) }

// restartRun executes three rollProc parties where party 0 checkpoints at
// t=0, crashes at t=2, and rejoins at t=4, in the reference configuration
// or in production.
func restartRun(t *testing.T, reference bool) (*Network, *Result) {
	t.Helper()
	cfg := Config{
		N:         3,
		Scheduler: constDelay{1},
		Reference: reference,
		Restarts:  []RestartPlan{{Party: 0, Checkpoint: 0, Down: 2, Rejoin: 4}},
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Party 0 decides on any delivery; the others need the rejoin traffic
	// on top of the initial burst, so the run stalls without the restart.
	n.SetProcess(0, &rollProc{need: 1})
	n.SetProcess(1, &rollProc{need: 4})
	n.SetProcess(2, &rollProc{need: 4})
	res, err := n.Run()
	if err != nil {
		t.Fatalf("run (reference=%v): %v", reference, err)
	}
	return n, res
}

func TestRestartRevivesAndRollsBack(t *testing.T) {
	for _, reference := range []bool{true, false} {
		n, res := restartRun(t, reference)
		if len(res.Decisions) != 3 {
			t.Fatalf("reference=%v: %d decisions, want 3", reference, len(res.Decisions))
		}
		// Party 0 decided sum=3 at t=1, was un-decided by the crash, and
		// re-decided after the rollback with sum=1: the decision value
		// proves the restore ran (an un-restored party would report 4).
		if res.Decisions[0] != 1 {
			t.Errorf("reference=%v: party 0 decision %v, want 1 (rolled-back sum)", reference, res.Decisions[0])
		}
		if res.DecidedAt[0] != 5 {
			t.Errorf("reference=%v: party 0 re-decided at t=%d, want 5", reference, res.DecidedAt[0])
		}
		if res.Decisions[1] != 4 || res.Decisions[2] != 4 {
			t.Errorf("reference=%v: peer decisions %v %v, want 4 4", reference, res.Decisions[1], res.Decisions[2])
		}
		if res.FinishTime != 5 {
			t.Errorf("reference=%v: finish time %d, want 5", reference, res.FinishTime)
		}
		dg := n.CheckpointDigests()
		if len(dg) != 1 || dg[0] == 0 {
			t.Errorf("reference=%v: digests %v, want one nonzero entry", reference, dg)
		}
	}
}

func TestRestartDigestsDeterministic(t *testing.T) {
	n1, _ := restartRun(t, true)
	n2, _ := restartRun(t, false)
	d1, d2 := n1.CheckpointDigests(), n2.CheckpointDigests()
	if len(d1) != 1 || len(d2) != 1 || d1[0] != d2[0] {
		t.Errorf("digest streams differ between reference and production: %v vs %v", d1, d2)
	}
}

func TestRestartRequiresSnapshotter(t *testing.T) {
	cfg := Config{
		N:         2,
		Scheduler: constDelay{1},
		Restarts:  []RestartPlan{{Party: 0, Checkpoint: 0, Down: 2, Rejoin: 4}},
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// echoProc does not implement the snapshotter extension.
	n.SetProcess(0, &echoProc{need: 100})
	n.SetProcess(1, &echoProc{need: 100})
	if _, err := n.Run(); err == nil || !strings.Contains(err.Error(), "checkpointing") {
		t.Fatalf("run with un-checkpointable process: %v", err)
	}
}

func TestRestartConfigValidate(t *testing.T) {
	base := func() Config {
		return Config{
			N:         4,
			Scheduler: constDelay{1},
			Restarts:  []RestartPlan{{Party: 1, Checkpoint: 1, Down: 5, Rejoin: 9}},
		}
	}
	good := base()
	if err := good.Validate(); err != nil {
		t.Fatalf("good restart config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"party out of range", func(c *Config) { c.Restarts[0].Party = 4 }},
		{"negative party", func(c *Config) { c.Restarts[0].Party = -1 }},
		{"down before checkpoint", func(c *Config) { c.Restarts[0].Down = 0 }},
		{"rejoin not after down", func(c *Config) { c.Restarts[0].Rejoin = 5 }},
		{"two plans one party", func(c *Config) {
			c.Restarts = append(c.Restarts, RestartPlan{Party: 1, Checkpoint: 0, Down: 2, Rejoin: 3})
		}},
		{"restart overlaps crash", func(c *Config) {
			c.Crashes = []CrashPlan{{Party: 1, AfterSends: 3}}
		}},
		{"restart overlaps byzantine", func(c *Config) {
			c.Byzantine = map[PartyID]Process{1: &echoProc{need: 1}}
		}},
	}
	for _, tc := range cases {
		c := base()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// A restart axis left empty must not change the run at all; the recycled
// network must also behave identically after a restart-bearing run.
func TestRestartResetRecycles(t *testing.T) {
	n, first := restartRun(t, true)
	// Re-run the same config on the recycled network.
	cfg := n.cfg
	if err := n.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	n.SetProcess(0, &rollProc{need: 1})
	n.SetProcess(1, &rollProc{need: 4})
	n.SetProcess(2, &rollProc{need: 4})
	res, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishTime != first.FinishTime || res.Decisions[0] != first.Decisions[0] {
		t.Errorf("recycled run diverged: finish %d vs %d, decision %v vs %v",
			res.FinishTime, first.FinishTime, res.Decisions[0], first.Decisions[0])
	}
	// Dropping the restart axis on the recycled network must clear the
	// plan state: the run now stalls (need=4 is unreachable).
	cfg.Restarts = nil
	if err := n.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	n.SetProcess(0, &rollProc{need: 1})
	n.SetProcess(1, &rollProc{need: 4})
	n.SetProcess(2, &rollProc{need: 4})
	if _, err := n.Run(); err != ErrStalled {
		t.Fatalf("restart-free recycled run: %v, want ErrStalled", err)
	}
	if len(n.CheckpointDigests()) != 0 {
		t.Error("digest log not cleared by Reset")
	}
}
