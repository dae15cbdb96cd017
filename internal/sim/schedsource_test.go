package sim_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// These tests pin the scheduler source's first-draw seeding with the
// registry's own schedulers: Reset only records the seed, so runs under
// schedulers that never draw leave the source unseeded, and runs under
// schedulers that draw see exactly the stream of rand.NewSource(seed),
// whatever earlier runs on the same Network drew.

// chatter multicasts a greeting in Init and answers every greeting with one
// reply to its sender, so the scheduler decides sends at time zero and at
// later ticks. It never decides: a run ends with ErrStalled once the
// network has nothing left to deliver.
type chatter struct{ api sim.API }

func (c *chatter) Init(api sim.API) { c.api = api; api.Multicast([]byte{1}) }

func (c *chatter) Deliver(from sim.PartyID, data []byte) {
	if data[0] == 1 {
		c.api.Send(from, []byte{2})
	}
}

// runChatter resets net to n chatter parties under scheduler and runs it.
func runChatter(t *testing.T, net *sim.Network, n int, seed int64, scheduler sim.Scheduler) *sim.Result {
	t.Helper()
	if err := net.Reset(sim.Config{N: n, Scheduler: scheduler, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := net.SetProcess(sim.PartyID(i), &chatter{}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := net.Run()
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("run error %v, want ErrStalled", err)
	}
	return res
}

// newNetwork builds a one-party network for runChatter to reset.
func newNetwork(t *testing.T) *sim.Network {
	t.Helper()
	net, err := sim.New(sim.Config{N: 1, Scheduler: sched.NewSynchronous(1)})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSchedSourceUnseededWithoutDraws runs every suite scheduler that never
// draws, on a fresh Network and on one whose source an earlier random run
// built: the source must stay unbuilt on the first and unseeded on both.
func TestSchedSourceUnseededWithoutDraws(t *testing.T) {
	const n = 7
	fresh, used := newNetwork(t), newNetwork(t)
	for _, name := range scenario.SuiteSchedulers() {
		if name == "random" {
			continue
		}
		runChatter(t, fresh, n, 11, resolve(t, name, n))
		if built, seeded := sim.SchedSourceState(fresh); built || seeded {
			t.Errorf("%s on a fresh network: source built %v, seeded %v; want neither", name, built, seeded)
		}
		runChatter(t, used, n, 11, &sched.UniformRandom{Min: 1, Max: 10})
		if built, seeded := sim.SchedSourceState(used); !built || !seeded {
			t.Fatalf("random run left the source built %v, seeded %v", built, seeded)
		}
		runChatter(t, used, n, 12, resolve(t, name, n))
		if _, seeded := sim.SchedSourceState(used); seeded {
			t.Errorf("%s after a random run: source seeded", name)
		}
	}
}

// sendLog wraps a scheduler and records every envelope and fate it sees.
type sendLog struct {
	inner sim.Scheduler
	envs  []sim.Envelope
	fates []sim.Fate
}

func (l *sendLog) Fate(env *sim.Envelope, rng *rand.Rand) sim.Fate {
	f := l.inner.Fate(env, rng)
	e := *env
	e.Data = append([]byte(nil), env.Data...)
	l.envs, l.fates = append(l.envs, e), append(l.fates, f)
	return f
}

// resolve builds a fresh instance of a registry scheduler with its network
// faults, such as "random+loss:0.1", at n parties.
func resolve(t *testing.T, sched string, n int) sim.Scheduler {
	t.Helper()
	spec, err := scenario.Parse(fmt.Sprintf("%s/n=%d,t=%d", sched, n, (n-1)/3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return res.Scheduler.Scheduler
}

// TestSchedSourceDrawsMatchFresh runs drawing registry schedulers on one
// recycled Network through changes of seed and N. Every run's fates must
// be those a fresh instance of the scheduler decides for the same sends
// from a source built by rand.NewSource(seed).
func TestSchedSourceDrawsMatchFresh(t *testing.T) {
	runs := []struct {
		n    int
		seed int64
	}{{4, 5}, {7, 9}, {7, 9}, {3, 2}, {7, 9}}
	for _, token := range []string{"random", "heavytail", "random+loss:0.1+dup:0.05"} {
		net := newNetwork(t)
		for i, r := range runs {
			log := &sendLog{inner: resolve(t, token, r.n)}
			res := runChatter(t, net, r.n, r.seed, log)
			if len(log.envs) != res.Stats.MessagesSent || len(log.envs) <= r.n*r.n {
				t.Fatalf("%s run %d: %d fates for %d sends", token, i, len(log.envs), res.Stats.MessagesSent)
			}
			oracle, rng := resolve(t, token, r.n), rand.New(rand.NewSource(r.seed))
			for k := range log.envs {
				if want := oracle.Fate(&log.envs[k], rng); log.fates[k] != want {
					t.Fatalf("%s run %d (n=%d, seed=%d) send %d: fate %+v, fresh source gives %+v",
						token, i, r.n, r.seed, k, log.fates[k], want)
				}
			}
		}
	}
}
