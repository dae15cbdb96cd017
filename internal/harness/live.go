package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/livenet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// LowerLive lowers the recipe for the goroutine runtime (livenet) without
// building a process: the simulator spec its parties are built from (its
// Params, Inputs, Byz and Reliable), the options the recipe fixes (Seed,
// Sched, Restarts, and WaitFor the honest count), and the judged parties,
// the honest ones that Judge holds to the guarantees. Callers layer the
// wall-clock options on top; livenet's Tick turns the recipe's ticks into
// wall time. Sched is the spec's scheduler, so every scheduler and network
// axis runs as it does in the simulator, except that the base token
// "random" lowers as "sync:1", a unit delay, because livenet's jitter is
// the benign random delay; "recover" and "amnesia" also run as livenet's
// Restarts, and Byzantine tokens and Overrides.Byz as their behaviors,
// outside the hull and the judged set. Reliable wraps the honest parties in
// relnet, as the simulator does. "random:ARG" and crash plans ("crash",
// "crashinit", Overrides.Crashes) are errors naming them. MaxEvents does
// not apply.
func (r Recipe) LowerLive() (spec Spec, opts livenet.Options, judged []sim.PartyID, err error) {
	scen, err := scenario.Parse(r.Scenario)
	if err != nil {
		return spec, opts, nil, err
	}
	if strings.HasPrefix(scen.Sched, "random:") {
		return spec, opts, nil, fmt.Errorf("harness: the live runtime cannot run scheduler %q; it runs random as its jitter", scen.Sched)
	}
	for _, tok := range scen.Faults {
		if kind, _ := scenario.Fault(tok); kind.Crash != nil {
			return spec, opts, nil, fmt.Errorf("harness: the live runtime cannot run fault %q", tok)
		}
	}
	live := scen
	if scen.Sched == "random" {
		live.Sched = "sync:1"
	}
	spec, err = r.LowerAt(live)
	switch {
	case err != nil:
		// Name the recipe's own scenario in the error, not its live form:
		// the two differ only in a base scheduler that always builds, so
		// they fail alike.
		_, err = r.LowerAt(scen)
	case len(spec.Crashes) > 0: // the tokens are checked above
		err = fmt.Errorf("harness: the live runtime cannot run crash plans (Overrides.Crashes)")
	case len(r.Inputs) != spec.Params.N:
		err = fmt.Errorf("harness: %d inputs for %d parties", len(r.Inputs), spec.Params.N)
	}
	if err == nil {
		_, err = behaviorEnv(spec.Params)
	}
	if err != nil {
		return spec, opts, nil, err
	}
	for i := range r.Inputs {
		if _, isByz := spec.Byz[sim.PartyID(i)]; !isByz {
			judged = append(judged, sim.PartyID(i))
		}
	}
	opts.Seed, opts.Sched, opts.Restarts, opts.WaitFor = r.Seed, spec.Scheduler.Scheduler, spec.Restarts, len(judged)
	return spec, opts, judged, nil
}

// RunLive runs the recipe once on the goroutine runtime and judges the
// decisions: the one live runner behind aa.RunLive, aarun -live and the
// serving tier's live backend. jitter and tick are livenet's MaxJitter and
// Tick, layered on what LowerLive fixes (zero selects livenet's defaults).
// The parties come from a pooled run context, built the way a simulated
// run builds them, and the context goes back to the pool only once
// livenet.Run has returned, when none of their goroutines is left. The
// result and error are livenet.Run's: on livenet.ErrTimeout the result is
// the partial progress and the verdict judges it. A nil result comes with
// the error that prevented the run.
func (r Recipe) RunLive(ctx context.Context, jitter, tick time.Duration) (*livenet.Result, Verdict, error) {
	spec, opts, judged, err := r.LowerLive()
	if err != nil {
		return nil, Verdict{}, err
	}
	opts.MaxJitter, opts.Tick = jitter, tick
	c := ctxPool.Get().(*RunContext)
	procs, err := c.liveProcs(spec)
	var res *livenet.Result
	if err == nil {
		res, err = livenet.Run(ctx, procs, opts)
	}
	ctxPool.Put(c)
	if res == nil {
		return nil, Verdict{}, err
	}
	return res, Judge(r.Inputs, spec.Byz, judged, res.Decisions, r.Eps), err
}

// liveProcs builds the processes of a live run of spec on the context: the
// Byzantine ones renewed from its pool and the honest ones reset (and
// wrapped in its pooled relnet transports), as run builds them. The slice
// is the context's and valid until its next use.
func (c *RunContext) liveProcs(spec Spec) ([]sim.Process, error) {
	env, err := behaviorEnv(spec.Params)
	if err != nil {
		return nil, err
	}
	c.renewByz(spec.Byz, env)
	c.relUsed = 0
	c.live = c.live[:0]
	for i, x := range spec.Inputs {
		proc, isByz := c.byz[sim.PartyID(i)]
		if !isByz {
			if proc, err = c.honest(spec.Params, i, x, spec.Reliable); err != nil {
				return nil, fmt.Errorf("harness: party %d: %w", i, err)
			}
		}
		c.live = append(c.live, proc)
	}
	return c.live, nil
}
