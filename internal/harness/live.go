package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/livenet"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Live turns the recipe into a run of the goroutine runtime (livenet): the
// parties' processes, the options the recipe fixes (Seed, Loss, Dup,
// Reliable, and WaitFor the honest count), and the Byzantine and judged
// parties that Judge takes. Callers layer the wall-clock options on top.
// The "random" scheduler runs as livenet's jitter, "loss:P" and "dup:P" as
// its Loss and Dup, and Byzantine tokens and Overrides.Byz as their
// behaviors, outside the hull and the judged set. Any other token is an
// error naming it (other schedulers, crash plans, outage, flap, recover,
// amnesia), as is Reliable beside a Byzantine party, because livenet wraps
// every party. MaxEvents does not apply.
func (r Recipe) Live() (procs []sim.Process, opts livenet.Options, byz map[sim.PartyID]fault.Behavior, judged []sim.PartyID, err error) {
	scen, err := scenario.Parse(r.Scenario)
	if err != nil {
		return nil, opts, nil, nil, err
	}
	if scen.Sched != "random" {
		return nil, opts, nil, nil, fmt.Errorf("harness: the live runtime cannot run scheduler %q; it runs random as its jitter", scen.Sched)
	}
	for _, tok := range scen.Faults {
		name, arg, _ := strings.Cut(tok, ":")
		kind, _ := scenario.Fault(name)
		if kind.Behavior != nil {
			continue
		}
		var axis sim.Scheduler
		if kind.Net != nil {
			axis, _ = kind.Net(scen.N, scen.T, arg, nil) // Parse has checked arg
		}
		// Repeated axes compose as the simulator's layers do.
		switch a := axis.(type) {
		case *sched.Loss:
			opts.Loss = 1 - (1-opts.Loss)*(1-a.P)
		case *sched.Dup:
			opts.Dup = 1 - (1-opts.Dup)*(1-a.P)
		default:
			return nil, opts, nil, nil, fmt.Errorf("harness: the live runtime cannot run fault %q", tok)
		}
	}
	spec, err := r.LowerAt(scen)
	switch {
	case err != nil:
	case len(spec.Crashes) > 0: // the tokens are checked above
		err = fmt.Errorf("harness: the live runtime cannot run crash plans (Overrides.Crashes)")
	case r.Reliable && len(spec.Byz) > 0:
		err = fmt.Errorf("harness: the live runtime cannot run Reliable beside a Byzantine party")
	case len(r.Inputs) != spec.Params.N:
		err = fmt.Errorf("harness: %d inputs for %d parties", len(r.Inputs), spec.Params.N)
	}
	if err != nil {
		return nil, opts, nil, nil, err
	}
	env, err := behaviorEnv(spec.Params)
	if err != nil {
		return nil, opts, nil, nil, err
	}
	procs = make([]sim.Process, len(r.Inputs))
	for i := range procs {
		if b, ok := spec.Byz[sim.PartyID(i)]; ok {
			procs[i] = b.New(env)
			continue
		}
		if procs[i], err = core.NewProcess(spec.Params, r.Inputs[i]); err != nil {
			return nil, opts, nil, nil, fmt.Errorf("harness: party %d: %w", i, err)
		}
		judged = append(judged, sim.PartyID(i))
	}
	opts.Seed, opts.Reliable, opts.WaitFor = r.Seed, r.Reliable, len(judged)
	return procs, opts, spec.Byz, judged, nil
}
