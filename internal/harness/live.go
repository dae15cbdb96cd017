package harness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/livenet"
	"repro/internal/relnet"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// darkness is a network-fault axis that darkens parties for windows of
// ticks (fault.Flap, fault.Outage).
type darkness interface {
	Dark(sim.PartyID, sim.Time) bool
}

// Live turns the recipe into a run of the goroutine runtime (livenet): the
// parties' processes, the options the recipe fixes (Seed, Loss, Dup, Dark,
// Restarts, and WaitFor the honest count), and the Byzantine and judged
// parties that Judge takes. Callers layer the wall-clock options on top;
// livenet's Tick turns the recipe's ticks into wall time. The "random"
// scheduler runs as livenet's jitter, "loss:P" and "dup:P" as its Loss and
// Dup, "flap" and "outage" as its Dark predicate, "recover" and "amnesia"
// as its Restarts, and Byzantine tokens and Overrides.Byz as their
// behaviors, outside the hull and the judged set. Reliable wraps the
// honest parties in relnet, as the simulator does. Any other token is an
// error naming it (other schedulers and crash plans). MaxEvents does not
// apply.
func (r Recipe) Live() (procs []sim.Process, opts livenet.Options, byz map[sim.PartyID]fault.Behavior, judged []sim.PartyID, err error) {
	scen, err := scenario.Parse(r.Scenario)
	if err != nil {
		return nil, opts, nil, nil, err
	}
	if scen.Sched != "random" {
		return nil, opts, nil, nil, fmt.Errorf("harness: the live runtime cannot run scheduler %q; it runs random as its jitter", scen.Sched)
	}
	var dark []darkness
	for _, tok := range scen.Faults {
		name, arg, _ := strings.Cut(tok, ":")
		kind, _ := scenario.Fault(name)
		if kind.Behavior != nil || kind.Restart != nil {
			continue // the spec's Byzantine parties and restart plans
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
		case darkness: // flap, outage
			dark = append(dark, a)
		default:
			return nil, opts, nil, nil, fmt.Errorf("harness: the live runtime cannot run fault %q", tok)
		}
	}
	spec, err := r.LowerAt(scen)
	switch {
	case err != nil:
	case len(spec.Crashes) > 0: // the tokens are checked above
		err = fmt.Errorf("harness: the live runtime cannot run crash plans (Overrides.Crashes)")
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
		if r.Reliable {
			procs[i] = relnet.Wrap(procs[i])
		}
		judged = append(judged, sim.PartyID(i))
	}
	if len(dark) > 0 {
		opts.Dark = func(p sim.PartyID, at sim.Time) bool {
			return slices.ContainsFunc(dark, func(d darkness) bool { return d.Dark(p, at) })
		}
	}
	opts.Seed, opts.Restarts, opts.WaitFor = r.Seed, spec.Restarts, len(judged)
	return procs, opts, spec.Byz, judged, nil
}
