package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
)

// The crash-recovery axis: "recover:k:down:lag" crashes the LAST k fault
// slots (parties t-k..t-1) at virtual time down, losing everything newer
// than a checkpoint taken lag ticks earlier, and rejoins them after a
// fixed darkness window; "amnesia:k:down" is the same episode recovering
// from the zero checkpoint (post-Init state). Like the lossy-network
// axes, restart tokens occupy no fault slot and are rng-free; unlike
// them, they both wrap the scheduler (a fault.Outage over the darkness
// window, so a downed party's traffic is actually lost) and contribute
// sim.RestartPlans (so its state is actually rolled back).

// restartDarkLen is the rejoin delay: the darkness window is
// [down, down+restartDarkLen), long enough that an ack/retransmit
// transport's give-up horizon (relnet baseRTO backoff) has retries left
// when the party comes back.
const restartDarkLen sim.Time = 64

// darknessFor wraps the scheduler with the outage window implied by a
// restart axis: every planned party is dark from its crash to its rejoin.
// Plans share one window and target a contiguous party range by
// construction (the builders place them at t-k..t-1).
func darknessFor(inner sim.Scheduler, plans []sim.RestartPlan) sim.Scheduler {
	lo, hi := plans[0].Party, plans[0].Party
	start, end := plans[0].Down, plans[0].Rejoin
	for _, p := range plans[1:] {
		if p.Party < lo {
			lo = p.Party
		}
		if p.Party > hi {
			hi = p.Party
		}
		if p.Down < start {
			start = p.Down
		}
		if p.Rejoin > end {
			end = p.Rejoin
		}
	}
	return &fault.Outage{Inner: inner, First: lo, Last: hi, Start: start, Len: end - start}
}

// buildRecover parses "k:down:lag" (or "k:down" in amnesia form, which
// always recovers from the zero checkpoint) and lays the plans over the
// last k fault slots.
func buildRecover(name string, amnesia bool) func(n, t int, arg string) ([]sim.RestartPlan, error) {
	return func(n, t int, arg string) ([]sim.RestartPlan, error) {
		if t < 1 {
			return nil, fmt.Errorf("scenario: %s needs at least one fault slot (t >= 1)", name)
		}
		k, down, lag := 1, sim.Time(400), sim.Time(100)
		if arg != "" {
			parts := strings.Split(arg, ":")
			want := 3
			if amnesia {
				want = 2
			}
			if len(parts) != want {
				return nil, fmt.Errorf("scenario: %s argument %q (want %s)", name, arg, map[bool]string{true: "k:down", false: "k:down:lag"}[amnesia])
			}
			kk, err := strconv.Atoi(parts[0])
			if err != nil || kk < 1 {
				return nil, fmt.Errorf("scenario: %s party count %q (want >= 1)", name, parts[0])
			}
			dn, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil || dn < 1 || sim.Time(dn) > sim.MaxDelayCap {
				return nil, fmt.Errorf("%w: %s down time %q (want 1 <= down <= %d)", ErrBadWindow, name, parts[1], sim.MaxDelayCap)
			}
			k, down = kk, sim.Time(dn)
			if !amnesia {
				lg, err := strconv.ParseInt(parts[2], 10, 64)
				if err != nil || lg < 0 {
					return nil, fmt.Errorf("scenario: %s checkpoint lag %q (want >= 0)", name, parts[2])
				}
				lag = sim.Time(lg)
			}
		}
		if k > t {
			return nil, fmt.Errorf("scenario: %s recovers %d parties but only %d fault slots exist", name, k, t)
		}
		ckpt := down - lag
		if amnesia || ckpt < 0 {
			ckpt = 0
		}
		plans := make([]sim.RestartPlan, 0, k)
		for i := 0; i < k; i++ {
			plans = append(plans, sim.RestartPlan{
				Party:      sim.PartyID(t - k + i),
				Checkpoint: ckpt,
				Down:       down,
				Rejoin:     down + restartDarkLen,
			})
		}
		return plans, nil
	}
}
