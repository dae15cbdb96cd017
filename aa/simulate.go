package aa

import (
	"fmt"
	"sort"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Outcome is the checked result of a simulated or live execution.
type Outcome struct {
	// Values maps party index to its output, for every party that decided.
	Values map[int]float64
	// Spread is the diameter of the non-faulty outputs.
	Spread float64
	// Agreed reports Spread <= Epsilon.
	Agreed bool
	// Valid reports that every non-faulty party decided, inside the hull
	// [lo, hi] of the non-Byzantine inputs; a non-faulty party that never
	// decided (a stalled or timed-out run) makes it false. Valid and
	// Agreed both allow the one float slack 1e-9·max(1, |lo|, |hi|), the
	// same for simulated, vector and live runs.
	Valid bool
	// Rounds is the asynchronous round complexity of the execution (time
	// of last output over maximum honest delay); zero for live runs.
	Rounds float64
	// Messages and Bytes count everything sent during the run.
	Messages, Bytes int
	// Dropped and Duped count messages the network's loss/duplication
	// axes removed or repeated; zero unless the run injected them.
	Dropped, Duped int
	// Retransmits counts reliable-transport retransmissions; zero unless
	// the run used the reliable transport (WithReliable / LiveOptions).
	Retransmits int
	// Err carries a liveness failure (stall / event-budget / timeout), if
	// any. A live timeout still fills the rest of the Outcome with the
	// partial progress made before the deadline.
	Err error
}

// OK reports full success: live, valid, and ε-agreed.
func (o *Outcome) OK() bool { return o.Err == nil && o.Agreed && o.Valid }

// SortedValues returns the decided values in ascending order.
func (o *Outcome) SortedValues() []float64 {
	out := make([]float64, 0, len(o.Values))
	for _, v := range o.Values {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// Scheduler names accepted by WithScheduler: the standard suite's keys in
// the scenario registry (internal/scenario), which accepts every other
// registered scheduler and ":<arg>" form too.
const (
	SchedSynchronous = "sync"
	SchedRandom      = "random"
	SchedSkew        = "skew"
	SchedPartition   = "partition"
	SchedSplitViews  = "splitviews"
	SchedStaggered   = "staggered"
)

// Behavior names accepted by WithByzantine: the scenario registry's
// Byzantine fault keys.
const (
	ByzSilent     = "silent"
	ByzExtreme    = "extreme"
	ByzEquivocate = "equivocate"
	ByzSpam       = "spam"
	ByzAmplifier  = "amplifier"
)

// simSettings is what the options name: the run's recipe, less its
// scenario, plus a registry scheduler token or a whole scenario.
type simSettings struct {
	harness.Recipe
	scheduler string
	scenario  *scenario.Spec
}

// SimOption customizes Simulate.
type SimOption func(*simSettings) error

// WithSeed fixes the run's randomness (default 1).
func WithSeed(seed int64) SimOption {
	return func(s *simSettings) error {
		s.Seed = seed
		return nil
	}
}

// WithScheduler picks the adversarial scheduler by scenario-registry key
// (default SchedRandom), optionally with its ":<arg>" parameter, e.g.
// "sync:5" or "heavytail:1.5". It builds exactly what the same key builds
// in a WithScenario spec.
func WithScheduler(name string) SimOption {
	return func(s *simSettings) error {
		if err := scenario.CheckScheduler(name); err != nil {
			return fmt.Errorf("aa: %w", err)
		}
		s.scheduler = name
		return nil
	}
}

// WithCrash makes a party crash after it has performed the given number of
// point-to-point sends (a multicast counts as n sends, so a crash can
// truncate one part-way).
func WithCrash(party, afterSends int) SimOption {
	return func(s *simSettings) error {
		s.Overrides.Crashes = append(s.Overrides.Crashes, sim.CrashPlan{
			Party:      sim.PartyID(party),
			AfterSends: afterSends,
		})
		return nil
	}
}

// WithByzantine replaces a party with the Byzantine behavior the scenario
// registry registers under the given key (the Byz* constants); a later
// assignment to the same party replaces an earlier one.
func WithByzantine(party int, behavior string) SimOption {
	return func(s *simSettings) error {
		ref := harness.ByzRef{Party: sim.PartyID(party), Name: behavior}
		for i, z := range s.Overrides.Byz {
			if z.Party == ref.Party {
				s.Overrides.Byz[i] = ref
				return nil
			}
		}
		s.Overrides.Byz = append(s.Overrides.Byz, ref)
		return nil
	}
}

// WithMaxEvents overrides the runaway-execution budget, which by default
// grows with the run's size and round count.
func WithMaxEvents(n int) SimOption {
	return func(s *simSettings) error {
		s.MaxEvents = n
		return nil
	}
}

// WithReliable wraps every honest party in the ack/retransmit transport
// (internal/relnet): sequence-numbered frames, exponential-backoff
// retransmission, and receive-side dedup. This is what lets a run survive
// the lossy scenario axes ("loss:P", "outage:…", "flap:…") that stall the
// raw transport; without those axes it only adds framing overhead.
func WithReliable() SimOption {
	return func(s *simSettings) error {
		s.Reliable = true
		return nil
	}
}

// WithScenario configures the adversary from a declarative scenario spec
// string — scheduler, crash plans, and Byzantine assignments in one value,
// e.g. "skew+equivocate/n=64,t=9" (see internal/scenario for the registry
// and grammar). The spec's n, and its t if it names one, must match the
// config's N and T; a spec that omits t inherits T. It replaces
// WithScheduler.
// WithCrash and WithByzantine still apply on top as explicit overrides,
// which the spec may combine only with network and restart axes.
func WithScenario(raw string) SimOption {
	return func(s *simSettings) error {
		spec, err := scenario.Parse(raw)
		if err != nil {
			return err
		}
		s.scenario = &spec
		return nil
	}
}

// recipe describes a run of c on inputs as a harness.Recipe, with no
// scenario, seed or transport yet.
func (c Config) recipe(inputs []float64) (harness.Recipe, error) {
	proto, err := c.Model.protocol()
	return harness.Recipe{
		Protocol: proto.Token(), Adaptive: c.Adaptive, Eps: c.Epsilon, Lo: c.Lo, Hi: c.Hi,
		ExtraRounds: c.ExtraRounds, Inputs: inputs,
	}, err
}

// lower applies the options over the defaults (seed 1, the random
// scheduler) to c's recipe and lowers it at the WithScenario spec, or at
// the WithScheduler token at (N, T).
func lower(c Config, inputs []float64, opts []SimOption) (harness.Spec, error) {
	r, err := c.recipe(inputs)
	if err != nil {
		return harness.Spec{}, err
	}
	s := &simSettings{Recipe: r, scheduler: SchedRandom}
	s.Seed = 1
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return harness.Spec{}, err
		}
	}
	scen := scenario.Spec{Sched: s.scheduler, N: c.N, T: c.T}
	if s.scenario != nil {
		if scen = s.scenario.WithT(c.T); scen.N != c.N || scen.T != c.T {
			return harness.Spec{}, fmt.Errorf("aa: scenario is for n=%d, t=%d but config has N=%d, T=%d", scen.N, scen.T, c.N, c.T)
		}
	}
	return s.LowerAt(scen)
}

// Simulate runs one execution on the deterministic discrete-event simulator
// and checks the agreement and validity invariants. inputs must hold one
// value per party (entries for Byzantine parties are ignored).
//
// Repeated calls are cheap: the execution runs on a recycled harness run
// context (simulator, protocol state, and broadcast slabs are reset in
// place rather than rebuilt), so parameter sweeps over Simulate pay
// steady-state construction costs near zero. Results are identical to
// fresh construction — the outcome is a pure function of the Config,
// inputs, and options.
func Simulate(c Config, inputs []float64, opts ...SimOption) (*Outcome, error) {
	spec, err := lower(c, inputs, opts)
	if err != nil {
		return nil, err
	}
	rep, err := harness.Run(spec)
	if err != nil {
		return nil, err
	}
	out := outcome(rep.Verdict, rep.Result.Decisions)
	out.Rounds = rep.Result.Rounds()
	out.Messages, out.Bytes = rep.Result.Stats.MessagesSent, rep.Result.Stats.BytesSent
	out.Dropped, out.Duped = int(rep.Result.Stats.MessagesDropped), int(rep.Result.Stats.MessagesDuped)
	out.Retransmits = int(rep.Transport.Retransmits)
	out.Err = rep.RunErr
	if out.Err == nil && len(rep.ProtoErrs) > 0 {
		out.Err = rep.ProtoErrs[0]
	}
	return out, nil
}

// outcome carries a run's verdict and decisions into an Outcome.
func outcome(v harness.Verdict, decisions map[sim.PartyID]float64) *Outcome {
	out := &Outcome{Values: make(map[int]float64, len(decisions)),
		Spread: v.FinalSpread, Agreed: v.AgreementOK, Valid: v.ValidityOK}
	for id, y := range decisions {
		out.Values[int(id)] = y
	}
	return out
}
