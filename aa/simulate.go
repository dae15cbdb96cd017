package aa

import (
	"fmt"
	"sort"

	"repro/internal/core"
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

// simSettings records what the options name: a registry scheduler token
// (or a whole scenario) plus explicit fault overrides. lower turns it into
// the run.
type simSettings struct {
	seed      int64
	scheduler string
	overrides harness.Overrides
	maxEvents int
	scenario  *scenario.Spec
	reliable  bool
}

// SimOption customizes Simulate.
type SimOption func(*simSettings) error

// WithSeed fixes the run's randomness (default 1).
func WithSeed(seed int64) SimOption {
	return func(s *simSettings) error {
		s.seed = seed
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
		s.overrides.Crashes = append(s.overrides.Crashes, sim.CrashPlan{
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
		if kind, ok := scenario.Fault(behavior); !ok || kind.Behavior == nil {
			return fmt.Errorf("aa: unknown byzantine behavior %q", behavior)
		}
		ref := harness.ByzRef{Party: sim.PartyID(party), Name: behavior}
		for i, z := range s.overrides.Byz {
			if z.Party == ref.Party {
				s.overrides.Byz[i] = ref
				return nil
			}
		}
		s.overrides.Byz = append(s.overrides.Byz, ref)
		return nil
	}
}

// WithMaxEvents overrides the runaway-execution budget, which by default
// grows with the run's size and round count.
func WithMaxEvents(n int) SimOption {
	return func(s *simSettings) error {
		s.maxEvents = n
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
		s.reliable = true
		return nil
	}
}

// WithScenario configures the adversary from a declarative scenario spec
// string — scheduler, crash plans, and Byzantine assignments in one value,
// e.g. "skew+equivocate/n=64,t=9" (see internal/scenario for the registry
// and grammar). The spec's n must match the config's N; a spec that omits
// t inherits the protocol's fault bound. It replaces WithScheduler.
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

// newSettings applies the options over the defaults.
func newSettings(opts []SimOption) (*simSettings, error) {
	s := &simSettings{seed: 1, scheduler: SchedRandom}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// lower turns the options into an executable spec: the WithScenario spec,
// or the WithScheduler token at (N, T), through harness.Lower with the
// explicit overrides — the one lowering every run the CLIs build takes.
func (s *simSettings) lower(c Config, p core.Params, inputs []float64) (harness.Spec, error) {
	scen := scenario.Spec{Sched: s.scheduler, N: c.N, T: c.T}
	if s.scenario != nil {
		if s.scenario.N != c.N {
			return harness.Spec{}, fmt.Errorf("aa: scenario is for n=%d but config has N=%d", s.scenario.N, c.N)
		}
		scen = *s.scenario
	}
	spec, err := harness.Lower(p, inputs, scen, s.seed, s.overrides)
	if err != nil {
		return harness.Spec{}, err
	}
	spec.MaxEvents = s.maxEvents
	spec.Reliable = s.reliable
	return spec, nil
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
	p, err := c.params()
	if err != nil {
		return nil, err
	}
	settings, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	spec, err := settings.lower(c, p, inputs)
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
