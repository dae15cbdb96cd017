// Package harness assembles protocols, scenarios, and input generators
// into runnable experiments, judges every run, and implements the
// experiment drivers (E1–E13 in DESIGN.md) behind cmd/aabench and the root
// benchmark suite.
//
// There is one run verdict, Judge: validity (every judged output inside
// the hull of the non-Byzantine inputs) and ε-agreement, with one float
// slack. Simulated runs (Report.check), vector runs (RunVector, once per
// coordinate) and live runs (Recipe.RunLive) all go through it.
//
// Adversary wiring is declarative: drivers enumerate scenario.Spec values
// (internal/scenario) and lower them to executable Specs with SpecFrom;
// the scenario registry owns every scheduler parameterization, crash
// schedule, and Byzantine behavior the drivers used to hand-roll. A single
// run named in that vocabulary is a Recipe: aafuzz's violations, aaserve's
// failure artifacts, aarun's runs and recordings and the incident corpus
// all write one, and aa builds one. Recipe.Lower (LowerAt, for a parsed
// scenario) turns a recipe into a simulator Spec, and Recipe.LowerLive
// into a goroutine-runtime run, naming any token that runtime cannot run;
// Recipe.RunLive runs that on parties from the run-context pool.
//
// Experiments run on an Engine (pool.go), which every driver takes as its
// first argument: drivers enumerate their independent simulation runs as
// []Spec and submit them via Engine.RunAll (or mapOrdered for non-Spec
// work), which fans them across Engine.Workers goroutines and returns
// results in spec order. Aggregation happens strictly after the barrier,
// in index order, so the rendered tables are byte-identical at any worker
// count, and in the production and the reference configuration alike.
package harness

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/relnet"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Spec describes one execution.
type Spec struct {
	// Params are the protocol parameters (shared by all parties).
	Params core.Params
	// Inputs holds one input per party, indexed by PartyID. Entries for
	// Byzantine parties are ignored.
	Inputs []float64
	// Scheduler orders deliveries.
	Scheduler sched.Named
	// Crashes and Byz assign faults; together they must not exceed
	// Params.T (checked).
	Crashes []sim.CrashPlan
	Byz     map[sim.PartyID]fault.Behavior
	// Restarts lists crash-recovery episodes (scenario recover/amnesia
	// axes). Restart parties stay honest — they must re-decide after the
	// rollback — so they occupy no fault slot here either.
	Restarts []sim.RestartPlan
	// Seed drives all randomness in the run.
	Seed int64
	// RecordTrajectory enables diameter-over-time sampling.
	RecordTrajectory bool
	// Observer, when non-nil, sees every delivery (before the trajectory
	// sampler). The core-equivalence tests use it to record full traces.
	// In production a dense tick's callbacks replay at tick end in
	// delivery order, so an observer reading live protocol state sees
	// end-of-tick state; the callback sequence itself is identical to the
	// reference configuration's.
	Observer func(now sim.Time, env sim.Envelope)
	// MaxEvents is the run's event budget; 0 derives one from the run's
	// shape (rounds, n, protocol, transport).
	MaxEvents int
	// Reliable wraps every honest party in the ack/retransmit transport
	// (internal/relnet): payloads are framed, retransmitted with backoff
	// until acked, and deduplicated on receive — the configuration that
	// survives the lossy-network scenario axes (loss/dup/outage/flap).
	// Byzantine parties stay raw (an adversary owes no acks).
	Reliable bool
	// allowOverfault disables the faults<=T guard; only the resilience
	// overload experiment sets it, to demonstrate what breaks past the
	// bound.
	allowOverfault bool
}

// TrajPoint is one sample of the honest-value diameter over virtual time.
type TrajPoint struct {
	Time     sim.Time
	Diameter float64
}

// Report is the checked outcome of one run.
type Report struct {
	Result *sim.Result
	// RunErr is the simulator's verdict (nil, ErrStalled, ErrEventBudget).
	RunErr error
	// ProtoErrs collects internal protocol errors per party.
	ProtoErrs []error
	// Verdict judges the non-faulty parties (Result.Honest).
	Verdict
	// Trajectory holds diameter samples if requested.
	Trajectory []TrajPoint
	// Transport aggregates the reliable-transport counters (retransmits,
	// acks, dedup suppressions, give-ups) across the honest parties when
	// the spec ran with Reliable set; zero otherwise.
	Transport relnet.Stats
	// Checkpoints holds one content digest per snapshot the run's restart
	// plans took, in firing order (empty without a restart axis). Replays
	// compare them to pin checkpoint bytes across recorded incidents.
	Checkpoints []uint64
}

// OK reports overall success: live, valid, and ε-agreed.
func (r *Report) OK() bool {
	return r.RunErr == nil && len(r.ProtoErrs) == 0 && r.ValidityOK && r.AgreementOK
}

// Failure summarizes what went wrong, for test messages.
func (r *Report) Failure() string {
	switch {
	case r.RunErr != nil:
		return fmt.Sprintf("run error: %v", r.RunErr)
	case len(r.ProtoErrs) > 0:
		return fmt.Sprintf("protocol error: %v", r.ProtoErrs[0])
	case !r.ValidityOK:
		return fmt.Sprintf("validity violated: outputs %v outside hull [%v, %v]",
			r.Result.HonestDecisions(), r.HullLo, r.HullHi)
	case !r.AgreementOK:
		return fmt.Sprintf("agreement violated: spread %v > eps", r.FinalSpread)
	default:
		return "ok"
	}
}

// errTooManyFaults guards the spec.
var errTooManyFaults = errors.New("harness: fault assignments exceed params.T")

// SpecFrom lowers a declarative scenario to an executable Spec. A scenario
// with an unset fault bound inherits the protocol's T. Resolution happens
// here, per spec — stateful schedulers (fifo) are never shared across runs.
func SpecFrom(p core.Params, inputs []float64, scen scenario.Spec, seed int64) (Spec, error) {
	res, err := scen.WithT(p.T).Resolve()
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Params:    p,
		Inputs:    inputs,
		Scheduler: res.Scheduler,
		Crashes:   res.Crashes,
		Byz:       res.Byz,
		Restarts:  res.Restarts,
		Seed:      seed,
	}, nil
}

// ByzRef names one explicit Byzantine assignment by its scenario-registry
// behavior key (e.g. "extreme").
type ByzRef struct {
	Party sim.PartyID
	Name  string
}

// Overrides are explicit fault assignments that replace a scenario's
// party-fault derivation: aa's WithCrash/WithByzantine, aarun's -crash and
// -byz, and the protocol fuzzer's random crash timings, which registry
// fault kinds cannot express.
type Overrides struct {
	Crashes []sim.CrashPlan
	Byz     []ByzRef
}

// apply replaces the crash plans and Byzantine assignments that lowering
// scen gave spec with the overrides, once they pass their checks: no
// party-fault tokens in scen, at most t faults, parties in range and
// assigned at most once, crash budgets non-negative, and Byzantine names
// the registry knows as behaviors. Network and restart axes compose freely
// with overrides (a party overlap with a restart plan is caught by
// sim.Config at run time).
func (o Overrides) apply(spec *Spec, scen scenario.Spec) error {
	for _, f := range scen.Faults {
		if !scenario.SlotFree(f) {
			return fmt.Errorf("harness: scenario %q carries party-fault tokens alongside explicit fault overrides", scen)
		}
	}
	n, t := spec.Params.N, spec.Params.T
	if len(o.Crashes)+len(o.Byz) > t {
		return fmt.Errorf("harness: %d explicit faults exceed t=%d", len(o.Crashes)+len(o.Byz), t)
	}
	seen := make(map[sim.PartyID]bool, len(o.Crashes)+len(o.Byz))
	claim := func(kind string, p sim.PartyID) error {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("harness: %s party %d out of range [0,%d)", kind, p, n)
		}
		if seen[p] {
			return fmt.Errorf("harness: party %d assigned two faults", p)
		}
		seen[p] = true
		return nil
	}
	for _, c := range o.Crashes {
		if err := claim("crash", c.Party); err != nil {
			return err
		}
		if c.AfterSends < 0 {
			return fmt.Errorf("harness: crash party %d has negative send budget", c.Party)
		}
	}
	spec.Crashes, spec.Byz = append([]sim.CrashPlan(nil), o.Crashes...), nil
	for _, z := range o.Byz {
		if err := claim("byzantine", z.Party); err != nil {
			return err
		}
		kind, ok := scenario.Fault(z.Name)
		if !ok || kind.Behavior == nil {
			return fmt.Errorf("harness: unknown byzantine behavior %q", z.Name)
		}
		if spec.Byz == nil {
			spec.Byz = make(map[sim.PartyID]fault.Behavior, len(o.Byz))
		}
		spec.Byz[z.Party] = kind.Behavior
	}
	return nil
}

// Recipe names one run in the scenario registry's vocabulary. It is what
// every failing-run producer writes (aafuzz, aaserve -artifacts, aarun
// -record and the incident corpus, whose bundles embed it) and what aa,
// aarun and serve run: Lower turns it into a simulator Spec, Live into a
// goroutine-runtime run.
type Recipe struct {
	// Scenario is the canonical scenario.Spec string with explicit n and
	// t, e.g. "splitviews/n=16,t=7" or "skew+spam/n=15,t=2".
	Scenario string
	// Protocol is the protocol token (see core.Protocol.Token).
	Protocol string
	// Adaptive selects adaptive termination.
	Adaptive bool
	// Eps, Lo, Hi are the precision and promised input range.
	Eps, Lo, Hi float64
	// ExtraRounds adds round-budget slack.
	ExtraRounds int
	// Seed drives all run randomness.
	Seed int64
	// MaxEvents is the event budget; 0 derives one from the run's shape.
	MaxEvents int
	// Inputs holds one input per party.
	Inputs []float64
	// Overrides, when non-empty, replace the scenario's party faults (the
	// protocol fuzzer's random crash timings, aarun's -crash and -byz); the
	// scenario string must then carry no party-fault tokens.
	Overrides Overrides
	// Reliable wraps honest parties in the ack/retransmit transport.
	Reliable bool
}

// Lower turns the recipe into an executable Spec: it parses the scenario
// and lowers it with LowerAt.
func (r Recipe) Lower() (Spec, error) {
	scen, err := scenario.Parse(r.Scenario)
	if err != nil {
		return Spec{}, err
	}
	return r.LowerAt(scen)
}

// LowerAt lowers the recipe at scen, which its caller has already parsed
// (aa.Simulate parses its WithScenario spec once), in place of
// r.Scenario. scen must carry an explicit t. Non-empty overrides replace
// the scenario's crash plans and Byzantine assignments.
func (r Recipe) LowerAt(scen scenario.Spec) (Spec, error) {
	if scen.T == scenario.TUnset {
		return Spec{}, fmt.Errorf("harness: scenario %q must carry an explicit t", scen)
	}
	proto, err := core.ParseProtocol(r.Protocol)
	if err != nil {
		return Spec{}, err
	}
	p := core.Params{
		Protocol: proto, N: scen.N, T: scen.T,
		Eps: r.Eps, Lo: r.Lo, Hi: r.Hi,
		Adaptive: r.Adaptive, ExtraRounds: r.ExtraRounds,
	}
	if err := p.Validate(); err != nil {
		return Spec{}, err
	}
	if r.MaxEvents < 0 {
		return Spec{}, fmt.Errorf("harness: negative event budget %d", r.MaxEvents)
	}
	spec, err := SpecFrom(p, r.Inputs, scen, r.Seed)
	if err != nil {
		return Spec{}, err
	}
	spec.MaxEvents = r.MaxEvents
	spec.Reliable = r.Reliable
	if o := r.Overrides; len(o.Crashes)+len(o.Byz) > 0 {
		if err := o.apply(&spec, scen); err != nil {
			return Spec{}, err
		}
	}
	return spec, nil
}

// check fills the run's verdict.
func (r *Report) check(spec Spec) {
	r.Verdict = Judge(spec.Inputs, spec.Byz, r.Result.Honest, r.Result.Decisions, spec.Params.Eps)
}

// Verdict is one run judged against the paper's two guarantees.
type Verdict struct {
	// HullLo and HullHi bound the non-Byzantine inputs: the validity hull.
	HullLo, HullHi float64
	// InitialSpread and FinalSpread are the diameters of the judged
	// parties' inputs and outputs (FinalSpread is 0 below two outputs).
	InitialSpread, FinalSpread float64
	// ValidityOK reports that every judged party decided inside the hull.
	ValidityOK bool
	// AgreementOK reports FinalSpread <= ε.
	AgreementOK bool
}

// Judge is the one verdict of every simulated, vector and live run.
// inputs holds one input per party; the hull leaves out only the Byzantine
// inputs (a crashed party never lied). judged lists the fault-free parties
// held to the guarantees; one that has no output fails validity. Both
// checks allow the float slack 1e-9·max(1, |HullLo|, |HullHi|). Judge
// allocates nothing: the recycled run path calls it once per run.
func Judge(inputs []float64, byz map[sim.PartyID]fault.Behavior, judged []sim.PartyID, outputs map[sim.PartyID]float64, eps float64) Verdict {
	v := Verdict{HullLo: math.Inf(1), HullHi: math.Inf(-1), ValidityOK: true}
	for i, x := range inputs {
		if _, isByz := byz[sim.PartyID(i)]; !isByz {
			v.HullLo, v.HullHi = min(v.HullLo, x), max(v.HullHi, x)
		}
	}
	tol := 1e-9 * max(1, math.Abs(v.HullLo), math.Abs(v.HullHi))
	inLo, inHi, outLo, outHi := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	decided := 0
	for _, id := range judged {
		inLo, inHi = min(inLo, inputs[id]), max(inHi, inputs[id])
		y, ok := outputs[id]
		if !ok || y < v.HullLo-tol || y > v.HullHi+tol {
			v.ValidityOK = false
		}
		if ok {
			outLo, outHi = min(outLo, y), max(outHi, y)
			decided++
		}
	}
	if len(judged) > 0 {
		v.InitialSpread = inHi - inLo
	}
	if decided > 1 {
		v.FinalSpread = outHi - outLo
	}
	v.AgreementOK = v.FinalSpread <= eps+tol
	return v
}

// behaviorEnv derives what Byzantine behaviors are told about the run.
func behaviorEnv(p core.Params) (fault.Env, error) {
	env := fault.Env{N: p.N, Lo: p.Lo, Hi: p.Hi}
	if p.Adaptive {
		// Behaviors still need a horizon to script against; give them a
		// generous one.
		env.Rounds = 128
		return env, nil
	}
	r, err := p.FixedRounds()
	if err != nil {
		return env, err
	}
	env.Rounds = r
	return env, nil
}

func isCrashPlanned(crashes []sim.CrashPlan, id sim.PartyID) bool {
	for _, c := range crashes {
		if c.Party == id {
			return true
		}
	}
	return false
}

// honestDiameter computes the diameter of the current estimates.
func honestDiameter(est []sim.Estimator) (float64, bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	any := false
	for _, e := range est {
		v, ok := e.Estimate()
		if !ok {
			continue
		}
		any = true
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if !any {
		return 0, false
	}
	return hi - lo, true
}

// --- Input generators ---

// LinearInputs spreads n inputs evenly across [lo, hi] in party order. The
// interpolation is clamped: lo + (hi−lo)·1.0 can exceed hi by one ulp in
// floating point, which a protocol's range check rightly rejects (found by
// the fuzz harness).
func LinearInputs(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = lo
		return out
	}
	for i := range out {
		v := lo + (hi-lo)*float64(i)/float64(n-1)
		out[i] = math.Min(math.Max(v, lo), hi)
	}
	return out
}

// BimodalInputs gives the low half of the parties lo and the high half hi —
// the worst case for the split-views scheduler.
func BimodalInputs(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i >= n/2 {
			out[i] = hi
		} else {
			out[i] = lo
		}
	}
	return out
}

// UniformInputs draws n inputs uniformly from [lo, hi]: the Float64 stream
// of math/rand's NewSource(seed). Its source lives on the stack, so the
// output slice is the one allocation.
func UniformInputs(n int, lo, hi float64, seed int64) []float64 {
	var src rng.Source
	src.Seed(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + src.Float64()*(hi-lo)
	}
	return out
}

// OutlierInputs puts one party at lo and everyone else at hi: the spread is
// carried by a single party, the hardest case for adaptive estimation.
func OutlierInputs(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = hi
	}
	if n > 0 {
		out[0] = lo
	}
	return out
}
