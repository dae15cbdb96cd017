// Package harness assembles protocols, scenarios, and input generators
// into runnable experiments, checks the agreement/validity invariants
// after every run, and implements the experiment drivers (E1–E13 in
// DESIGN.md) behind cmd/aabench and the root benchmark suite.
//
// Adversary wiring is declarative: drivers enumerate scenario.Spec values
// (internal/scenario) and lower them to executable Specs with SpecFrom;
// the scenario registry owns every scheduler parameterization, crash
// schedule, and Byzantine behavior the drivers used to hand-roll.
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
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/relnet"
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
	// MaxEvents overrides the simulator's default event budget.
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
	// HullLo and HullHi bound the non-Byzantine inputs: the validity hull.
	HullLo, HullHi float64
	// InitialSpread is the diameter of the non-faulty inputs.
	InitialSpread float64
	// FinalSpread is the diameter of the non-faulty outputs.
	FinalSpread float64
	// ValidityOK reports whether every honest output is inside the hull.
	ValidityOK bool
	// AgreementOK reports whether FinalSpread <= eps (with float slack).
	AgreementOK bool
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

// check fills the invariant verdicts. It is allocation-free: the spreads
// are single min/max passes (matching multiset.Spread and the sorted-
// decisions diameter exactly), part of the recycled hot path's zero-alloc
// steady-state budget.
func (r *Report) check(spec Spec) {
	p := spec.Params
	// Validity hull: inputs of every non-Byzantine party. Crashed parties
	// never lie, so their inputs legitimately enter the computation.
	r.HullLo, r.HullHi = math.Inf(1), math.Inf(-1)
	for i := 0; i < p.N; i++ {
		if _, isByz := spec.Byz[sim.PartyID(i)]; isByz {
			continue
		}
		v := spec.Inputs[i]
		r.HullLo = math.Min(r.HullLo, v)
		r.HullHi = math.Max(r.HullHi, v)
	}
	r.InitialSpread = 0
	var inLo, inHi float64
	for k, id := range r.Result.Honest {
		v := spec.Inputs[id]
		if k == 0 {
			inLo, inHi = v, v
		} else {
			if v < inLo {
				inLo = v
			}
			if v > inHi {
				inHi = v
			}
		}
	}
	if len(r.Result.Honest) > 0 {
		r.InitialSpread = inHi - inLo
	}
	r.FinalSpread = r.Result.HonestSpread()

	tol := 1e-9 * math.Max(1, math.Max(math.Abs(r.HullLo), math.Abs(r.HullHi)))
	r.ValidityOK = true
	for _, id := range r.Result.Honest {
		y, ok := r.Result.Decisions[id]
		if !ok {
			r.ValidityOK = false
			continue
		}
		if y < r.HullLo-tol || y > r.HullHi+tol {
			r.ValidityOK = false
		}
	}
	r.AgreementOK = r.FinalSpread <= p.Eps+tol
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

// inputRngPool recycles UniformInputs' sources: reseeding a pooled source
// yields the stream a fresh one would, without allocating the ~5 KB
// rngSource on every call.
var inputRngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// UniformInputs draws n inputs uniformly from [lo, hi].
func UniformInputs(n int, lo, hi float64, seed int64) []float64 {
	rng := inputRngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + rng.Float64()*(hi-lo)
	}
	inputRngPool.Put(rng)
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

// SortedCopy is a convenience for tests.
func SortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}
