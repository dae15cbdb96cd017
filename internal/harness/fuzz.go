package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzViolation is the structured record of one failed trial: the recipe
// of the run that failed (cmd/aafuzz captures it as an incident bundle,
// the repro artifact). Protocol-fuzzer recipes name their scheduler with
// a fault-free scenario and carry the random crash timings and Byzantine
// assignments as overrides, which registry fault kinds cannot express;
// scenario-fuzzer recipes carry the whole composition in the scenario.
type FuzzViolation struct {
	Trial   int
	Desc    string
	Failure string
	Recipe  Recipe
}

// FuzzResult summarizes a randomized adversarial search.
type FuzzResult struct {
	// Trials is the number of executions performed.
	Trials int
	// Violations describes every invariant violation found (empty on a
	// healthy protocol suite).
	Violations []string
	// Failures carries the structured form of Violations, index-aligned.
	Failures []FuzzViolation
	// ByProtocol counts trials per protocol.
	ByProtocol map[string]int
	// Rounds and Messages summarize the per-trial execution costs.
	Rounds, Messages trace.Summary
}

// Fuzz runs `trials` randomized executions: random protocol, random legal
// (n, t), random scheduler parameters, random crash timings and Byzantine
// behavior assignments, random input shapes — asserting the liveness,
// validity, and ε-agreement invariants on each. It is the search a
// reviewer would run overnight; the unit suite runs a small budget.
//
// Adaptive-mode ε-agreement is conditional by design (DESIGN.md), so
// adaptive trials assert only liveness and validity.
func Fuzz(trials int, seed int64) (*FuzzResult, error) {
	rng := rand.New(rng.New(seed))
	res := &FuzzResult{ByProtocol: map[string]int{}}
	var rounds, messages []float64
	for i := 0; i < trials; i++ {
		r, desc := randomRecipe(rng)
		spec, err := r.Lower()
		if err != nil {
			return res, fmt.Errorf("fuzz trial %d (%s): %w", i, desc, err)
		}
		rep, err := Run(spec)
		if err != nil {
			return res, fmt.Errorf("fuzz trial %d (%s): %w", i, desc, err)
		}
		res.Trials++
		res.ByProtocol[spec.Params.Protocol.String()]++
		rounds = append(rounds, rep.Result.Rounds())
		messages = append(messages, float64(rep.Result.Stats.MessagesSent))
		bad := false
		if rep.RunErr != nil || len(rep.ProtoErrs) > 0 || !rep.ValidityOK {
			bad = true
		}
		if !r.Adaptive && !rep.AgreementOK {
			bad = true
		}
		if bad {
			res.Violations = append(res.Violations,
				fmt.Sprintf("trial %d: %s: %s", i, desc, rep.Failure()))
			res.Failures = append(res.Failures, FuzzViolation{Trial: i, Desc: desc, Failure: rep.Failure(), Recipe: r})
		}
	}
	res.Rounds = trace.Summarize(rounds)
	res.Messages = trace.Summarize(messages)
	return res, nil
}

// randomRecipe draws one legal adversarial configuration, named by the
// scenario registry, with a one-line description.
func randomRecipe(rng *rand.Rand) (Recipe, string) {
	protos := []core.Protocol{core.ProtoCrash, core.ProtoCrash, core.ProtoByzTrim, core.ProtoWitness}
	proto := protos[rng.Intn(len(protos))]
	var t, slack int
	switch proto {
	case core.ProtoCrash:
		t, slack = 1+rng.Intn(4), 4
	case core.ProtoByzTrim:
		t, slack = 1+rng.Intn(2), 3
	default:
		t, slack = 1+rng.Intn(3), 3
	}
	n := core.MinN(proto, t) + rng.Intn(slack)
	adaptive := proto == core.ProtoCrash && rng.Intn(4) == 0
	lo := -100 + 200*rng.Float64()
	hi := lo + 200*rng.Float64() + 1e-6
	eps := []float64{1e-1, 1e-2, 1e-3}[rng.Intn(3)]

	var inputs []float64
	inputKind := rng.Intn(4)
	switch inputKind {
	case 0:
		inputs = LinearInputs(n, lo, hi)
	case 1:
		inputs = BimodalInputs(n, lo, hi)
	case 2:
		inputs = OutlierInputs(n, lo, hi)
	default:
		inputs = UniformInputs(n, lo, hi, rng.Int63())
	}

	// The heavytail token carries its alpha ("heavytail:<alpha>") so it
	// resolves through the registry to the drawn distribution; FormatFloat
	// 'g'/-1 round-trips the float exactly.
	alpha := 1.2 + rng.Float64()
	scheds := append(scenario.SuiteSchedulers(), "heavytail:"+strconv.FormatFloat(alpha, 'g', -1, 64))
	tok := scheds[rng.Intn(len(scheds))]
	seed := rng.Int63()

	var o Overrides
	var faults []string
	budget := rng.Intn(t + 1)
	if proto == core.ProtoCrash {
		for i := 0; i < budget; i++ {
			after := rng.Intn(4 * n * 3)
			o.Crashes = append(o.Crashes, sim.CrashPlan{
				Party:      sim.PartyID(i),
				AfterSends: after,
			})
			faults = append(faults, fmt.Sprintf("crash%d@%d", i, after))
		}
	} else {
		byz := scenario.ByzSuite()
		for i := 0; i < budget; i++ {
			name := byz[rng.Intn(len(byz))]
			o.Byz = append(o.Byz, ByzRef{Party: sim.PartyID(i), Name: name})
			faults = append(faults, fmt.Sprintf("byz%d:%s", i, name))
		}
	}
	desc := fmt.Sprintf("%s n=%d t=%d eps=%g adaptive=%v sched=%s inputs=%d faults=[%s] seed=%d",
		proto, n, t, eps, adaptive, tok, inputKind, strings.Join(faults, ","), seed)
	return Recipe{
		Scenario:  scenario.Spec{Sched: tok, N: n, T: t}.String(),
		Protocol:  proto.Token(),
		Adaptive:  adaptive,
		Eps:       eps,
		Lo:        lo,
		Hi:        hi,
		Seed:      seed,
		Inputs:    inputs,
		Overrides: o,
	}, desc
}

// ScenarioFuzzResult summarizes a scenario-layer fuzz campaign: the
// registry contracts (parse → re-parse round-trips, invalid compositions
// rejected at spec time) plus end-to-end runs of randomly composed valid
// scenarios.
type ScenarioFuzzResult struct {
	// Registry carries the pure spec-lifecycle statistics.
	Registry scenario.FuzzStats
	// Runs counts scenarios executed end-to-end; Violations lists every
	// invariant violation (empty on a healthy tree).
	Runs       int
	Violations []string
	// Failures carries the structured form of Violations, index-aligned;
	// each recipe's scenario is the full composition.
	Failures []FuzzViolation
}

// FuzzScenarios fuzzes the scenario layer. Phase one drives random (often
// invalid) compositions through Parse/String/Validate/Resolve and fails on
// any contract break — this is what guarantees a bad scenario dies at spec
// time, never mid-run. Phase two composes random valid scenarios over the
// full registry, pairs each with a protocol that tolerates its fault mix
// at the fault bound, runs it, and asserts liveness, validity, and
// ε-agreement, exactly like the protocol fuzzer.
func FuzzScenarios(trials int, seed int64) (*ScenarioFuzzResult, error) {
	stats, err := scenario.Fuzz(trials, seed)
	res := &ScenarioFuzzResult{Registry: *stats}
	if err != nil {
		return res, err
	}
	rng := rand.New(rng.New(seed ^ 0x5CE9A410))
	for i := 0; i < trials/4; i++ {
		p, scen, reliable := randomRunnableScenario(rng)
		r := Recipe{
			Scenario: scen.String(),
			Protocol: p.Protocol.Token(),
			Eps:      p.Eps,
			Lo:       p.Lo,
			Hi:       p.Hi,
			Seed:     rng.Int63(),
			Inputs:   LinearInputs(p.N, p.Lo, p.Hi),
			Reliable: reliable,
		}
		spec, err := r.Lower()
		if err != nil {
			// A composition that passed scenario.Validate must lower
			// cleanly; anything else is a registry/harness contract break.
			return res, fmt.Errorf("scenario %s failed to lower: %w", scen, err)
		}
		rep, err := Run(spec)
		if err != nil {
			return res, fmt.Errorf("scenario %s failed to run: %w", scen, err)
		}
		res.Runs++
		if !rep.OK() {
			res.Violations = append(res.Violations,
				fmt.Sprintf("scenario %s seed=%d: %s", scen, r.Seed, rep.Failure()))
			res.Failures = append(res.Failures, FuzzViolation{Trial: i, Desc: scen.String(), Failure: rep.Failure(), Recipe: r})
		}
	}
	return res, nil
}

// randomRunnableScenario composes a random valid scenario and a protocol
// configured to tolerate its fault mix. The third result reports whether
// the run needs the reliable transport: destructive network axes (loss,
// outage, flap) are only survivable with retransmission, while duplication
// alone is harmless to the crash protocol (receive-side processing is
// idempotent there) and so sometimes runs raw.
func randomRunnableScenario(rng *rand.Rand) (core.Params, scenario.Spec, bool) {
	scheds := scenario.SchedulerNames()
	byz := scenario.ByzSuite()
	crashKinds := []string{"crash", "crashinit"}

	var p core.Params
	faultPool := append(append([]string{}, byz...), crashKinds...)
	switch rng.Intn(3) {
	case 0: // crash protocol: crash kinds only
		p = core.Params{Protocol: core.ProtoCrash, T: 1 + rng.Intn(3)}
		faultPool = crashKinds
	case 1: // trim protocol: any fault kind
		p = core.Params{Protocol: core.ProtoByzTrim, T: 1}
	default: // witness protocol: any fault kind
		p = core.Params{Protocol: core.ProtoWitness, T: 1 + rng.Intn(2)}
	}
	p.N = core.MinN(p.Protocol, p.T) + rng.Intn(3)
	p.Eps = []float64{1e-1, 1e-2, 1e-3}[rng.Intn(3)]
	p.Lo, p.Hi = 0, 1

	scen := scenario.Spec{Sched: scheds[rng.Intn(len(scheds))], N: p.N, T: p.T}
	for k := rng.Intn(p.T + 1); k > 0; k-- {
		scen.Faults = append(scen.Faults, faultPool[rng.Intn(len(faultPool))])
	}
	var reliable bool
	if rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			scen.Faults = append(scen.Faults, fmt.Sprintf("loss:0.0%d", 1+rng.Intn(9)))
			reliable = true
		case 1:
			scen.Faults = append(scen.Faults, fmt.Sprintf("dup:0.%d", 1+rng.Intn(3)))
			reliable = p.Protocol != core.ProtoCrash
		case 2:
			scen.Faults = append(scen.Faults,
				fmt.Sprintf("outage:1:%d:%d", 20+rng.Intn(41), 30+rng.Intn(51)))
			reliable = true
		default:
			scen.Faults = append(scen.Faults, fmt.Sprintf("flap:%d", 20+rng.Intn(61)))
			reliable = true
		}
	}
	// Crash-recovery axes occupy no fault slot but do not compose with
	// party faults, so they only enter trials whose fault draw came up
	// empty. The fuzzer keeps to the guaranteed-convergent corner of the
	// axis — lag 0 (the rollback discards nothing) or an amnesiac restart
	// at t=1 (nothing has been delivered yet) — because a rollback with
	// real lag loses traffic the transport has already acked, which only
	// the adaptive DECIDED re-announce recovers (E14 measures that trade
	// deliberately; the fuzzer asserts unconditional convergence). A
	// destructive recovery axis always rides the reliable transport:
	// traffic sent into the darkness window is unrecoverable raw.
	if len(scen.Faults) == 0 && rng.Intn(4) == 0 {
		k := 1 + rng.Intn(p.T)
		if rng.Intn(2) == 0 {
			scen.Faults = append(scen.Faults, fmt.Sprintf("recover:%d:%d:0", k, 20+rng.Intn(180)))
		} else {
			scen.Faults = append(scen.Faults, fmt.Sprintf("amnesia:%d:1", k))
		}
		if rng.Intn(2) == 0 {
			scen.Faults = append(scen.Faults, fmt.Sprintf("loss:0.0%d", 1+rng.Intn(5)))
		}
		reliable = true
	}
	return p, scen, reliable
}
