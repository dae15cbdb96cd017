package harness

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestInvariantGrid is the repository's main correctness battery: every
// protocol at its maximum fault bound, against every scheduler in the
// adversary suite, against every fault behavior, across several seeds and
// input shapes — asserting liveness, validity, and ε-agreement on all of
// them. Roughly 600 adversarial executions.
func TestInvariantGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is expensive; run without -short")
	}
	type protoCase struct {
		proto core.Protocol
		n, tf int
		byz   bool
	}
	protos := []protoCase{
		{core.ProtoCrash, 9, 4, false},
		{core.ProtoByzTrim, 15, 2, true},
		{core.ProtoWitness, 10, 3, true},
	}
	inputGens := map[string]func(n int) []float64{
		"linear":  func(n int) []float64 { return LinearInputs(n, -50, 50) },
		"bimodal": func(n int) []float64 { return BimodalInputs(n, -50, 50) },
		"outlier": func(n int) []float64 { return OutlierInputs(n, -50, 50) },
		"uniform": func(n int) []float64 { return UniformInputs(n, -50, 50, 99) },
	}
	for _, pc := range protos {
		pc := pc
		t.Run(pc.proto.String(), func(t *testing.T) {
			t.Parallel()
			p := core.Params{Protocol: pc.proto, N: pc.n, T: pc.tf, Eps: 1e-3, Lo: -50, Hi: 50}
			var faultPlans []struct {
				name    string
				crashes []sim.CrashPlan
				byz     map[sim.PartyID]fault.Behavior
			}
			if pc.byz {
				for _, name := range scenario.ByzSuite() {
					kind, _ := scenario.Fault(name)
					faultPlans = append(faultPlans, struct {
						name    string
						crashes []sim.CrashPlan
						byz     map[sim.PartyID]fault.Behavior
					}{name: name, byz: byzAssign(pc.tf, kind.Behavior)})
				}
			} else {
				faultPlans = append(faultPlans,
					struct {
						name    string
						crashes []sim.CrashPlan
						byz     map[sim.PartyID]fault.Behavior
					}{name: "crash-staggered", crashes: maxCrashes(pc.n, pc.tf)},
					struct {
						name    string
						crashes []sim.CrashPlan
						byz     map[sim.PartyID]fault.Behavior
					}{name: "crash-immediate", crashes: immediateCrashes(pc.tf)},
					struct {
						name    string
						crashes []sim.CrashPlan
						byz     map[sim.PartyID]fault.Behavior
					}{name: "fault-free"},
				)
			}
			for inputName, gen := range inputGens {
				inputs := gen(pc.n)
				for _, fp := range faultPlans {
					for _, scen := range scenario.Suite(pc.n, pc.tf) {
						for seed := int64(1); seed <= 2; seed++ {
							sc := resolveSched(t, scen)
							rep, err := Run(Spec{
								Params:    p,
								Inputs:    inputs,
								Scheduler: sc,
								Crashes:   fp.crashes,
								Byz:       fp.byz,
								Seed:      seed,
							})
							if err != nil {
								t.Fatalf("%s/%s/%s/seed%d: %v", inputName, fp.name, sc.Name, seed, err)
							}
							if !rep.OK() {
								t.Errorf("%s/%s/%s/seed%d: %s", inputName, fp.name, sc.Name, seed, rep.Failure())
							}
						}
					}
				}
			}
		})
	}
}

// resolveSched builds a fresh instance of a scenario's scheduler, for
// tests that drive the raw Spec path with their own fault plans.
func resolveSched(t *testing.T, scen scenario.Spec) sched.Named {
	t.Helper()
	res, err := scen.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return res.Scheduler
}

// immediateCrashes kills t parties before they send anything at all.
func immediateCrashes(t int) []sim.CrashPlan {
	plans := make([]sim.CrashPlan, t)
	for i := range plans {
		plans[i] = sim.CrashPlan{Party: sim.PartyID(i), AfterSends: 0}
	}
	return plans
}

// maxCrashes builds t crash plans with staggered mid-multicast budgets, so
// some crashes truncate multicasts part-way. The scenario registry's
// "crash" kind is the same schedule; the invariant grid keeps a direct
// copy so it exercises the raw Spec path too.
func maxCrashes(n, t int) []sim.CrashPlan {
	plans := make([]sim.CrashPlan, 0, t)
	for i := 0; i < t; i++ {
		plans = append(plans, sim.CrashPlan{
			Party:      sim.PartyID(i),
			AfterSends: n/2 + i*n*2, // first victims die mid-INIT-multicast, later ones survive longer
		})
	}
	return plans
}

// byzAssign gives the behavior to the first t parties.
func byzAssign(t int, b fault.Behavior) map[sim.PartyID]fault.Behavior {
	m := make(map[sim.PartyID]fault.Behavior, t)
	for i := 0; i < t; i++ {
		m[sim.PartyID(i)] = b
	}
	return m
}

// TestMixedCrashAndByzantine checks the witness protocol with the fault
// budget split between crashes and Byzantine behaviors.
func TestMixedCrashAndByzantine(t *testing.T) {
	p := core.Params{Protocol: core.ProtoWitness, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 1}
	rep, err := Run(Spec{
		Params:    p,
		Inputs:    LinearInputs(10, 0, 1),
		Scheduler: stdSchedule(10),
		Crashes:   []sim.CrashPlan{{Party: 0, AfterSends: 15}},
		Byz: map[sim.PartyID]fault.Behavior{
			1: fault.Equivocate{Stretch: 2},
			2: fault.Amplifier{Push: 1},
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("mixed faults: %s", rep.Failure())
	}
}

// TestEqualInputsDecideImmediately: when all honest inputs are equal, every
// protocol decides that exact value.
func TestEqualInputsDecideImmediately(t *testing.T) {
	for _, proto := range []core.Protocol{core.ProtoCrash, core.ProtoByzTrim, core.ProtoWitness} {
		n := core.MinN(proto, 1)
		p := core.Params{Protocol: proto, N: n, T: 1, Eps: 1e-6, Lo: 0, Hi: 1}
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = 0.625
		}
		rep, err := Run(Spec{
			Params:    p,
			Inputs:    inputs,
			Scheduler: stdSchedule(n),
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s: %s", proto, rep.Failure())
		}
		for _, id := range rep.Result.Honest {
			if got := rep.Result.Decisions[id]; got != 0.625 {
				t.Errorf("%s party %d: decided %v, want exactly 0.625", proto, id, got)
			}
		}
	}
}

// TestAdaptiveSavesRounds verifies the adaptive mode's point: with a true
// spread far below the promised range, it terminates in far fewer rounds.
func TestAdaptiveSavesRounds(t *testing.T) {
	base := core.Params{Protocol: core.ProtoCrash, N: 7, T: 3, Eps: 1e-3, Lo: 0, Hi: 1e9}
	inputs := LinearInputs(7, 100, 101) // true spread 1, promised 1e9
	fixedRep, err := Run(Spec{Params: base, Inputs: inputs,
		Scheduler: sched.Named{Name: "sync", Scheduler: sched.NewSynchronous(5)}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := base
	adaptive.Adaptive = true
	adaptRep, err := Run(Spec{Params: adaptive, Inputs: inputs,
		Scheduler: sched.Named{Name: "sync", Scheduler: sched.NewSynchronous(5)}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !fixedRep.OK() || !adaptRep.OK() {
		t.Fatalf("fixed: %s; adaptive: %s", fixedRep.Failure(), adaptRep.Failure())
	}
	if adaptRep.Result.Rounds() >= fixedRep.Result.Rounds()/2 {
		t.Errorf("adaptive %0.f rounds vs fixed %0.f: expected a large saving",
			adaptRep.Result.Rounds(), fixedRep.Result.Rounds())
	}
}

// TestAdaptiveWithCrashes exercises the DECIDED-freeze path: parties with
// small spread estimates decide early and their frozen values must keep
// later quorums alive.
func TestAdaptiveWithCrashes(t *testing.T) {
	p := core.Params{Protocol: core.ProtoCrash, N: 9, T: 4, Eps: 1e-3, Adaptive: true}
	for _, scen := range scenario.Suite(9, 4) {
		for seed := int64(1); seed <= 3; seed++ {
			sc := resolveSched(t, scen)
			rep, err := Run(Spec{
				Params:    p,
				Inputs:    UniformInputs(9, 0, 100, seed),
				Scheduler: sc,
				Crashes:   maxCrashes(9, 4),
				Seed:      seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Adaptive mode guarantees liveness and validity
			// unconditionally; ε-agreement is conditional, so assert the
			// unconditional pair plus report agreement failures.
			if rep.RunErr != nil || len(rep.ProtoErrs) > 0 {
				t.Fatalf("%s/seed%d: liveness lost: %s", sc.Name, seed, rep.Failure())
			}
			if !rep.ValidityOK {
				t.Fatalf("%s/seed%d: validity lost: %s", sc.Name, seed, rep.Failure())
			}
			if !rep.AgreementOK {
				t.Logf("%s/seed%d: adaptive eps-agreement missed (conditional guarantee): spread %v",
					sc.Name, seed, rep.FinalSpread)
			}
		}
	}
}

// TestRunSpecValidation covers the harness's own guards.
func TestRunSpecValidation(t *testing.T) {
	p := core.Params{Protocol: core.ProtoCrash, N: 3, T: 1, Eps: 0.1, Lo: 0, Hi: 1}
	sc := sched.Named{Name: "sync", Scheduler: sched.NewSynchronous(1)}
	if _, err := Run(Spec{Params: p, Inputs: []float64{1}, Scheduler: sc}); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := Run(Spec{Params: p, Inputs: []float64{0, 0, 1}, Scheduler: sc,
		Crashes: []sim.CrashPlan{{Party: 0}, {Party: 1}}}); err == nil {
		t.Error("overfaulted spec accepted")
	}
	badParams := p
	badParams.N = 2
	if _, err := Run(Spec{Params: badParams, Inputs: []float64{0, 1}, Scheduler: sc}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestReportFailureStrings ensures the diagnostics render for each failure
// class.
func TestReportFailureStrings(t *testing.T) {
	rep := &Report{RunErr: fmt.Errorf("boom"), Result: &sim.Result{}}
	if rep.Failure() == "" || rep.OK() {
		t.Error("run error not reported")
	}
	rep = &Report{ProtoErrs: []error{fmt.Errorf("x")}, Result: &sim.Result{}}
	if rep.Failure() == "" || rep.OK() {
		t.Error("proto error not reported")
	}
	rep = &Report{Result: &sim.Result{}, Verdict: Verdict{ValidityOK: false, AgreementOK: true}}
	if rep.Failure() == "" || rep.OK() {
		t.Error("validity failure not reported")
	}
	rep = &Report{Result: &sim.Result{}, Verdict: Verdict{ValidityOK: true, AgreementOK: false}}
	if rep.Failure() == "" || rep.OK() {
		t.Error("agreement failure not reported")
	}
	rep = &Report{Result: &sim.Result{}, Verdict: Verdict{ValidityOK: true, AgreementOK: true}}
	if rep.Failure() != "ok" || !rep.OK() {
		t.Error("success not reported as ok")
	}
}

// TestInputGenerators sanity-checks the generator shapes.
func TestInputGenerators(t *testing.T) {
	lin := LinearInputs(5, 0, 8)
	want := []float64{0, 2, 4, 6, 8}
	for i := range want {
		if lin[i] != want[i] {
			t.Fatalf("LinearInputs = %v", lin)
		}
	}
	if one := LinearInputs(1, 3, 9); one[0] != 3 {
		t.Errorf("single linear input %v", one)
	}
	bi := BimodalInputs(6, -1, 1)
	if bi[0] != -1 || bi[2] != -1 || bi[3] != 1 || bi[5] != 1 {
		t.Errorf("BimodalInputs = %v", bi)
	}
	out := OutlierInputs(4, -9, 3)
	if out[0] != -9 || out[1] != 3 || out[3] != 3 {
		t.Errorf("OutlierInputs = %v", out)
	}
	uni := UniformInputs(100, 2, 5, 7)
	for _, v := range uni {
		if v < 2 || v > 5 {
			t.Fatalf("uniform input %v outside range", v)
		}
	}
	again := UniformInputs(100, 2, 5, 7)
	for i := range uni {
		if uni[i] != again[i] {
			t.Fatal("UniformInputs not deterministic per seed")
		}
	}
}

// TestUniformInputsMatchesMathRand pins that UniformInputs draws exactly
// the Float64 stream of a math/rand source built from the same seed, and
// that its stack-held source leaves the output slice as its only
// allocation.
func TestUniformInputsMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3, 2025, 1 << 40, 1<<31 - 1, -(1<<31 - 1), 1<<31 - 2} {
		for _, n := range []int{1, 8, 13, 100} {
			rng := rand.New(rand.NewSource(seed))
			got := UniformInputs(n, -2, 6, seed)
			for i, v := range got {
				if want := -2 + rng.Float64()*8; v != want {
					t.Fatalf("seed %d n %d: input %d = %v, want math/rand's %v", seed, n, i, v, want)
				}
			}
		}
	}
	UniformInputs(16, 0, 1, 5)
	if allocs := testing.AllocsPerRun(100, func() { UniformInputs(16, 0, 1, 5) }); allocs != 1 {
		t.Errorf("UniformInputs allocates %.2f/call, want 1 (the output slice)", allocs)
	}
}
