package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// TestReportCheckVerdict drives Report.check on hand-built results: each
// case is one edge of the one verdict (hull, slack, undecided and
// unjudged parties, spread at exactly ε).
func TestReportCheckVerdict(t *testing.T) {
	byz := func(ids ...sim.PartyID) map[sim.PartyID]fault.Behavior {
		m := map[sim.PartyID]fault.Behavior{}
		for _, id := range ids {
			m[id] = fault.Silent{}
		}
		return m
	}
	cases := []struct {
		name      string
		inputs    []float64
		byz       map[sim.PartyID]fault.Behavior
		honest    []sim.PartyID
		decisions map[sim.PartyID]float64
		eps       float64
		// want
		lo, hi, initial, final float64
		valid, agreed          bool
	}{
		{
			name:   "output just outside the hull",
			inputs: []float64{0, 1, 2}, honest: []sim.PartyID{0, 1, 2},
			decisions: map[sim.PartyID]float64{0: 2, 1: 2, 2: 2 + 3e-9}, eps: 1,
			lo: 0, hi: 2, initial: 2, final: 3e-9, valid: false, agreed: true,
		},
		{
			name:   "output inside the slack",
			inputs: []float64{0, 1, 2}, honest: []sim.PartyID{0, 1, 2},
			decisions: map[sim.PartyID]float64{0: 2, 1: 2, 2: 2 + 1e-9}, eps: 1,
			lo: 0, hi: 2, initial: 2, final: 1e-9, valid: true, agreed: true,
		},
		{
			// Counted, the Byzantine input 100 would put 50 inside the hull.
			name:   "byzantine input excluded from the hull",
			inputs: []float64{0, 1, 100}, byz: byz(2), honest: []sim.PartyID{0, 1},
			decisions: map[sim.PartyID]float64{0: 50, 1: 50, 2: 100}, eps: 1,
			lo: 0, hi: 1, initial: 1, final: 0, valid: false, agreed: true,
		},
		{
			name:   "undecided fault-free party",
			inputs: []float64{0, 1, 2}, honest: []sim.PartyID{0, 1, 2},
			decisions: map[sim.PartyID]float64{0: 1, 1: 1}, eps: 1,
			lo: 0, hi: 2, initial: 2, final: 0, valid: false, agreed: true,
		},
		{
			// Party 2 crashed (not in Honest): its input still bounds the
			// hull, and its stray output is not judged.
			name:   "crashed party's output not judged",
			inputs: []float64{0, 1, 2}, honest: []sim.PartyID{0, 1},
			decisions: map[sim.PartyID]float64{0: 1.5, 1: 1.5, 2: 99}, eps: 1e-3,
			lo: 0, hi: 2, initial: 1, final: 0, valid: true, agreed: true,
		},
		{
			// tol = 1e-9·(1e9+1) ≈ 1: an absolute 1e-9 slack would fail
			// both checks here.
			name:   "slack scales with a large hull",
			inputs: []float64{1e9, 1e9 + 1}, honest: []sim.PartyID{0, 1},
			decisions: map[sim.PartyID]float64{0: 1e9 - 0.5, 1: 1e9 + 1.5}, eps: 1,
			lo: 1e9, hi: 1e9 + 1, initial: 1, final: 2, valid: true, agreed: true,
		},
		{
			name:   "slack at a large hull still bounds",
			inputs: []float64{1e9, 1e9 + 1}, honest: []sim.PartyID{0, 1},
			decisions: map[sim.PartyID]float64{0: 1e9 - 2, 1: 1e9 + 1}, eps: 1,
			lo: 1e9, hi: 1e9 + 1, initial: 1, final: 3, valid: false, agreed: false,
		},
		{
			name:   "spread exactly eps",
			inputs: []float64{0, 1}, honest: []sim.PartyID{0, 1},
			decisions: map[sim.PartyID]float64{0: 0.5, 1: 0.75}, eps: 0.25,
			lo: 0, hi: 1, initial: 1, final: 0.25, valid: true, agreed: true,
		},
		{
			name:   "spread past eps and the slack",
			inputs: []float64{0, 1}, honest: []sim.PartyID{0, 1},
			decisions: map[sim.PartyID]float64{0: 0.5, 1: 0.75 + 2e-9}, eps: 0.25,
			lo: 0, hi: 1, initial: 1, final: 0.25 + 2e-9, valid: true, agreed: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{
				Params: core.Params{N: len(c.inputs), Eps: c.eps},
				Inputs: c.inputs,
				Byz:    c.byz,
			}
			rep := &Report{Result: &sim.Result{Honest: c.honest, Decisions: c.decisions}}
			rep.check(spec)
			v := rep.Verdict
			if v.HullLo != c.lo || v.HullHi != c.hi {
				t.Errorf("hull [%v, %v], want [%v, %v]", v.HullLo, v.HullHi, c.lo, c.hi)
			}
			if v.InitialSpread != c.initial {
				t.Errorf("InitialSpread %v, want %v", v.InitialSpread, c.initial)
			}
			if diff := v.FinalSpread - c.final; diff > 1e-15 || diff < -1e-15 {
				t.Errorf("FinalSpread %v, want %v", v.FinalSpread, c.final)
			}
			if v.ValidityOK != c.valid || v.AgreementOK != c.agreed {
				t.Errorf("valid=%v agreed=%v, want valid=%v agreed=%v",
					v.ValidityOK, v.AgreementOK, c.valid, c.agreed)
			}
		})
	}
}

// TestVectorCheckPerCoordinate: one coordinate outside its box fails
// validity even though the other coordinate, and agreement, pass.
func TestVectorCheckPerCoordinate(t *testing.T) {
	spec := Spec{Params: core.Params{N: 3, Eps: 1}}
	points := [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}}
	honest := []sim.PartyID{0, 1, 2}
	judge := func(out map[sim.PartyID][]float64) *VectorReport {
		rep := &VectorReport{Report: Report{Result: &sim.Result{Honest: honest}}, Points: out}
		rep.check(spec, points, 2)
		return rep
	}
	in := judge(map[sim.PartyID][]float64{0: {0.5, 0.5}, 1: {0.5, 0.75}, 2: {0.5, 1}})
	if !in.ValidityOK || !in.AgreementOK || in.FinalSpread != 0.5 {
		t.Fatalf("in-box outputs: valid=%v agreed=%v spread=%v", in.ValidityOK, in.AgreementOK, in.FinalSpread)
	}
	out := judge(map[sim.PartyID][]float64{0: {0.5, 0.5}, 1: {0.5, 0.75}, 2: {0.5, 1.5}})
	if out.ValidityOK || !out.AgreementOK {
		t.Errorf("coordinate 1 outside its box: valid=%v agreed=%v, want valid=false agreed=true",
			out.ValidityOK, out.AgreementOK)
	}
	undecided := judge(map[sim.PartyID][]float64{0: {0.5, 0.5}, 1: {0.5, 0.5}})
	if undecided.ValidityOK {
		t.Error("an undecided fault-free party passed box validity")
	}
}
