package vector

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runVector executes a d-dimensional agreement on the simulator and
// returns the decided points of the non-faulty parties.
func runVector(t *testing.T, p Params, inputs [][]float64, crashes []sim.CrashPlan,
	byz map[sim.PartyID]fault.Behavior, scheduler sim.Scheduler, seed int64) map[sim.PartyID][]float64 {
	t.Helper()
	cfg := sim.Config{N: p.Base.N, Scheduler: scheduler, Seed: seed, Crashes: crashes}
	if len(byz) > 0 {
		cfg.Byzantine = map[sim.PartyID]sim.Process{}
		rounds, err := p.Base.FixedRounds()
		if err != nil {
			t.Fatal(err)
		}
		env := fault.Env{N: p.Base.N, Rounds: rounds, Lo: p.Base.Lo, Hi: p.Base.Hi}
		for id, b := range byz {
			cfg.Byzantine[id] = b.New(env)
		}
	}
	net, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs := make(map[sim.PartyID]*AA)
	for i := 0; i < p.Base.N; i++ {
		id := sim.PartyID(i)
		if _, isByz := byz[id]; isByz {
			continue
		}
		proc, err := New(p, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		procs[id] = proc
		if err := net.SetProcess(id, proc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := map[sim.PartyID][]float64{}
	for id, proc := range procs {
		if err := proc.Err(); err != nil {
			t.Fatal(err)
		}
		if pt, ok := proc.Outputs(); ok {
			out[id] = pt
		}
	}
	return out
}

func crashBase(n, tf int) core.Params {
	return core.Params{Protocol: core.ProtoCrash, N: n, T: tf, Eps: 1e-3, Lo: -10, Hi: 10}
}

func TestVectorValidate(t *testing.T) {
	p := Params{Base: crashBase(5, 2), Dim: 2}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Dim = 0
	if err := bad.Validate(); err == nil {
		t.Error("dim 0 accepted")
	}
	bad = p
	bad.Base.N = 2
	if err := bad.Validate(); err == nil {
		t.Error("bad base accepted")
	}
	if _, err := New(p, []float64{1}); err == nil {
		t.Error("wrong input dimension accepted")
	}
}

func TestVectorCrashAgreement2D(t *testing.T) {
	n := 7
	p := Params{Base: crashBase(n, 3), Dim: 2}
	inputs := make([][]float64, n)
	for i := range inputs {
		angle := 2 * math.Pi * float64(i) / float64(n)
		inputs[i] = []float64{8 * math.Cos(angle), 8 * math.Sin(angle)}
	}
	outs := runVector(t, p, inputs, []sim.CrashPlan{{Party: 0, AfterSends: 5}},
		nil, &sched.SplitViews{Boundary: 3, Fast: 1, Slow: 10}, 3)
	if len(outs) != n-1 {
		t.Fatalf("got %d outputs", len(outs))
	}
	assertVectorInvariants(t, p, inputs, outs, map[sim.PartyID]bool{0: true}, nil)
}

func TestVectorWitness3D(t *testing.T) {
	n := 7
	base := core.Params{Protocol: core.ProtoWitness, N: n, T: 2, Eps: 1e-2, Lo: 0, Hi: 1}
	p := Params{Base: base, Dim: 3}
	inputs := make([][]float64, n)
	for i := range inputs {
		f := float64(i) / float64(n-1)
		inputs[i] = []float64{f, 1 - f, f * f}
	}
	byz := map[sim.PartyID]fault.Behavior{
		0: fault.Equivocate{Stretch: 2},
		6: fault.Extreme{Value: 1e6},
	}
	outs := runVector(t, p, inputs, nil, byz,
		&sched.UniformRandom{Min: 1, Max: 8}, 11)
	if len(outs) != n-2 {
		t.Fatalf("got %d outputs", len(outs))
	}
	faulty := map[sim.PartyID]bool{0: true, 6: true}
	assertVectorInvariants(t, p, inputs, outs, faulty, faulty)
}

// assertVectorInvariants checks per-coordinate (box) validity against the
// non-Byzantine inputs and max-norm ε-agreement across outputs.
func assertVectorInvariants(t *testing.T, p Params, inputs [][]float64,
	outs map[sim.PartyID][]float64, crashed, byz map[sim.PartyID]bool) {
	t.Helper()
	for d := 0; d < p.Dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, in := range inputs {
			if byz[sim.PartyID(i)] {
				continue
			}
			lo = math.Min(lo, in[d])
			hi = math.Max(hi, in[d])
		}
		outLo, outHi := math.Inf(1), math.Inf(-1)
		for id, pt := range outs {
			if pt[d] < lo-1e-9 || pt[d] > hi+1e-9 {
				t.Errorf("party %d coord %d: %v outside hull [%v, %v]", id, d, pt[d], lo, hi)
			}
			outLo = math.Min(outLo, pt[d])
			outHi = math.Max(outHi, pt[d])
		}
		if outHi-outLo > p.Base.Eps+1e-9 {
			t.Errorf("coord %d spread %v > eps", d, outHi-outLo)
		}
	}
	_ = crashed
}

func TestVectorOutputsBeforeDecision(t *testing.T) {
	p := Params{Base: crashBase(3, 1), Dim: 2}
	proc, err := New(p, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := proc.Outputs(); ok {
		t.Error("outputs available before running")
	}
}

func TestVectorGarbageRouting(t *testing.T) {
	// Garbage, unwrapped messages, and out-of-range coordinate tags must
	// all be ignored without panicking. Use a standalone instance with a
	// stub API.
	p := Params{Base: crashBase(3, 1), Dim: 2}
	proc, err := New(p, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sim.New(sim.Config{N: 3, Scheduler: sched.NewSynchronous(1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pp, err := New(p, []float64{float64(i), float64(-i)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			pp = proc
		}
		if err := net.SetProcess(sim.PartyID(i), pp); err != nil {
			t.Fatal(err)
		}
	}
	proc.Deliver(1, nil)
	proc.Deliver(1, []byte{99})
	proc.Deliver(1, []byte{6, 0xFF, 0xFF}) // wrapped, dim 65535: out of range
	if err := proc.Err(); err != nil {
		t.Fatal(err)
	}
}
