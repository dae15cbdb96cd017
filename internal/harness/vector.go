package harness

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/vector"
	"repro/internal/wire"
)

// VectorReport is the checked outcome of one d-dimensional run. Its
// Verdict folds the per-coordinate verdicts: ValidityOK (box validity) and
// AgreementOK hold in every coordinate, the spreads are the largest
// coordinate's (FinalSpread is the max-norm disagreement), and
// [HullLo, HullHi] spans every coordinate's hull.
type VectorReport struct {
	Report
	// Points maps every non-Byzantine party that decided to its point.
	Points map[sim.PartyID][]float64
}

// RunVector executes a d-dimensional run (internal/vector: one instance of
// spec's protocol per coordinate) with points[i] as party i's input point;
// spec.Inputs is ignored, and entries for Byzantine parties may be nil.
// Each Byzantine behavior's traffic is replayed on every coordinate. Every
// coordinate is judged with Judge. Reliable and restart specs are
// rejected.
func (e *Engine) RunVector(spec Spec, points [][]float64) (*VectorReport, error) {
	p := spec.Params
	switch {
	case spec.Reliable:
		return nil, errors.New("harness: vector runs do not support the reliable transport")
	case len(spec.Restarts) > 0:
		return nil, errors.New("harness: vector runs do not support restart axes")
	case len(points) != p.N:
		return nil, fmt.Errorf("harness: %d input points for %d parties", len(points), p.N)
	case len(spec.Crashes)+len(spec.Byz) > p.T:
		return nil, errTooManyFaults
	}
	dim := 0
	for _, pt := range points {
		if pt != nil {
			dim = len(pt)
			break
		}
	}
	vp := vector.Params{Base: p, Dim: dim}
	if err := vp.Validate(); err != nil {
		return nil, err
	}
	rounds, err := p.FixedRounds()
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		N:         p.N,
		Scheduler: spec.Scheduler.Scheduler,
		Seed:      spec.Seed,
		Crashes:   spec.Crashes,
		MaxEvents: spec.MaxEvents,
		Reference: e.Reference,
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = eventBudget(p, rounds*dim, false)
	}
	if len(spec.Byz) > 0 {
		env := fault.Env{N: p.N, Rounds: rounds * dim, Lo: p.Lo, Hi: p.Hi}
		cfg.Byzantine = make(map[sim.PartyID]sim.Process, len(spec.Byz))
		for id, b := range spec.Byz {
			cfg.Byzantine[id] = &wrapEachDim{Process: b.New(env), dim: dim}
		}
	}
	net, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	procs := make([]*vector.AA, p.N)
	for i := range procs {
		if _, isByz := spec.Byz[sim.PartyID(i)]; isByz {
			continue
		}
		if procs[i], err = vector.New(vp, points[i]); err != nil {
			return nil, fmt.Errorf("harness: party %d: %w", i, err)
		}
		if err := net.SetProcess(sim.PartyID(i), procs[i]); err != nil {
			return nil, err
		}
	}
	rep := &VectorReport{Points: map[sim.PartyID][]float64{}}
	rep.Result, rep.RunErr = net.Run()
	e.count(rep.Result.Stats)
	for i, proc := range procs {
		if proc == nil {
			continue
		}
		if err := proc.Err(); err != nil {
			rep.ProtoErrs = append(rep.ProtoErrs, fmt.Errorf("party %d: %w", i, err))
		}
		if pt, ok := proc.Outputs(); ok {
			rep.Points[sim.PartyID(i)] = pt
		}
	}
	rep.check(spec, points, dim)
	return rep, nil
}

// check judges every coordinate with the one verdict, over the run's
// non-faulty parties, and folds the verdicts.
func (r *VectorReport) check(spec Spec, points [][]float64, dim int) {
	r.Verdict = Verdict{HullLo: math.Inf(1), HullHi: math.Inf(-1), ValidityOK: true, AgreementOK: true}
	inputs := make([]float64, len(points))
	outputs := make(map[sim.PartyID]float64, len(r.Points))
	for d := 0; d < dim; d++ {
		for i, pt := range points {
			if _, isByz := spec.Byz[sim.PartyID(i)]; !isByz {
				inputs[i] = pt[d]
			}
		}
		for id, pt := range r.Points {
			outputs[id] = pt[d]
		}
		v := Judge(inputs, spec.Byz, r.Result.Honest, outputs, spec.Params.Eps)
		r.HullLo, r.HullHi = min(r.HullLo, v.HullLo), max(r.HullHi, v.HullHi)
		r.InitialSpread = max(r.InitialSpread, v.InitialSpread)
		r.FinalSpread = max(r.FinalSpread, v.FinalSpread)
		r.ValidityOK = r.ValidityOK && v.ValidityOK
		r.AgreementOK = r.AgreementOK && v.AgreementOK
	}
}

// RunVector executes a d-dimensional run on the shared production engine.
func RunVector(spec Spec, points [][]float64) (*VectorReport, error) {
	return defaultEngine.RunVector(spec, points)
}

// wrapEachDim adapts a scalar Byzantine process to the vector wire format:
// it is the process's API, and replays every send on every coordinate.
type wrapEachDim struct {
	sim.Process // the scalar adversary
	sim.API     // the run's channel, set by Init
	dim         int
}

func (w *wrapEachDim) Init(api sim.API) {
	w.API = api
	w.Process.Init(w)
}

func (w *wrapEachDim) Send(to sim.PartyID, data []byte) {
	for d := 0; d < w.dim; d++ {
		w.API.Send(to, wire.MarshalWrapped(uint16(d), data))
	}
}

func (w *wrapEachDim) Multicast(data []byte) {
	for d := 0; d < w.dim; d++ {
		w.API.Multicast(wire.MarshalWrapped(uint16(d), data))
	}
}
