package multiset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/rng"
)

// ViewModel describes how an asynchronous adversary can shape two parties'
// reception multisets in a single round.
//
// In the crash model there is a common pool of N genuine values (the current
// values of all parties); each party receives an arbitrary (N−T)-subset.
//
// In the Byzantine model there are N−T honest values; each party's multiset
// contains at least N−2T of them plus up to T values fabricated per-view
// (Byzantine senders may equivocate, so the fabricated values need not be
// consistent across views).
type ViewModel struct {
	N, T      int
	Byzantine bool
}

// Validate checks the model parameters.
func (vm ViewModel) Validate() error {
	if vm.N < 1 || vm.T < 0 || vm.T >= vm.N {
		return fmt.Errorf("multiset: view model n=%d t=%d invalid", vm.N, vm.T)
	}
	return nil
}

// ContractionReport is the outcome of an adversarial search over one round.
type ContractionReport struct {
	// Gamma is the largest observed |f(U)−f(W)| / spread(pool): a lower
	// bound on the function's worst-case per-round contraction factor.
	Gamma float64
	// ValidityViolated is true if some view produced an output outside the
	// convex hull of the genuine values.
	ValidityViolated bool
	// Trials is the number of (pool, view pair) configurations examined.
	Trials int
}

// contractionSearch holds the scratch state of one WorstContraction call.
// Every buffer is allocated once up front and reused across all structured
// and randomized trials, so the per-trial cost is free of allocations: the
// pool, the two views, the sorted-pool staging area, and the index table
// for the in-place partial Fisher–Yates subset draw.
type contractionSearch struct {
	f   Func
	vm  ViewModel
	m   int // reception set size
	rng *rand.Rand
	rep ContractionReport

	pool       []float64 // genuine values, len poolSize
	sortedPool []float64 // sorted staging copy of pool
	u, w       []float64 // the two reception views, cap m
	idx        []int     // Fisher–Yates index table, len poolSize
}

// WorstContraction searches adversarially for the configuration of values
// and reception sets that makes two parties' next-round values as far apart
// as possible, relative to the current diameter. The search combines the
// canonical structured worst case (one party sees the low end of the pool,
// the other the high end, with Byzantine values pulling outward) with
// randomized pools and subsets. The result is a lower bound on the true
// worst case; EXPERIMENTS.md reports these numbers next to the provable
// bounds.
func WorstContraction(f Func, vm ViewModel, trials int, seed int64) (ContractionReport, error) {
	if err := vm.Validate(); err != nil {
		return ContractionReport{}, err
	}
	m := vm.N - vm.T // reception set size
	if m < f.MinInputs() {
		return ContractionReport{}, fmt.Errorf(
			"multiset: view size %d below %s minimum %d", m, f.Name(), f.MinInputs())
	}
	// The pool holds the genuine values a view can draw from: all n current
	// values in the crash model, the n−t honest values under Byzantine
	// faults (fabricated values are added per view, not pooled).
	poolSize := vm.N
	if vm.Byzantine {
		poolSize = vm.N - vm.T
	}
	s := &contractionSearch{
		f:          f,
		vm:         vm,
		m:          m,
		rng:        rand.New(rng.New(seed)),
		pool:       make([]float64, poolSize),
		sortedPool: make([]float64, poolSize),
		u:          make([]float64, 0, m),
		w:          make([]float64, 0, m),
		idx:        make([]int, poolSize),
	}

	// Structured worst case: pool split between the extremes, one view takes
	// the low end, the other the high end.
	for split := 1; split < poolSize; split++ {
		for i := range s.pool {
			if i < split {
				s.pool[i] = 0
			} else {
				s.pool[i] = 1
			}
		}
		if err := s.extremeViews(); err != nil {
			return s.rep, err
		}
		if err := s.consider(); err != nil {
			return s.rep, err
		}
	}

	// Randomized search.
	for i := 0; i < trials; i++ {
		for j := range s.pool {
			switch s.rng.Intn(3) {
			case 0:
				s.pool[j] = 0
			case 1:
				s.pool[j] = 1
			default:
				s.pool[j] = s.rng.Float64()
			}
		}
		s.u = s.randomView(s.u)
		s.w = s.randomView(s.w)
		if err := s.consider(); err != nil {
			return s.rep, err
		}
	}
	return s.rep, nil
}

// consider scores the current (pool, u, w) configuration. The views are
// scratch owned by the search, so they are sorted in place and applied
// through the trusted fast path — no copies, no re-validation.
func (s *contractionSearch) consider() error {
	spread := Spread(s.pool)
	if spread == 0 {
		return nil
	}
	sort.Float64s(s.u)
	sort.Float64s(s.w)
	fu, err := ApplySorted(s.f, s.u)
	if err != nil {
		return err
	}
	fw, err := ApplySorted(s.f, s.w)
	if err != nil {
		return err
	}
	lo, hi := minMax(s.pool)
	if fu < lo-1e-12 || fu > hi+1e-12 || fw < lo-1e-12 || fw > hi+1e-12 {
		s.rep.ValidityViolated = true
	}
	g := math.Abs(fu-fw) / spread
	if g > s.rep.Gamma {
		s.rep.Gamma = g
	}
	s.rep.Trials++
	return nil
}

// extremeViews builds the canonical adversarial view pair into the u/w
// scratch: view u prefers the smallest pool values, view w the largest. In
// the Byzantine model the pool holds the N−T honest values, each view takes
// N−2T of them plus T fabricated extremes (far below for u, far above for
// w) — the exact shape of a reception set under maximal equivocation.
func (s *contractionSearch) extremeViews() error {
	sorted := s.sortedPool
	copy(sorted, s.pool)
	sort.Float64s(sorted)
	if !s.vm.Byzantine {
		if len(sorted) < s.m {
			return fmt.Errorf("multiset: pool smaller than view")
		}
		s.u = append(s.u[:0], sorted[:s.m]...)
		s.w = append(s.w[:0], sorted[len(sorted)-s.m:]...)
		return nil
	}
	honest := s.m - s.vm.T
	if len(sorted) < honest {
		return fmt.Errorf("multiset: pool smaller than honest view part")
	}
	const out = 1e6
	s.u = append(s.u[:0], sorted[:honest]...)
	s.w = append(s.w[:0], sorted[len(sorted)-honest:]...)
	for i := 0; i < s.vm.T; i++ {
		s.u = append(s.u, -out)
		s.w = append(s.w, out)
	}
	return nil
}

// randomView draws a view into dst (reusing its capacity) and returns it.
// In the crash model it is a random m-subset of the n-value pool, drawn by
// an in-place partial Fisher–Yates shuffle of the index table — no rng.Perm
// allocation. In the Byzantine model the pool holds the N−T honest values
// and the view takes m−b of them plus b <= T fabricated values.
func (s *contractionSearch) randomView(dst []float64) []float64 {
	b := 0
	if s.vm.Byzantine {
		b = s.rng.Intn(s.vm.T + 1)
	}
	honest := s.m - b
	if honest > len(s.pool) {
		honest = len(s.pool)
	}
	n := len(s.pool)
	for i := range s.idx {
		s.idx[i] = i
	}
	dst = dst[:0]
	for i := 0; i < honest; i++ {
		j := i + s.rng.Intn(n-i)
		s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
		dst = append(dst, s.pool[s.idx[i]])
	}
	for i := 0; i < b; i++ {
		switch s.rng.Intn(4) {
		case 0:
			dst = append(dst, -1e6)
		case 1:
			dst = append(dst, 1e6)
		case 2:
			dst = append(dst, 0.5)
		default:
			dst = append(dst, s.rng.Float64())
		}
	}
	return dst
}

func minMax(values []float64) (lo, hi float64) {
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
