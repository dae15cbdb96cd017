package multiset

import (
	"math"
	"math/rand"
	"testing"
)

// testFuncs is the full Func inventory exercised by the fast-path tests.
func testFuncs() []Func {
	return []Func{
		MidExtremes{},
		MidExtremes{Trim: 2},
		TrimmedMean{Trim: 0},
		TrimmedMean{Trim: 3},
		Median{},
		SelectDouble{Trim: 1, K: 2},
		SelectDouble{Trim: 2, K: 3},
	}
}

// TestApplySortedMatchesApply checks the trusted fast path computes exactly
// what the validating path computes, across sizes and random contents.
func TestApplySortedMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range testFuncs() {
		for size := f.MinInputs(); size < f.MinInputs()+24; size++ {
			vals := make([]float64, size)
			for i := range vals {
				vals[i] = math.Round(rng.Float64()*20) / 4 // ties included
			}
			sorted := Sorted(vals)
			want, errWant := f.Apply(sorted)
			got, errGot := ApplySorted(f, sorted)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s size %d: Apply err %v, ApplySorted err %v", f.Name(), size, errWant, errGot)
			}
			if want != got {
				t.Fatalf("%s size %d: Apply %v, ApplySorted %v", f.Name(), size, want, got)
			}
		}
	}
}

// TestApplyInPlaceMatchesSortedCopy checks the in-place hot path against the
// allocate-and-copy path, and that it leaves the input sorted.
func TestApplyInPlaceMatchesSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, f := range testFuncs() {
		size := f.MinInputs() + 9
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		want, errWant := f.Apply(Sorted(vals))
		got, errGot := ApplyInPlace(f, vals)
		if errWant != nil || errGot != nil {
			t.Fatalf("%s: errs %v / %v", f.Name(), errWant, errGot)
		}
		if want != got {
			t.Fatalf("%s: Apply(Sorted) %v, ApplyInPlace %v", f.Name(), want, got)
		}
		if err := checkSorted(vals); err != nil {
			t.Fatalf("%s: input not sorted after ApplyInPlace", f.Name())
		}
	}
}

// TestApplyErrorParityOnTooSmall checks both paths reject undersized input.
func TestApplyErrorParityOnTooSmall(t *testing.T) {
	f := MidExtremes{Trim: 3}
	small := []float64{1, 2, 3}
	if _, err := f.Apply(small); err == nil {
		t.Fatal("Apply accepted undersized multiset")
	}
	if _, err := ApplySorted(f, small); err == nil {
		t.Fatal("ApplySorted accepted undersized multiset")
	}
}

// TestApplyStillValidates ensures the public Apply path kept its unsorted
// detection after the fast-path refactor.
func TestApplyStillValidates(t *testing.T) {
	unsorted := []float64{3, 1, 2, 0, 5}
	for _, f := range testFuncs() {
		if _, err := f.Apply(unsorted); err == nil {
			t.Fatalf("%s: Apply accepted unsorted input", f.Name())
		}
	}
}

// fallbackFunc has no trusted fast path; ApplySorted must fall back to Apply.
type fallbackFunc struct{}

func (fallbackFunc) Name() string   { return "fallback" }
func (fallbackFunc) MinInputs() int { return 1 }
func (fallbackFunc) Apply(s []float64) (float64, error) {
	if err := checkSorted(s); err != nil {
		return 0, err
	}
	return s[0], nil
}

func TestApplySortedFallback(t *testing.T) {
	got, err := ApplySorted(fallbackFunc{}, []float64{7, 9})
	if err != nil || got != 7 {
		t.Fatalf("fallback: got %v, %v", got, err)
	}
}

// TestSelectIntoReusesCapacity checks SelectInto writes into the provided
// backing array when capacity suffices and matches Select.
func TestSelectIntoReusesCapacity(t *testing.T) {
	sorted := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	scratch := make([]float64, 0, 16)
	for k := 1; k <= 4; k++ {
		want, err := Select(sorted, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SelectInto(scratch, sorted, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: len %d want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: got %v want %v", k, got, want)
			}
		}
		if &got[0] != &scratch[:1][0] {
			t.Fatalf("k=%d: SelectInto did not reuse the scratch backing array", k)
		}
	}
	if _, err := SelectInto(scratch, nil, 1); err == nil {
		t.Fatal("SelectInto accepted empty input")
	}
	if _, err := SelectInto(scratch, sorted, 0); err == nil {
		t.Fatal("SelectInto accepted step 0")
	}
}

// TestReduceAliasing documents (and pins) that Reduce returns a subslice of
// its input, not a copy.
func TestReduceAliasing(t *testing.T) {
	in := []float64{0, 1, 2, 3, 4}
	out, err := Reduce(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &in[1] {
		t.Fatal("Reduce result does not alias the input")
	}
}

// TestApplySortedZeroAllocs pins the zero-allocation guarantee of every
// built-in Func's trusted path, including SelectDouble (whose validating
// path materializes the selection).
func TestApplySortedZeroAllocs(t *testing.T) {
	sorted := make([]float64, 64)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	for _, f := range testFuncs() {
		f := f
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ApplySorted(f, sorted); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ApplySorted allocates %.1f/op, want 0", f.Name(), allocs)
		}
	}
}
