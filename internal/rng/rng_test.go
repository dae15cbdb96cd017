package rng

import (
	"math"
	"math/rand"
	"testing"
)

// seeds covers the seed normalisation edges: 0 and the 89482311 it maps
// to, negative seeds, multiples of 2³¹−1 (which normalise to 0) and one
// either side of them, and the int64 extremes.
var seeds = []int64{
	0, 89482311, 1, -1, 2, 42, -42, 1 << 40, -(1 << 40),
	int32max, int32max - 1, int32max + 1,
	-int32max, -int32max - 1, -int32max + 1,
	2 * int32max, 2*int32max - 1, 2*int32max + 1,
	-2 * int32max, 7 * int32max,
	math.MaxInt64 / int32max * int32max,
	math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
}

const draws = 2000

// pair returns a math/rand Rand over this package's source and one over
// math/rand's own, both seeded with seed.
func pair(seed int64) (got, want *rand.Rand) {
	return rand.New(New(seed)), rand.New(rand.NewSource(seed))
}

// TestStreamsMatchMathRand pins the port draw for draw against math/rand
// through every derived draw the repository makes: Int63, Uint64, Float64,
// Int63n at a power of two and at general bounds, and Intn.
func TestStreamsMatchMathRand(t *testing.T) {
	kinds := []struct {
		name string
		draw func(r *rand.Rand, k int) int64
	}{
		{"Int63", func(r *rand.Rand, _ int) int64 { return r.Int63() }},
		{"Uint64", func(r *rand.Rand, _ int) int64 { return int64(r.Uint64()) }},
		{"Float64", func(r *rand.Rand, _ int) int64 { return int64(math.Float64bits(r.Float64())) }},
		{"Int63n/pow2", func(r *rand.Rand, k int) int64 { return r.Int63n(1 << (k % 63)) }},
		{"Int63n", func(r *rand.Rand, k int) int64 { return r.Int63n(int64(k)*7919 + 3) }},
		{"Int63n/huge", func(r *rand.Rand, k int) int64 { return r.Int63n(math.MaxInt64 - int64(k)) }},
		{"Intn", func(r *rand.Rand, k int) int64 { return int64(r.Intn(k%1000 + 1)) }},
	}
	for _, seed := range seeds {
		for _, kind := range kinds {
			got, want := pair(seed)
			for k := 0; k < draws; k++ {
				if g, w := kind.draw(got, k), kind.draw(want, k); g != w {
					t.Fatalf("seed %d: %s draw %d = %d, math/rand %d", seed, kind.name, k, g, w)
				}
			}
		}
	}
}

// TestFloat64MatchesRand pins Source.Float64, which skips the rand.Rand,
// against rand.Rand's Float64 over math/rand's source.
func TestFloat64MatchesRand(t *testing.T) {
	for _, seed := range seeds {
		src, want := New(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < draws; k++ {
			if g, w := src.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, k, g, w)
			}
		}
	}
}

// TestReseedMatchesFresh reseeds one Source mid-stream, and seeds a zero
// Source, and expects the stream of a fresh math/rand source each time.
func TestReseedMatchesFresh(t *testing.T) {
	var zero Source
	reused := New(5)
	for i, seed := range seeds {
		for _, src := range []*Source{reused, &zero} {
			src.Seed(seed)
			want := rand.NewSource(seed).(rand.Source64)
			for k := 0; k < 100+i; k++ {
				if g, w := src.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d: reseeded draw %d = %d, math/rand %d", seed, k, g, w)
				}
			}
		}
	}
}

// TestSeedMatchesLehmerChain checks the multiplier powers and the folded
// multiply against the Lehmer recurrence stepped one multiply at a time.
func TestSeedMatchesLehmerChain(t *testing.T) {
	pow := uint64(1)
	for k := 1; k <= 23; k++ {
		pow = pow * 48271 % int32max
		switch k {
		case 3:
			if pow != mul3 {
				t.Errorf("48271^3 = %d, mul3 = %d", pow, mul3)
			}
		case 21, 22, 23:
			if want := [...]uint64{mul21, mul22, mul23}[k-21]; pow != want {
				t.Errorf("48271^%d = %d, constant %d", k, pow, want)
			}
		}
	}
	for _, x := range []uint64{1, 2, 48271, 89482311, int32max - 1, int32max / 2, 1 << 30} {
		for _, k := range []uint64{48271, mul3, mul21, mul22, mul23} {
			if got, want := mulmod(x, k), x*k%int32max; got != want {
				t.Errorf("mulmod(%d, %d) = %d, want %d", x, k, got, want)
			}
		}
	}
}

// FuzzSeed compares the streams for arbitrary seeds and draw counts.
func FuzzSeed(f *testing.F) {
	for _, seed := range seeds {
		f.Add(seed, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got, want := New(seed), rand.NewSource(seed).(rand.Source64)
		for k := 0; k < int(n); k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %d, math/rand %d", seed, k, g, w)
			}
		}
	})
}

var sink int64

// BenchmarkSeed reseeds one source per op: this package's and math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		src := New(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
		sink = src.Int63()
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
		sink = src.Int63()
	})
}

// BenchmarkInt63n draws a general bound through rand.Rand over each source,
// as the schedulers do.
func BenchmarkInt63n(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source
	}{{"rng", New(1)}, {"math-rand", rand.NewSource(1)}} {
		b.Run(bc.name, func(b *testing.B) {
			r := rand.New(bc.src)
			var s int64
			for i := 0; i < b.N; i++ {
				s += r.Int63n(1000)
			}
			sink = s
		})
	}
}
