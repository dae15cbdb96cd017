package sim

import "repro/internal/rng"

// lazySource is a rand.Source64 seeded on its first draw. Seed only records
// the seed; the first Int63 or Uint64 after it builds the underlying
// rng.Source, or reseeds the one an earlier run built. A stream depends
// only on its seed, not on when it is seeded, so the draws equal those of
// math/rand's NewSource(seed), while the 607-word seeding pass (about
// 3 µs, a fifth of math/rand's) and the 4.9 KB state are paid only by a
// source that draws. The network's scheduler source and every party's
// source are lazySources, so Reset reseeds them in O(1) and runs whose
// scheduler and processes never draw (sync, skew, partition, splitviews,
// staggered) seed nothing.
type lazySource struct {
	src    *rng.Source // nil until the first draw
	seed   int64
	seeded bool // src has been seeded with seed
}

func (s *lazySource) Seed(seed int64) { s.seed, s.seeded = seed, false }

func (s *lazySource) Int63() int64 {
	if !s.seeded {
		s.seedNow()
	}
	return s.src.Int63()
}

func (s *lazySource) Uint64() uint64 {
	if !s.seeded {
		s.seedNow()
	}
	return s.src.Uint64()
}

func (s *lazySource) seedNow() {
	if s.src == nil {
		s.src = rng.New(s.seed)
	} else {
		s.src.Seed(s.seed)
	}
	s.seeded = true
}
