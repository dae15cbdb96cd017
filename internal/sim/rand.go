package sim

import "math/rand"

// lazySource is a rand.Source64 seeded on its first draw. Seed only records
// the seed; the first Int63 or Uint64 after it builds the underlying
// math/rand source, or reseeds the one an earlier run built. A stream
// depends only on its seed, not on when it is seeded, so the draws equal
// those of rand.NewSource(seed), while the ~1 800-step seeding and the
// 4.9 KB state are paid only by a source that draws. The network's
// scheduler source and every party's source are lazySources, so Reset
// reseeds them in O(1) and runs whose scheduler and processes never draw
// (sync, skew, partition, splitviews, staggered) seed nothing.
type lazySource struct {
	src    rand.Source64 // nil until the first draw
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
		s.src = rand.NewSource(s.seed).(rand.Source64)
	} else {
		s.src.Seed(s.seed)
	}
	s.seeded = true
}
