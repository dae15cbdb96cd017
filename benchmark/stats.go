package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: p90 needs 100 samples, p99 needs 1000.
const tailSamples = 10

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the q-quantile (0 < q < 1) of v by linear
// interpolation between order statistics, and whether the sample supports
// it: at least tailSamples values must lie beyond the quantile.
func percentile(v []float64, q float64) (float64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	val := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	beyond := float64(len(s)) * (1 - q)
	return val, beyond >= tailSamples-1e-9
}

func median(v []float64) float64 {
	m, _ := percentile(v, 0.5)
	return m
}

// tickPercentile is percentile for values that were measured in whole
// ticks: a value k stands for a time somewhere in [k, k+1), so the
// quantile is interpolated inside the tick it falls in instead of being
// reported as the tick's lower edge. It keeps a p50 of thirty ticks from
// moving in steps of three percent.
func tickPercentile(ticks []int64, q float64) (float64, bool) {
	if len(ticks) == 0 {
		return 0, false
	}
	s := append([]int64(nil), ticks...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := q * float64(len(s)) // samples at or below the quantile
	i := int(rank)
	if i >= len(s) {
		i = len(s) - 1
	}
	k := s[i]
	below := sort.Search(len(s), func(j int) bool { return s[j] >= k })
	same := sort.Search(len(s), func(j int) bool { return s[j] > k }) - below
	val := float64(k) + (rank-float64(below))/float64(same)
	return val, float64(len(s))*(1-q) >= tailSamples-1e-9
}
