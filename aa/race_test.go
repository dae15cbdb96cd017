//go:build race

package aa

// raceEnabled is true in a -race build, whose sync.Pool drops pooled
// values at random: an allocation pin on a pooled path does not hold there.
const raceEnabled = true
