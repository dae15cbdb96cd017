//go:build !race

package aa

// raceEnabled is true in a -race build (race_test.go).
const raceEnabled = false
