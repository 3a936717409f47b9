//go:build !race

package tensor

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false

// raceTile is a no-op without the race detector (see race.go).
func raceTile(out, a, b, init []float64) {}
