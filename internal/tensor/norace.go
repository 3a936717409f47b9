//go:build !race

package tensor

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false

// raceTile is a no-op without the race detector (see race.go).
func raceTile(out, a, b, init []float64) {}

// racePool is a no-op without the race detector (see race.go).
func racePool(dst []float64, argmax []int, src []float64) {}

// racePoolGrad is a no-op without the race detector (see race.go).
func racePoolGrad(dx, grad []float64, argmax []int) {}

// raceTapRows is a no-op without the race detector (see race.go).
func raceTapRows(dw, xp []float64, taps []int) {}

// raceScan is a no-op without the race detector (see race.go).
func raceScan(row []float64, pos []int) {}

// raceAdd is a no-op without the race detector (see race.go).
func raceAdd(dst, src []float64) {}
