//go:build race

package tensor

import (
	"runtime"
	"unsafe"
)

// raceEnabled reports that this binary was built with -race, where
// sync.Pool deliberately drops items at random (to widen race coverage)
// and steady-state allocation counts stop being deterministic.
const raceEnabled = true

// raceTile tells the race detector about the memory an assembly tile is
// about to touch, which it cannot see by itself: the reads of a, b and
// init and the writes of out, each a slice gemmAVX2 has bounds-checked.
func raceTile(out, a, b, init []float64) {
	raceRead(a)
	raceRead(b)
	raceRead(init)
	if len(out) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&out[0]), len(out)*8)
	}
}

func raceRead(s []float64) {
	if len(s) > 0 {
		runtime.RaceReadRange(unsafe.Pointer(&s[0]), len(s)*8)
	}
}
