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

// racePool tells the race detector about the memory the pool kernel is
// about to touch: the reads of src and the writes of dst and argmax.
func racePool(dst []float64, argmax []int, src []float64) {
	raceRead(src)
	if len(dst) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&dst[0]), len(dst)*8)
	}
	if len(argmax) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&argmax[0]), len(argmax)*int(unsafe.Sizeof(argmax[0])))
	}
}

// racePoolGrad tells the race detector about the memory the pool
// gradient kernel is about to touch: the reads of grad and argmax and
// the writes of dx.
func racePoolGrad(dx, grad []float64, argmax []int) {
	raceRead(grad)
	if len(argmax) > 0 {
		runtime.RaceReadRange(unsafe.Pointer(&argmax[0]), len(argmax)*int(unsafe.Sizeof(argmax[0])))
	}
	if len(dx) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&dx[0]), len(dx)*8)
	}
}

func raceRead(s []float64) {
	if len(s) > 0 {
		runtime.RaceReadRange(unsafe.Pointer(&s[0]), len(s)*8)
	}
}
