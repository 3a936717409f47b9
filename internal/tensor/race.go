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
	raceWrite(out)
}

// racePool tells the race detector about the memory the pool kernel is
// about to touch: the reads of src and the writes of dst and argmax.
func racePool(dst []float64, argmax []int, src []float64) {
	raceRead(src)
	raceWrite(dst)
	raceWriteInts(argmax)
}

// racePoolGrad tells the race detector about the memory the pool
// gradient kernel is about to touch: the reads of grad and argmax and
// the writes of dx.
func racePoolGrad(dx, grad []float64, argmax []int) {
	raceRead(grad)
	raceReadInts(argmax)
	raceWrite(dx)
}

// raceTapRows tells the race detector about the memory the filter
// gradient's tap-row kernel is about to touch: the reads of xp and taps
// and the writes of dw. The nonzero list it also reads lives on its
// caller's stack, where no other goroutine can reach it, and reporting
// it would move it to the heap.
func raceTapRows(dw, xp []float64, taps []int) {
	raceRead(xp)
	raceReadInts(taps)
	raceWrite(dw)
}

// raceScan tells the race detector about the memory the nonzero scan is
// about to read: row and pos. The list it writes lives on its caller's
// stack (see raceTapRows).
func raceScan(row []float64, pos []int) {
	raceRead(row)
	raceReadInts(pos)
}

// raceAdd tells the race detector about the memory the tap-row add
// kernel is about to touch: the reads of src and the writes of dst.
func raceAdd(dst, src []float64) {
	raceRead(src)
	raceWrite(dst)
}

func raceRead(s []float64) {
	if len(s) > 0 {
		runtime.RaceReadRange(unsafe.Pointer(&s[0]), len(s)*8)
	}
}

func raceWrite(s []float64) {
	if len(s) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&s[0]), len(s)*8)
	}
}

func raceReadInts(s []int) {
	if len(s) > 0 {
		runtime.RaceReadRange(unsafe.Pointer(&s[0]), len(s)*int(unsafe.Sizeof(s[0])))
	}
}

func raceWriteInts(s []int) {
	if len(s) > 0 {
		runtime.RaceWriteRange(unsafe.Pointer(&s[0]), len(s)*int(unsafe.Sizeof(s[0])))
	}
}
