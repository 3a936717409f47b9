package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the minimum volume of work before a kernel is
// fanned out; below it the serial path wins. Each caller picks its unit:
// multiply-adds for the matmuls and the convolution, elements copied
// for ConcatRows and SplitRows, elements for nn's ReLU and windows for
// its max-pool. The units are not one cost: on a 2-CPU host 2^16
// multiply-adds take ≈ 8 µs on the AVX2 tile and ≈ 45 µs on the Go tile
// (gemm.go), and a ReLU forward over 2^16 elements ≈ 170 µs. A fan-out
// costs a worker's wake-up, and a caller that did every range itself
// still waits for the worker it woke; at GOMAXPROCS 2, ReLU
// forward+backward and pool forward+backward measured serial-faster
// below 2^16 elements or windows, about even at 2^16 and 1.2–1.5×
// faster fanned at 2^17 (DESIGN.md §3.9). The tiny test scale's largest
// kernel (55k multiply-adds) stays serial.
const parallelThreshold = 1 << 16

// ParallelFor runs body(ctx, lo, hi) over contiguous ranges that
// together cover [0, n) exactly once, and returns when all have run.
// work is the caller's estimate of the total cost (see
// parallelThreshold): below the threshold, or at GOMAXPROCS 1, body runs
// once over [0, n) on the caller.
//
// Otherwise [0, n) is split into min(GOMAXPROCS, n) ranges, fixed by n
// and GOMAXPROCS alone. The caller claims ranges itself and offers the
// call to the package's workers, which are started once at package init
// and never per call: an idle worker joins in, a busy one is not waited
// for. So concurrent callers share one fixed worker set and cannot
// oversubscribe the CPUs, and a caller inside a testing/synctest bubble
// neither owns the workers nor strands them. The call's descriptor and
// its WaitGroup are pooled, so a warm call allocates nothing as long as
// body and ctx do not (a package-level func and a pointer ctx).
//
// Rule for bodies: split outputs, never a reduction. Each range must
// write only its own outputs, and compute each of them exactly as the
// serial whole would, so results are bit-identical at every GOMAXPROCS.
// A body must not call ParallelFor itself: the kernels never do, and a
// nested call gains nothing, since the workers are busy with the outer
// one. It is still safe — every caller can finish its own ranges alone,
// so it cannot deadlock — and TestParallelForNested checks that.
func ParallelFor(n, work int, body func(ctx any, lo, hi int), ctx any) {
	if n <= 0 {
		return
	}
	parts := partsFor(n, work)
	if parts == 1 {
		body(ctx, 0, n)
		return
	}
	j := getJob()
	j.ctx = ctx
	j.run(n, parts, body)
	j.ctx = nil
	putJob(j)
}

// forOperands is ParallelFor for the package's own kernels: the
// operands travel in the pooled descriptor, and body receives a pointer
// to them as its ctx.
func forOperands(n, work int, op operands, body func(ctx any, lo, hi int)) {
	runOperands(n, partsFor(n, work), op, body)
}

// runOperands is forOperands over a split the caller has fixed: parts
// ranges, as partsFor returned them.
func runOperands(n, parts int, op operands, body func(ctx any, lo, hi int)) {
	if n <= 0 {
		return
	}
	j := getJob()
	j.op = op
	j.ctx = &j.op
	j.run(n, parts, body)
	j.op, j.ctx = operands{}, nil
	putJob(j)
}

// operands carries a tensor kernel's arguments to its ranges.
type operands struct {
	dst, a, b []float64
	// padded, scratch and bias are a convolution's padded input, its
	// ranges' scratch and its bias (or bias gradient), taps and pos its
	// tap and output-position offsets and parts its split.
	padded, scratch, bias []float64
	taps, pos             []int
	m, k, n, parts        int
	g                     ConvGeom
}

// partsFor returns how many ranges [0, n) is split into.
func partsFor(n, work int) int {
	if work < parallelThreshold {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n)
}

// job is one ParallelFor call in flight.
type job struct {
	body     func(ctx any, lo, hi int)
	ctx      any
	op       operands
	n, parts int
	next     atomic.Int64   // next unclaimed range
	wg       sync.WaitGroup // unfinished ranges plus workers still holding the job
}

var (
	// freeJobs pools finished descriptors. Unlike a sync.Pool it keeps
	// them across GCs and under the race detector, so a warm call
	// allocates nothing, deterministically. A layer stack has one call in
	// flight at a time, so 64 covers far more stacks than a process runs
	// at once; a descriptor beyond that is left to the GC.
	freeJobs = make(chan *job, 64)
	// offers hands a job to an idle worker. It is unbuffered: a send
	// succeeds only while a worker is parked on it, so a caller never
	// waits behind another caller's work.
	offers = make(chan *job)
)

func getJob() *job {
	select {
	case j := <-freeJobs:
		return j
	default:
		return new(job)
	}
}

func putJob(j *job) {
	select {
	case freeJobs <- j:
	default:
	}
}

// The workers: one per CPU beyond the caller's own, started here so
// that no caller ever starts, owns or stops one.
func init() {
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for j := range offers {
				j.claim()
				j.wg.Done()
			}
		}()
	}
}

// run executes body over parts ranges of [0, n), on the caller and on
// whichever workers are idle, and returns when every range has run and
// no worker holds the job any more.
func (j *job) run(n, parts int, body func(ctx any, lo, hi int)) {
	j.body, j.n, j.parts = body, n, parts
	j.next.Store(0)
	j.wg.Add(parts)
	for h := 1; h < parts && j.offer(); h++ {
	}
	j.claim()
	j.wg.Wait()
	j.body = nil
}

// offer hands j to an idle worker, and reports false when none is.
func (j *job) offer() bool {
	j.wg.Add(1)
	select {
	case offers <- j:
		return true
	default:
		j.wg.Done()
		return false
	}
}

// claim runs unclaimed ranges until none is left.
func (j *job) claim() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.parts {
			return
		}
		j.body(j.ctx, i*j.n/j.parts, (i+1)*j.n/j.parts)
		j.wg.Done()
	}
}
