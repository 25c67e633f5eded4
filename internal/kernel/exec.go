package kernel

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"byteslice/internal/core"
	"byteslice/internal/obs"
)

// Fault-isolated kernel execution. Every exported column or row-batch
// kernel takes an Exec and runs through parallelRanges, which gives three
// guarantees the bare range loops do not:
//
//   - Cancellation: under a context, the work range is processed in
//     batches of batchRows scanned rows' worth of work; between batches
//     every worker observes the context, so a cancelled query stops within
//     one batch (128Ki scanned rows, or 8Ki looked-up rows or HBP banks,
//     per worker) instead of running the column to completion. Without
//     one, nothing can stop the range, and a worker runs it as one batch.
//   - Panic isolation: each batch runs under recover. A panic inside a
//     kernel — a latent bug, a corrupt layout — becomes a *PanicError
//     naming the failing range and is returned as an error from the
//     calling goroutine, instead of killing the process from a worker
//     goroutine no caller can defend.
//   - Accounting: with a Stage attached, every batch's wall time and the
//     fan-out width actually used are recorded. Batch times gather per
//     worker and reach the Stage's atomics once per worker range.
//
// The first failure wins; the other workers drain at their next batch
// boundary. A kernel that knows its answer before the range ends — an
// extreme that reached its domain bound — ends the fan-out the same way,
// without an error (parallelRangesUntil).

// Exec describes how one kernel invocation runs. The zero value is a
// serial, never-cancelled, uninstrumented run.
type Exec struct {
	// Ctx is observed between batches; nil means never cancelled.
	Ctx context.Context
	// Workers is the fan-out width; <= 1 runs on the calling goroutine.
	Workers int
	// Stage collects the invocation's statistics; nil disables them.
	Stage *obs.Stage
}

// batchRows is the cancellation granularity, in scanned rows. A batch pays
// a clock read, a ctx.Err (a mutex), a recover and a merge, about 0.15 µs;
// 128Ki rows is 4096 segments, tens of µs of AVX2 scan work, so that cost
// stays invisible, while a cancelled AVX2 scan still stops within tens of
// µs (DESIGN.md §8 lists each kernel's measured worst case).
// parallelRanges converts it to each caller's work unit (batchUnits): 4096
// segments, 256 compressed blocks, and for the kernels that touch a row at
// a time, weighted by rowCost, 256 lookup units or HBP super-banks.
const batchRows = 128 << 10

// rowCost is what a looked-up row, or an HBP bank word, costs in scanned
// rows, at the least: a random gather takes 9–30 ns a row and a bank
// evaluation 10–35 ns, an AVX2 scan row under 1 ns. Weighing their units
// by it keeps their batches at 8Ki rows or banks, so that a cancelled
// lookup or HBP scan stops within about 0.3 ms, while a batch's fixed
// cost stays far below 1% of its work.
const rowCost = 16

// batchUnits is the batch size in work units that each cost unitCost
// scanned rows. It is even and at least 2, so batches preserve the
// word-aligned segment partitioning the bit-vector stores rely on.
func batchUnits(unitCost int) int {
	return max((batchRows/unitCost)&^1, 2)
}

// PanicError reports a panic recovered inside a kernel worker, with the
// segment range it was processing.
type PanicError struct {
	SegLo, SegHi int
	Value        any
	Stack        []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("kernel: worker panic in segments [%d,%d): %v", e.SegLo, e.SegHi, e.Value)
}

// fanout coordinates one parallelRanges call: the first error
// (cancellation or panic), or a halt, stops every worker at its next
// batch boundary.
type fanout struct {
	ctx     context.Context
	st      *obs.Stage // nil = observability disabled
	stopped atomic.Bool
	mu      sync.Mutex
	err     error
}

func (f *fanout) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.stopped.Store(true)
}

// halt stops every worker at its next batch boundary without an error.
func (f *fanout) halt() { f.stopped.Store(true) }

// stop reports whether workers should cease scheduling new batches,
// folding a freshly-cancelled context into the recorded error.
func (f *fanout) stop() bool {
	if f.stopped.Load() {
		return true
	}
	if f.ctx != nil && f.ctx.Err() != nil {
		f.fail(f.ctx.Err())
		return true
	}
	return false
}

func (f *fanout) finish() error {
	f.stop() // fold in a cancellation that raced the last batch
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// protect runs fn over one batch under recover.
func protect[T any](lo, hi int, fn func(segLo, segHi int) T) (out T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{SegLo: lo, SegHi: hi, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(lo, hi), nil
}

// BatchHook, when non-nil, runs inside every worker batch (under the same
// panic isolation as the kernel itself). It exists purely as a test seam:
// fault-injection tests block in it to model a stuck segment source, or
// panic in it to model a kernel bug, without corrupting real column data.
// Never set outside tests.
var BatchHook func(segLo, segHi int)

// runRange executes fn over [lo, hi) in cancellation batches of step
// units with panic isolation, merging per-batch results via combine. When
// done is non-nil and reports the merged result final, it halts the
// fan-out.
func runRange[T any](f *fanout, lo, hi, step int, fn func(segLo, segHi int) T, combine func(T, T) T, done func(T) bool) T {
	run := fn
	hook := BatchHook
	if hook != nil {
		run = func(segLo, segHi int) T {
			hook(segLo, segHi)
			return fn(segLo, segHi)
		}
	}
	// With a stage, each batch is timed with one monotonic clock read — a
	// batch runs from the end of the one before it — and the times flush
	// once, when the range is done.
	var bt obs.BatchTimes
	var start time.Time
	var last time.Duration
	if f.st != nil {
		defer f.st.AddBatches(&bt)
		start = time.Now()
	}
	if f.ctx == nil && hook == nil {
		// No context to observe between batches: run the range in one
		// protected, timed call, as the bare range loop would. A stage
		// then records one batch per worker, and the query pays no
		// per-batch clock read, recover or merge.
		step = hi - lo
	}
	var acc T
	for b := lo; b < hi; b += step {
		if f.stop() {
			return acc
		}
		bhi := b + step
		if bhi > hi {
			bhi = hi
		}
		v, err := protect(b, bhi, run)
		if err != nil {
			f.fail(err)
			return acc
		}
		if f.st != nil {
			now := time.Since(start)
			bt.Observe(int64(now - last))
			last = now
		}
		acc = combine(acc, v)
		if done != nil && done(acc) {
			f.halt()
			return acc
		}
	}
	return acc
}

// parallelRanges partitions [0, segs) work units, each costing unitCost
// scanned rows, into even-aligned chunks across x.Workers goroutines
// (inline when one suffices), running fn in batches of batchRows scanned
// rows' worth under x.Ctx with panic isolation and merging results via
// combine. On error the zero T is returned: partial results of a failed
// fan-out are meaningless because an arbitrary suffix of the work never
// ran.
func parallelRanges[T any](x Exec, segs, unitCost int, fn func(segLo, segHi int) T, combine func(T, T) T) (T, error) {
	return parallelRangesUntil(x, segs, unitCost, fn, combine, nil)
}

// parallelRangesUntil is parallelRanges for a kernel that can know its
// answer early: once done reports a worker's merged result final, every
// worker stops at its next batch boundary, and the partials merge as
// usual, without an error. A nil done runs every batch.
func parallelRangesUntil[T any](x Exec, segs, unitCost int, fn func(segLo, segHi int) T, combine func(T, T) T, done func(T) bool) (T, error) {
	f := &fanout{ctx: x.Ctx, st: x.Stage}
	step := batchUnits(unitCost)
	var zero T
	workers := x.Workers
	if workers > segs {
		workers = segs
	}
	if workers < 1 {
		workers = 1
	}
	if x.Stage != nil {
		x.Stage.SetWorkers(workers)
	}
	if workers == 1 {
		v := runRange(f, 0, segs, step, fn, combine, done)
		if err := f.finish(); err != nil {
			return zero, err
		}
		return v, nil
	}
	chunk := chunkEven(segs, workers)
	partials := make([]T, (segs+chunk-1)/chunk)
	var wg sync.WaitGroup
	for i, lo := 0, 0; lo < segs; i, lo = i+1, lo+chunk {
		hi := lo + chunk
		if hi > segs {
			hi = segs
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			partials[i] = runRange(f, lo, hi, step, fn, combine, done)
		}(i, lo, hi)
	}
	wg.Wait()
	if err := f.finish(); err != nil {
		return zero, err
	}
	acc := partials[0]
	for _, p := range partials[1:] {
		acc = combine(acc, p)
	}
	return acc, nil
}

// chunkEven returns the per-worker chunk size (in segments) used to
// partition segs segments across workers. Two segments share one 64-bit
// word of the result vector; aligning chunk boundaries to even segment
// numbers keeps each word owned by exactly one worker (no write races).
func chunkEven(segs, workers int) int {
	return ((segs+workers-1)/workers + 1) &^ 1
}

// parallelRows runs fn over the row-index ranges of an n-row lookup.
// Rows are grouped SegmentSize to a work unit, so lookups fan out, batch
// (8Ki rows: a looked-up row costs rowCost scanned rows), cancel and
// isolate panics exactly like the segment kernels.
func parallelRows(x Exec, n int, fn func(lo, hi int)) error {
	units := (n + core.SegmentSize - 1) / core.SegmentSize
	_, err := parallelRanges(x, units, rowCost*core.SegmentSize, func(lo, hi int) struct{} {
		lo, hi = lo*core.SegmentSize, hi*core.SegmentSize
		if hi > n {
			hi = n
		}
		fn(lo, hi)
		return struct{}{}
	}, dropUnit)
	return err
}

func addInt(a, b int) int { return a + b }

func addUint64(a, b uint64) uint64 { return a + b }

func dropUnit(a, _ struct{}) struct{} { return a }

// sumPartial carries one range's sum (padded, for a ByteSlice column),
// survivor count and stage counts through the merge.
type sumPartial struct {
	padded uint64
	count  int
	aggCounts
}

func addSum(a, b sumPartial) sumPartial {
	return sumPartial{a.padded + b.padded, a.count + b.count, a.aggCounts.add(b.aggCounts)}
}

// extPartial carries one range's extreme candidate and stage counts
// through the merge.
type extPartial struct {
	v  uint32
	ok bool
	aggCounts
}

func mergeExtreme(isMin bool) func(a, b extPartial) extPartial {
	return func(a, b extPartial) extPartial {
		out := a
		if !a.ok || (b.ok && isMin == (b.v < a.v)) {
			out = b
		}
		out.aggCounts = a.aggCounts.add(b.aggCounts)
		return out
	}
}
