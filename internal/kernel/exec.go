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
//   - Cancellation: the work range is processed in batches of
//     batchSegments; between batches every worker observes the context, so
//     a cancelled query stops within one batch (~8K rows per worker)
//     instead of running the column to completion.
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
// boundary.

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

// batchSegments is the cancellation granularity: 256 segments = 8192 codes
// per check, coarse enough to stay invisible in scan throughput and fine
// enough to stop a multi-million-row scan in microseconds. It is even, so
// batches preserve the word-aligned segment partitioning the bit-vector
// stores rely on.
const batchSegments = 256

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
// (cancellation or panic) stops every worker at its next batch boundary.
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

// runRange executes fn over [lo, hi) in cancellation batches with panic
// isolation, merging per-batch results via combine.
func runRange[T any](f *fanout, lo, hi int, fn func(segLo, segHi int) T, combine func(T, T) T) T {
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
	step := batchSegments
	if f.ctx == nil && f.st == nil && hook == nil {
		// Nothing to observe between batches: run the range in one
		// protected call, as the bare range loop would.
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
	}
	return acc
}

// parallelRanges partitions [0, segs) into even-aligned chunks across
// x.Workers goroutines (inline when one suffices), running fn batch-wise
// under x.Ctx with panic isolation and merging results via combine. On
// error the zero T is returned: partial results of a failed fan-out are
// meaningless because an arbitrary suffix of the work never ran.
func parallelRanges[T any](x Exec, segs int, fn func(segLo, segHi int) T, combine func(T, T) T) (T, error) {
	f := &fanout{ctx: x.Ctx, st: x.Stage}
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
		v := runRange(f, 0, segs, fn, combine)
		if err := f.finish(); err != nil {
			return zero, err
		}
		return v, nil
	}
	chunk := core.ChunkEven(segs, workers)
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
			partials[i] = runRange(f, lo, hi, fn, combine)
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

// parallelRows runs fn over the row-index ranges of an n-row lookup.
// Rows are grouped SegmentSize to a work unit, so lookups fan out, batch
// (8192 rows), cancel and isolate panics exactly like the segment kernels.
func parallelRows(x Exec, n int, fn func(lo, hi int)) error {
	units := (n + core.SegmentSize - 1) / core.SegmentSize
	_, err := parallelRanges(x, units, func(lo, hi int) struct{} {
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

// sumPartial carries one range's padded sum and survivor count through
// the merge.
type sumPartial struct {
	padded uint64
	count  int
}

func addSum(a, b sumPartial) sumPartial { return sumPartial{a.padded + b.padded, a.count + b.count} }

// extPartial carries one range's extreme candidate through the merge.
type extPartial struct {
	v  uint32
	ok bool
}

func mergeExtreme(isMin bool) func(a, b extPartial) extPartial {
	return func(a, b extPartial) extPartial {
		switch {
		case !a.ok:
			return b
		case !b.ok:
			return a
		case isMin == (b.v < a.v):
			return b
		default:
			return a
		}
	}
}
