package kernel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
	"byteslice/internal/obs"
)

// execColumn builds a native column large enough that every worker has
// many cancellation batches to run.
func execColumn(t *testing.T, n int) *core.ByteSlice {
	t.Helper()
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(i % 1000)
	}
	return core.New(codes, 10, nil)
}

func execPred(t *testing.T, b *core.ByteSlice) layout.Predicate {
	t.Helper()
	return layout.Predicate{Op: layout.Lt, C1: 500}
}

// TestCtxScanMatchesSerial asserts a scan under a live context on four
// workers matches the serial, context-free scan.
func TestCtxScanMatchesSerial(t *testing.T) {
	b := execColumn(t, 10_000)
	p := execPred(t, b)
	want := bitvec.New(b.Len())
	mustScan(t, Exec{}, b, p, nil, false, want)
	got := bitvec.New(b.Len())
	if _, err := Scan(Exec{Ctx: context.Background(), Workers: 4}, b, p, nil, false, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("row %d: ctx scan %v, serial %v", i, got.Get(i), want.Get(i))
		}
	}
}

// TestCancelStopsEarly blocks every worker batch on a fake segment source
// that never delivers until the context is cancelled, then asserts the scan
// returns the context error after only the in-flight batches ran —
// cancellation at batch granularity, not after the full column.
func TestCancelStopsEarly(t *testing.T) {
	b := execColumn(t, 16*batchRows) // 16 batches minimum
	p := execPred(t, b)
	out := bitvec.New(b.Len())

	ctx, cancel := context.WithCancel(context.Background())
	var batches atomic.Int32
	started := make(chan struct{}, 1)
	BatchHook = func(segLo, segHi int) {
		batches.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // the stuck segment source: blocks until cancel
	}
	defer func() { BatchHook = nil }()

	done := make(chan error, 1)
	workers := 4
	go func() {
		_, err := Scan(Exec{Ctx: ctx, Workers: workers}, b, p, nil, false, out)
		done <- err
	}()
	<-started
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Only the batches already in flight when cancel hit may have run: at
	// most one per worker, far below the total.
	if n := int(batches.Load()); n > workers {
		t.Fatalf("%d batches ran after cancellation, want <= %d", n, workers)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	b := execColumn(t, 10_000)
	p := execPred(t, b)
	out := bitvec.New(b.Len())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var batches atomic.Int32
	BatchHook = func(int, int) { batches.Add(1) }
	defer func() { BatchHook = nil }()
	if _, err := Scan(Exec{Ctx: ctx, Workers: 4}, b, p, nil, false, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := batches.Load(); n != 0 {
		t.Fatalf("%d batches ran under a pre-cancelled context", n)
	}
}

// TestWorkerPanicBecomesError injects a panic into one worker batch and
// asserts it surfaces as a *PanicError naming the failing segment range,
// from the calling goroutine — not a process crash.
func TestWorkerPanicBecomesError(t *testing.T) {
	b := execColumn(t, 8*batchRows)
	p := execPred(t, b)
	out := bitvec.New(b.Len())
	batch := batchUnits(core.SegmentSize)
	BatchHook = func(segLo, segHi int) {
		if segLo == batch { // second batch of the first worker
			panic("injected kernel bug")
		}
	}
	defer func() { BatchHook = nil }()
	_, err := Scan(Exec{Workers: 2}, b, p, nil, false, out)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.SegLo != batch || pe.SegHi != 2*batch {
		t.Fatalf("failing range [%d,%d), want [%d,%d)", pe.SegLo, pe.SegHi, batch, 2*batch)
	}
	if !strings.Contains(pe.Error(), "injected kernel bug") {
		t.Fatalf("error %q does not name the panic value", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack trace")
	}
}

// TestCtxAggregates: cancellation holds for every kernel entry, not just
// the plain scan, and a live context changes no result.
func TestCtxAggregates(t *testing.T) {
	b := execColumn(t, 10_000)
	p := execPred(t, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := Exec{Ctx: ctx, Workers: 4}

	if _, _, err := Sum(x, b, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sum: %v", err)
	}
	if _, _, err := Extreme(x, b, nil, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("Extreme: %v", err)
	}
	rows := []int32{0, 1, 2}
	codes := make([]uint32, len(rows))
	if err := LookupMany(x, b, rows, codes); !errors.Is(err, context.Canceled) {
		t.Fatalf("LookupMany: %v", err)
	}

	// And with a live context they agree with the serial kernels.
	live := Exec{Ctx: context.Background(), Workers: 4}
	sum, n := mustSum(t, live, b, nil)
	wantSum, wantN := mustSum(t, Exec{}, b, nil)
	if sum != wantSum || n != wantN {
		t.Fatalf("Sum = (%d, %d), want (%d, %d)", sum, n, wantSum, wantN)
	}
	m := bitvec.New(b.Len())
	mustScan(t, Exec{}, b, p, nil, false, m)
	v, ok := mustExtreme(t, live, b, m, false)
	wantV, wantOK := mustExtreme(t, Exec{}, b, m, false)
	if v != wantV || ok != wantOK {
		t.Fatalf("Extreme = (%d, %v), want (%d, %v)", v, ok, wantV, wantOK)
	}
}

// TestCtxZonedScans: the zoned and pipelined scan shapes propagate
// cancellation and still report prune counts when live.
func TestCtxZonedScans(t *testing.T) {
	b := execColumn(t, 10_000)
	b.BuildZoneMaps()
	p := execPred(t, b)
	out := bitvec.New(b.Len())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := Exec{Ctx: ctx, Workers: 4}
	if _, err := Scan(x, b, p, nil, false, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("zoned Scan: %v", err)
	}
	prev := bitvec.New(b.Len())
	prev.Fill()
	if _, err := Scan(x, b, p, prev, false, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("pipelined zoned Scan: %v", err)
	}
	unzoned := execColumn(t, 10_000)
	if _, err := Scan(x, unzoned, p, prev, false, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("pipelined Scan: %v", err)
	}

	got := mustScan(t, Exec{Ctx: context.Background(), Workers: 4}, b, p, nil, false, out)
	want := mustScan(t, Exec{}, b, p, nil, false, bitvec.New(b.Len()))
	if got != want {
		t.Fatalf("zoned prune count %d, want %d", got, want)
	}
}

// TestServedBatchCount: a served query runs its kernels under a context
// and a stage, so they run in cancellation batches. On a 4Mi-row column
// a Scan and a Sum must run at most 32 per worker — batchRows rows each —
// so that a batch's clock read, ctx.Err, recover and merge stay small next
// to its AVX2 work; and across those batch edges they must answer exactly
// what one call without a context does, on every path, the Sum both over
// the scan's matches and over live runs placed across every batch edge.
func TestServedBatchCount(t *testing.T) {
	const n = 4 << 20
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(i % 251)
	}
	b := core.New(codes, 8, nil)
	p := layout.Predicate{Op: layout.Lt, C1: 25}
	want := bitvec.New(n)
	mustScan(t, Exec{}, b, p, nil, false, want)
	batch := batchUnits(core.SegmentSize) * core.SegmentSize
	edges := bitvec.New(n)
	for e := batch; e < n; e += batch {
		for i := e - 100; i < e+70; i++ {
			edges.Set(i, true)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 2} {
		x := Exec{Ctx: ctx, Workers: workers, Stage: obs.NewQuery().NewStage("scan", "scan")}
		got := bitvec.New(n)
		mustScan(t, x, b, p, nil, false, got)
		if s := x.Stage.Snapshot(); s.Batches > int64(32*workers) || s.Batches < 2 {
			t.Errorf("workers=%d: Scan ran %d batches, want 2 to %d", workers, s.Batches, 32*workers)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: Scan in batches differs from one call", workers)
		}
		for _, mask := range []*bitvec.Vector{want, edges} {
			wantSum, wantCount := mustSum(t, Exec{}, b, mask)
			x.Stage = obs.NewQuery().NewStage("sum", "sum")
			sum, count := mustSum(t, x, b, mask)
			if s := x.Stage.Snapshot(); s.Batches > int64(32*workers) || s.Batches < 2 {
				t.Errorf("workers=%d: Sum ran %d batches, want 2 to %d", workers, s.Batches, 32*workers)
			}
			if sum != wantSum || count != wantCount {
				t.Fatalf("workers=%d: Sum in batches = %d/%d, one call %d/%d", workers, sum, count, wantSum, wantCount)
			}
		}
	}
}

// TestRowKernelBatches: a looked-up row or an HBP bank costs far more
// than a scanned row, so the lookups and the HBP scan weigh their units by
// rowCost and batch 8Ki rows or banks: a cancelled lookup or HBP scan stops
// within about 0.1 ms, not the 1–1.6 ms a batch of batchRows of them takes.
func TestRowKernelBatches(t *testing.T) {
	const n = 5*8192 - 100 // five batches, the last one short
	codes := make([]uint32, n)
	rows := make([]int32, n)
	for i := range codes {
		codes[i] = uint32(i) * 2654435761
		rows[i] = int32(i)
	}
	b := core.New(codes, 32, nil)
	h := hbp.New(codes, 32, nil) // one code per bank
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	vals := make([]uint32, n)
	for name, run := range map[string]func(x Exec) error{
		"LookupMany":    func(x Exec) error { return LookupMany(x, b, rows, vals) },
		"LookupManyHBP": func(x Exec) error { return LookupManyHBP(x, h, rows, vals) },
		"ScanHBP":       func(x Exec) error { return ScanHBP(x, h, layout.Predicate{Op: layout.Lt, C1: 1 << 31}, bitvec.New(n)) },
	} {
		x := Exec{Ctx: ctx, Workers: 1, Stage: obs.NewQuery().NewStage(name, name)}
		if err := run(x); err != nil {
			t.Fatal(err)
		}
		if got := x.Stage.Snapshot().Batches; got != 5 {
			t.Errorf("%s over %d rows ran %d batches, want 5 of 8Ki rows", name, n, got)
		}
	}
}
