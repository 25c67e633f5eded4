package byteslice_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	bs "byteslice"
	"byteslice/internal/kernel"
)

// ctxTable builds a native (unprofiled) table big enough that every query
// spans many kernel cancellation batches.
func ctxTable(t *testing.T, n int) *bs.Table {
	t.Helper()
	vals := make([]int64, n)
	amounts := make([]float64, n)
	for i := range vals {
		vals[i] = int64(i % 1000)
		amounts[i] = float64(i%500) / 10
	}
	c1, err := bs.NewIntColumn("v", vals, 0, 999)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := bs.NewDecimalColumn("amt", amounts, 0, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bs.NewTable(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestQueryContextCancel: a cancelled context stops a parallel native scan
// early. The kernel batch hook stands in for a stuck segment source — it
// blocks every worker until cancellation, so a scan that ignored the
// context would hang, and one that polled it only at the end would run all
// batches.
func TestQueryContextCancel(t *testing.T) {
	tab := ctxTable(t, 1<<19)
	ctx, cancel := context.WithCancel(context.Background())
	var batches atomic.Int32
	started := make(chan struct{}, 1)
	kernel.BatchHook = func(int, int) {
		batches.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
	}
	defer func() { kernel.BatchHook = nil }()

	type out struct {
		res *bs.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := tab.Filter([]bs.Filter{bs.IntFilter("v", bs.Lt, 500)}, bs.WithContext(ctx))
		done <- out{res, err}
	}()
	<-started
	cancel()
	got := <-done
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("Filter err = %v, want context.Canceled", got.err)
	}
	if got.res != nil {
		t.Fatal("cancelled Filter still returned a result")
	}
	// Far fewer batches than the full scan (the column has thousands).
	if n := int(batches.Load()); n > 64 {
		t.Fatalf("%d batches ran after cancellation", n)
	}
}

// TestQueryContextPreCancelled: every query entry point refuses to start
// under an already-cancelled context.
func TestQueryContextPreCancelled(t *testing.T) {
	tab := ctxTable(t, 1<<12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := bs.WithContext(ctx)
	f := []bs.Filter{bs.IntFilter("v", bs.Lt, 500)}

	if _, err := tab.Filter(f, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("Filter: %v", err)
	}
	if _, err := tab.Query(bs.Leaf(bs.IntFilter("v", bs.Lt, 500)), opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query: %v", err)
	}
	if _, _, err := tab.SumInt("v", nil, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("SumInt: %v", err)
	}
	if _, _, err := tab.MinInt("v", nil, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinInt: %v", err)
	}
	if _, err := tab.SumIntBy("v", "v", nil, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("SumIntBy: %v", err)
	}

	res, err := tab.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.ProjectInt("v", res, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProjectInt: %v", err)
	}
	if _, err := tab.OrderBy("v", res, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("OrderBy: %v", err)
	}
	if _, err := tab.Top("v", res, 10, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("Top: %v", err)
	}
}

// TestQueryWorkerPanicIsError: a panic inside a kernel worker surfaces as
// a query error wrapping ErrQueryFault and naming the failing segment
// range — the process does not crash.
func TestQueryWorkerPanicIsError(t *testing.T) {
	tab := ctxTable(t, 1<<16)
	kernel.BatchHook = func(int, int) { panic("injected kernel bug") }
	defer func() { kernel.BatchHook = nil }()

	_, err := tab.Filter([]bs.Filter{bs.IntFilter("v", bs.Lt, 500)})
	if !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("Filter err = %v, want ErrQueryFault", err)
	}
	if !strings.Contains(err.Error(), "segments [") {
		t.Fatalf("error %q does not name the failing segment range", err)
	}

	if _, _, err := tab.SumInt("v", nil); !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("SumInt err = %v, want ErrQueryFault", err)
	}
	if _, _, err := tab.MaxInt("v", nil); !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("MaxInt err = %v, want ErrQueryFault", err)
	}
	if _, err := tab.SumIntBy("v", "v", nil); !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("SumIntBy err = %v, want ErrQueryFault", err)
	}

	// The native sort and top-n loops run in protected batches too.
	kernel.BatchHook = nil
	res, err := tab.Filter([]bs.Filter{bs.IntFilter("v", bs.Lt, 500)})
	if err != nil {
		t.Fatal(err)
	}
	kernel.BatchHook = func(int, int) { panic("injected kernel bug") }
	if _, err := tab.Top("v", res, 10); !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("Top err = %v, want ErrQueryFault", err)
	}
	if _, err := tab.OrderBy("v", res); !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("OrderBy err = %v, want ErrQueryFault", err)
	}
}

// TestCompressedProjectPanicIsError: the compressed layout's block-decoding
// lookup runs under the same protected row batches as the other layouts,
// so a fault while materialising a projection or an ORDER BY surfaces as
// ErrQueryFault instead of escaping the library.
func TestCompressedProjectPanicIsError(t *testing.T) {
	const n = 1 << 14
	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i / 8)
	}
	c, err := bs.NewIntColumn("v", sorted, 0, n/8, bs.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	if c.Format() != bs.FormatByteSliceC {
		t.Fatalf("sorted column stayed %s, want %s", c.Format(), bs.FormatByteSliceC)
	}
	tab, err := bs.NewTable(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tab.Filter([]bs.Filter{bs.IntFilter("v", bs.Lt, n/16)})
	if err != nil {
		t.Fatal(err)
	}
	kernel.BatchHook = func(int, int) { panic("corrupt block") }
	defer func() { kernel.BatchHook = nil }()
	if _, _, err := tab.ProjectInt("v", res); !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("ProjectInt err = %v, want ErrQueryFault", err)
	}
	if _, err := tab.OrderBy("v", res); !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("OrderBy err = %v, want ErrQueryFault", err)
	}
	if _, err := tab.Top("v", res, 5); !errors.Is(err, bs.ErrQueryFault) {
		t.Fatalf("Top err = %v, want ErrQueryFault", err)
	}
}

// TestQueryContextLiveIsNoop: attaching a live context changes nothing
// about results.
func TestQueryContextLiveIsNoop(t *testing.T) {
	tab := ctxTable(t, 1<<14+7)
	f := []bs.Filter{bs.IntFilter("v", bs.Lt, 500)}
	plain, err := tab.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := tab.Filter(f, bs.WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Count() != withCtx.Count() {
		t.Fatalf("count with ctx %d, without %d", withCtx.Count(), plain.Count())
	}
	sum1, n1, err := tab.SumInt("v", plain)
	if err != nil {
		t.Fatal(err)
	}
	sum2, n2, err := tab.SumInt("v", withCtx, bs.WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum2 || n1 != n2 {
		t.Fatalf("SumInt with ctx (%d, %d), without (%d, %d)", sum2, n2, sum1, n1)
	}
}
