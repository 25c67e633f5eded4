package byteslice_test

import (
	"fmt"
	"testing"

	"byteslice"
)

// BenchmarkFilterObservability pairs the same zoned Between scan with
// observability on (the default) and off, so `go test -bench
// Observability` shows the per-query cost of the depth/zone accounting
// side by side. The design target is <2% on a full-column scan: the hot
// loops only carry a nil-checked depth-histogram pointer, and counters
// flush to atomics once per 256-segment batch.
func BenchmarkFilterObservability(b *testing.B) {
	const n = 1 << 20
	tbl := overheadTable(b, n)
	f := []byteslice.Filter{byteslice.IntFilter("a", byteslice.Between, 1000, 2000)}
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("obs=%v", on), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				res, err := tbl.Filter(f, byteslice.WithObservability(on))
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Count()
			}
		})
	}
}

// TestObservabilityOverhead guards the "<2% when disabled" contract: a
// scan with observability explicitly disabled must run within a generous
// envelope of the default-on path. The hard sub-2% number comes from the
// benchmark above on quiet hardware; this test only catches the failure
// mode that matters in CI — the disabled path accidentally picking up the
// instrumented loops (or the instrumented path growing per-segment atomic
// traffic), either of which shows up as a gross, not marginal, gap.
func TestObservabilityOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	const n = 1 << 20
	tbl := overheadTable(t, n)
	f := []byteslice.Filter{byteslice.IntFilter("a", byteslice.Between, 1000, 2000)}

	measure := func(on bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := tbl.Filter(f, byteslice.WithObservability(on))
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Count()
			}
		})
		return float64(r.NsPerOp())
	}

	// Interleave and keep the best of three per mode: shared CI runners
	// make single timings useless, minima are stable.
	off, on := measure(false), measure(true)
	for i := 0; i < 2; i++ {
		if v := measure(false); v < off {
			off = v
		}
		if v := measure(true); v < on {
			on = v
		}
	}
	ratio := on / off
	t.Logf("scan ns/op: obs off %.0f, obs on %.0f, ratio %.3f", off, on, ratio)
	// 1.5x is deliberately far looser than the 2% design target — loop
	// shapes regressions arrive as integer factors, not percentages, and
	// anything tighter flakes on loaded runners.
	if ratio > 1.5 {
		t.Fatalf("observability overhead ratio %.2f exceeds 1.5x (off %.0fns, on %.0fns)", ratio, off, on)
	}
}

// TestFilterAllocs pins the heap allocations of one native Filter on one
// worker, with observability off and on. A native query builds no
// modelled engine, and an observed one folds its live collector into the
// registry without snapshotting it.
func TestFilterAllocs(t *testing.T) {
	tbl := overheadTable(t, 1<<20)
	f := []byteslice.Filter{byteslice.IntFilter("a", byteslice.Between, 1000, 2000)}
	for _, c := range []struct {
		on  bool
		max float64
	}{{false, 15}, {true, 19}} {
		opts := []byteslice.QueryOption{byteslice.WithObservability(c.on), byteslice.WithParallelism(1)}
		got := testing.AllocsPerRun(100, func() {
			res, err := tbl.Filter(f, opts...)
			if err != nil {
				t.Fatal(err)
			}
			_ = res.Count()
		})
		if got > c.max {
			t.Errorf("observability %v: %.0f allocations per Filter, want at most %.0f", c.on, got, c.max)
		}
	}
}

// overheadTable builds a 17-bit sorted zone-mapped column large enough
// that the scan dominates query setup.
func overheadTable(tb testing.TB, n int) *byteslice.Table {
	tb.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 100000)
	}
	c, err := byteslice.NewIntColumn("a", vals, 0, 100000, byteslice.WithZoneMaps())
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := byteslice.NewTable(c)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}
