package kernel

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
	"byteslice/internal/layout/layouttest"
	"byteslice/internal/obs"
)

// TestLookupHBPParity pins the native HBP lookup kernels bit-identical to
// the source codes and to the modelled hbp.HBP.Lookup across all widths.
func TestLookupHBPParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11)) //nolint:gosec // deterministic test
	e := layouttest.Engine()
	for _, k := range layouttest.Widths {
		for _, n := range []int{1, 3, 31, 32, 33, 1000} {
			codes := layouttest.RandomCodes(rng, n, k, "uniform")
			h := hbp.New(codes, k, nil)
			rows := make([]int32, n)
			for i := range rows {
				rows[i] = int32(rng.IntN(n))
			}
			out := make([]uint32, n)
			if err := LookupManyHBP(Exec{}, h, rows, out); err != nil {
				t.Fatal(err)
			}
			for x, r := range rows {
				if out[x] != codes[r] {
					t.Fatalf("k=%d n=%d LookupManyHBP row %d: got %d want %d", k, n, r, out[x], codes[r])
				}
			}
			for i := 0; i < n; i++ {
				if got := LookupHBP(h, i); got != codes[i] {
					t.Fatalf("k=%d n=%d LookupHBP(%d) = %d want %d", k, n, i, got, codes[i])
				}
				if got, want := LookupHBP(h, i), h.Lookup(e, i); got != want {
					t.Fatalf("k=%d n=%d LookupHBP(%d) = %d, modelled %d", k, n, i, got, want)
				}
			}
		}
	}
}

// TestParallelScanHBPParity pins the native HBP scan bit-identical to the
// modelled engine scan for every operator, width, and distribution.
func TestParallelScanHBPParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17)) //nolint:gosec
	e := layouttest.Engine()
	for _, k := range layouttest.Widths {
		maxC := uint32(uint64(1)<<uint(k) - 1)
		for _, dist := range []string{"uniform", "edges", "runs"} {
			for _, n := range []int{1, 33, 1023, 4096} {
				codes := layouttest.RandomCodes(rng, n, k, dist)
				h := hbp.New(codes, k, nil)
				for _, op := range layout.Ops {
					c1 := uint32(rng.Uint64N(uint64(maxC) + 1))
					c2 := c1
					if op == layout.Between && maxC > c1 {
						c2 = c1 + uint32(rng.Uint64N(uint64(maxC-c1)+1))
					}
					p := layout.Predicate{Op: op, C1: c1, C2: c2}
					want := bitvec.New(n)
					h.Scan(e, p, want)
					got := bitvec.New(n)
					if err := ScanHBP(Exec{Workers: 3}, h, p, got); err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("k=%d n=%d dist=%s op=%v c1=%d c2=%d: native scan != modelled", k, n, dist, op, c1, c2)
					}
				}
			}
		}
	}
}

// TestParallelScanHBPObsStats checks that a scan with a stage attached
// records workers, segment counts, and bytes touched.
func TestParallelScanHBPObsStats(t *testing.T) {
	codes := make([]uint32, 10_000)
	for i := range codes {
		codes[i] = uint32(i % 251)
	}
	h := hbp.New(codes, 16, nil)
	q := obs.NewQuery()
	st := q.NewStage("scan", "scan")
	out := bitvec.New(len(codes))
	if err := ScanHBP(Exec{Workers: 2, Stage: st}, h, layout.Predicate{Op: layout.Lt, C1: 100}, out); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	if s.Workers != 2 {
		t.Fatalf("workers = %d want 2", s.Workers)
	}
	if s.Segments == 0 || s.BytesTouched == 0 {
		t.Fatalf("segments=%d bytes=%d: want both > 0", s.Segments, s.BytesTouched)
	}
	want := bitvec.New(len(codes))
	layout.NewReference(codes, 16, nil).Scan(nil, layout.Predicate{Op: layout.Lt, C1: 100}, want)
	if !out.Equal(want) {
		t.Fatal("scan result != oracle")
	}
}

// TestLookupManyHBPObsCancel checks context cancellation stops the batched
// lookup loop with ctx.Err.
func TestLookupManyHBPObsCancel(t *testing.T) {
	codes := make([]uint32, 100_000)
	h := hbp.New(codes, 16, nil)
	rows := make([]int32, len(codes))
	out := make([]uint32, len(codes))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := LookupManyHBP(Exec{Ctx: ctx}, h, rows, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v want context.Canceled", err)
	}
}

func TestLookupManyHBPLengthMismatch(t *testing.T) {
	h := hbp.New([]uint32{1, 2, 3}, 8, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	_ = LookupManyHBP(Exec{}, h, make([]int32, 2), make([]uint32, 3))
}

// --- benchmarks: the lookup-heavy case the HBP layout exists for ---

func benchRows(n, lookups int) []int32 {
	rng := rand.New(rand.NewPCG(0xB17E, 42)) //nolint:gosec
	rows := make([]int32, lookups)
	for i := range rows {
		rows[i] = int32(rng.IntN(n))
	}
	return rows
}

func BenchmarkLookupMany(b *testing.B) {
	const n, lookups, k = 1 << 20, 1 << 16, 16
	rng := rand.New(rand.NewPCG(1, 2)) //nolint:gosec
	codes := layouttest.RandomCodes(rng, n, k, "uniform")
	rows := benchRows(n, lookups)
	out := make([]uint32, lookups)

	b.Run("ByteSlice", func(b *testing.B) {
		bs := core.New(codes, k, nil)
		b.SetBytes(int64(lookups))
		for i := 0; i < b.N; i++ {
			if err := LookupMany(Exec{}, bs, rows, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HBP", func(b *testing.B) {
		h := hbp.New(codes, k, nil)
		b.SetBytes(int64(lookups))
		for i := 0; i < b.N; i++ {
			if err := LookupManyHBP(Exec{}, h, rows, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkScanHBP(b *testing.B) {
	const n, k = 1 << 20, 16
	rng := rand.New(rand.NewPCG(3, 4)) //nolint:gosec
	codes := layouttest.RandomCodes(rng, n, k, "uniform")
	p := layout.Predicate{Op: layout.Lt, C1: 1 << 15}
	out := bitvec.New(n)

	b.Run("ByteSlice", func(b *testing.B) {
		bs := core.New(codes, k, nil)
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			mustScan(b, Exec{}, bs, p, nil, false, out)
		}
	})
	b.Run("HBP", func(b *testing.B) {
		h := hbp.New(codes, k, nil)
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			if err := ScanHBP(Exec{}, h, p, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
