package kernel

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/obs"
)

// The aggregates run on both paths (mustSum, mustExtreme, mustCount). The
// shapes below reach the AVX2 loops' edges: the four-word VPTEST groups of
// the masked walks, the 256-segment windows of the Min/Max passes, worker
// partitions, cancellation batches, a column's partial last word at every
// width, and the domain bound that ends a Min/Max walk early.

// aggCases lists every width on a column whose last 64-row word holds k
// rows and whose rows span three windows, in one call and under a
// context, serial and on three workers, each range in one batch; and a few
// widths on a column that spans three cancellation batches of a serial
// run and two on each of two workers, so the runs under a context cross
// batch edges.
func aggCases(ctx context.Context) []survivorCase {
	var cases []survivorCase
	for k := 1; k <= 32; k++ {
		n := 2*zoneWindow*core.SegmentSize + 5*64 + k
		cases = append(cases, survivorCase{k, n, []Exec{{}, {Ctx: ctx}, {Ctx: ctx, Workers: 3}}})
	}
	for _, k := range []int{1, 8, 17, 32} {
		n := 2*batchRows + 5*64 + k
		cases = append(cases, survivorCase{k, n, []Exec{{}, {Ctx: ctx}, {Ctx: ctx, Workers: 2}}})
	}
	return cases
}

// aggShapes adds to survivorShapes the selections the AVX2 aggregate walks
// have their own edges for: runs starting and ending inside a four-word
// group, runs across every window, batch and worker edge, and the first
// or last row alone.
func aggShapes(codes []uint32, k int) map[string]*bitvec.Vector {
	shapes := survivorShapes(codes, k)
	n := len(codes)
	edges := append(survivorEdges(n), 2*zoneWindow*core.SegmentSize)
	rules := map[string]func(i int) bool{
		"inside_groups": func(i int) bool {
			g, r := i/256, i%256
			return g%3 == 0 && r >= 64+7 && r < 128+50
		},
		"window_batch_and_worker_edges": func(i int) bool {
			for _, e := range edges {
				if i >= e-70 && i < e+70 {
					return true
				}
			}
			return false
		},
		"first_row": func(i int) bool { return i == 0 },
		"last_row":  func(i int) bool { return i == n-1 },
	}
	for name, keep := range rules {
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			if keep(i) {
				v.Set(i, true)
			}
		}
		shapes[name] = v
	}
	return shapes
}

// aggCodeSets returns codes strictly inside the domain with the domain
// bounds placed in the first rows, the last rows or nowhere, plus codes
// whose first bytes cluster on a few values, so most rows tie the running
// extreme's first byte.
func aggCodeSets(k, n int) map[string][]uint32 {
	sets := survivorCodes(k, n)
	top := uint32(uint64(1)<<uint(k) - 1)
	interior := sets["interior"]
	first := append([]uint32(nil), interior...)
	first[0], first[1] = 0, top
	last := append([]uint32(nil), interior...)
	last[n-1], last[n-2] = 0, top
	rng := rand.New(rand.NewSource(int64(k) + 100))
	ties := make([]uint32, n)
	shift := uint(max(k-8, 0)) // the bits below the first byte
	for i := range ties {
		ties[i] = uint32(1+rng.Intn(2))<<shift&top | uint32(rng.Int63())&(1<<shift-1)
	}
	sets["bounds_first"], sets["bounds_last"], sets["tied_first_bytes"] = first, last, ties
	return sets
}

// TestAggregatePaths checks Sum, Min, Max and Count against a row loop on
// every path, for every aggCase, over the shapes, nil masks included; the
// worker ranges and the batches carry the running extreme. mustSum and
// mustExtreme require the paths to record the same stage statistics too.
func TestAggregatePaths(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range aggCases(ctx) {
		k, n := c.k, c.n
		for set, codes := range aggCodeSets(k, n) {
			b := core.New(codes, k, nil)
			shapes := aggShapes(codes, k)
			shapes["nil"] = nil
			for name, mask := range shapes {
				var sum uint64
				var count int
				var lo, hi uint32
				for i, v := range codes {
					if mask != nil && !mask.Get(i) {
						continue
					}
					if count == 0 || v < lo {
						lo = v
					}
					if count == 0 || v > hi {
						hi = v
					}
					sum += uint64(v)
					count++
				}
				if mask != nil {
					if got := mustCount(t, mask); got != count {
						t.Fatalf("k=%d %s mask=%s: Count = %d, want %d", k, set, name, got, count)
					}
				}
				for _, x := range c.execs {
					x.Stage = obs.NewQuery().NewStage("sum", "sum")
					if gotSum, gotCount := mustSum(t, x, b, mask); gotSum != sum || gotCount != count {
						t.Fatalf("k=%d n=%d %s mask=%s workers=%d ctx=%v: Sum = %d/%d, want %d/%d",
							k, n, set, name, x.Workers, x.Ctx != nil, gotSum, gotCount, sum, count)
					}
					if s := x.Stage.Snapshot(); n > batchRows && !crossesBatches(x, s) {
						t.Fatalf("k=%d n=%d workers=%d: Sum ran %d batches under a context; want a batch edge crossed", k, n, x.Workers, s.Batches)
					}
					x.Stage = nil
					gotMin, okMin := mustExtreme(t, x, b, mask, true)
					gotMax, okMax := mustExtreme(t, x, b, mask, false)
					if okMin != (count > 0) || okMax != (count > 0) || (count > 0 && (gotMin != lo || gotMax != hi)) {
						t.Fatalf("k=%d n=%d %s mask=%s workers=%d ctx=%v: Min/Max = %d,%v/%d,%v, want %d/%d over %d rows",
							k, n, set, name, x.Workers, x.Ctx != nil, gotMin, okMin, gotMax, okMax, lo, hi, count)
					}
				}
			}
		}
	}
}

// TestCountPaths checks Count on every path against the portable loop at
// lengths around the AVX2 loop's 8-word blocks.
func TestCountPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 575, 4096, 8191, 100_003} {
		for _, density := range []int{0, 1, 50, 100} {
			v := bitvec.New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(100) < density {
					v.Set(i, true)
				}
			}
			mustCount(t, v)
		}
	}
}

// TestExtremeStopsAtDomainBound runs Extreme under a context and a stage —
// the shape every served query has, which runs the column in batches of
// batchRows rows — on a column whose first batch holds the domain bound:
// the walk must end with that batch on every path, not restart in the
// next.
func TestExtremeStopsAtDomainBound(t *testing.T) {
	const k = 16
	n := 4*batchRows + 5
	top := uint32(1)<<k - 1
	rng := rand.New(rand.NewSource(3))
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = 1 + uint32(rng.Intn(int(top-1)))
	}
	codes[1000], codes[2000] = 0, top
	b := core.New(codes, k, nil)
	full := bitvec.New(n)
	full.Fill()
	for _, avx2 := range kernelPaths() {
		for _, mask := range []*bitvec.Vector{nil, full} {
			for _, isMin := range []bool{true, false} {
				st := obs.NewQuery().NewStage("extreme", "extreme")
				var v uint32
				var ok bool
				var err error
				withAVX2(avx2, func() { v, ok, err = Extreme(Exec{Ctx: context.Background(), Stage: st}, b, mask, isMin) })
				if err != nil {
					t.Fatal(err)
				}
				want := top
				if isMin {
					want = 0
				}
				if !ok || v != want {
					t.Fatalf("%s masked=%v isMin=%v: Extreme = %d/%v, want %d", pathName(avx2), mask != nil, isMin, v, ok, want)
				}
				s := st.Snapshot()
				if s.Batches != 1 || s.Segments+s.MaskSkipped > int64(batchUnits(core.SegmentSize)) {
					t.Fatalf("%s masked=%v isMin=%v: walked %d batches, %d segments; want the first batch only",
						pathName(avx2), mask != nil, isMin, s.Batches, s.Segments+s.MaskSkipped)
				}
			}
		}
	}
}

// TestExtremeCompressedCarriesAcrossBatches runs ExtremeCompressed under a
// context and a stage, in batches of batchRows rows, on a column of two
// batches whose extremes are both in block 0: every later block's exact
// bounds lose to the running extreme, so only block 0 is decoded.
func TestExtremeCompressedCarriesAcrossBatches(t *testing.T) {
	const k = 12
	n := batchRows + 3000
	rng := rand.New(rand.NewSource(5))
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = 10 + uint32(rng.Intn(1000))
	}
	codes[7], codes[9] = 5, 2000
	cc := compress.New(codes, k, nil)
	mask := bitvec.New(n)
	mask.Fill()
	for _, isMin := range []bool{true, false} {
		st := obs.NewQuery().NewStage("extreme", "extreme")
		v, ok := mustExtremeCompressed(t, Exec{Ctx: context.Background(), Stage: st}, cc, mask, isMin)
		want := uint32(2000)
		if isMin {
			want = 5
		}
		if !ok || v != want {
			t.Fatalf("isMin=%v: ExtremeCompressed = %d/%v, want %d", isMin, v, ok, want)
		}
		s := st.Snapshot()
		if s.Batches != 2 || s.Segments != compress.BlockSegments {
			t.Fatalf("isMin=%v: %d batches decoded %d segments; want 2 batches and block 0's %d segments",
				isMin, s.Batches, s.Segments, compress.BlockSegments)
		}
	}
}

// TestExtremeCompressedStopsAtDomainBound: under a context, once the
// running extreme is the domain bound, the compressed walk ends with its
// batch.
func TestExtremeCompressedStopsAtDomainBound(t *testing.T) {
	const k = 12
	n := 2*batchRows + 100
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = 1 + uint32(i%4000)
	}
	codes[3] = 0
	cc := compress.New(codes, k, nil)
	mask := bitvec.New(n)
	mask.Fill()
	st := obs.NewQuery().NewStage("extreme", "extreme")
	if v, ok := mustExtremeCompressed(t, Exec{Ctx: context.Background(), Stage: st}, cc, mask, true); !ok || v != 0 {
		t.Fatalf("ExtremeCompressed = %d/%v, want 0", v, ok)
	}
	if s := st.Snapshot(); s.Batches != 1 || s.Segments != compress.BlockSegments {
		t.Fatalf("%d batches decoded %d segments; want the first batch and block 0 only", s.Batches, s.Segments)
	}
}

// BenchmarkAggregates times the masked Sum, Min and Count at three
// uniform selectivities on each path (4Mi rows, serial).
func BenchmarkAggregates(b *testing.B) {
	const n = 4 << 20
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{16, 24} {
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(rng.Int63n(1 << k))
		}
		col := core.New(codes, k, nil)
		for _, pct := range []int{1, 10, 50} {
			mask := bitvec.New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(100) < pct {
					mask.Set(i, true)
				}
			}
			for _, avx2 := range kernelPaths() {
				name := fmt.Sprintf("k=%d/sel=%d%%/%s", k, pct, pathName(avx2))
				b.Run("sum/"+name, func(b *testing.B) {
					withAVX2(avx2, func() {
						for i := 0; i < b.N; i++ {
							if _, _, err := Sum(Exec{}, col, mask); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
				b.Run("min/"+name, func(b *testing.B) {
					withAVX2(avx2, func() {
						for i := 0; i < b.N; i++ {
							if _, _, err := Extreme(Exec{}, col, mask, true); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
				if k == 16 {
					b.Run("count/"+name, func(b *testing.B) {
						withAVX2(avx2, func() {
							for i := 0; i < b.N; i++ {
								Count(mask)
							}
						})
					})
				}
			}
		}
	}
}
