package kernel

import (
	"slices"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// The shapes below reach the AVX2 loops' edges: every width and operator,
// ranges that start or end mid-word or at a batch edge, columns whose zone
// arrays end mid-chunk, and delta columns wrapped with core.Adopt. Each
// runs on both paths (mustScan, rangeOnPaths) against layout.Reference.

// sharedFirstByte returns a Between over two codes that share their first
// byte slice's byte but differ below it (k ≥ 9), so both bounds' deep
// passes run on the same tied lanes.
func sharedFirstByte(k int) layout.Predicate {
	low := uint32(1)<<uint(k-8) - 1 // the bits below the first byte
	base := uint32(0x5A) << uint(k-8)
	return layout.Predicate{Op: layout.Between, C1: base + low/4, C2: base + low - low/4}
}

// TestAVX2WidthsAndOperators runs every operator against the domain edges
// and the mid code (matrixPreds), plus a Between whose bounds share their
// first byte, for every width 1–32, plain, zoned and pipelined, serial and
// on three workers.
func TestAVX2WidthsAndOperators(t *testing.T) {
	const n = 40*core.SegmentSize + 13 // 41 segments: odd, past one 32-segment chunk
	for k := 1; k <= 32; k++ {
		codes := matrixCodes(k, n)
		preds := matrixPreds(k)
		if k >= 9 {
			p := sharedFirstByte(k)
			for i := 0; i < n; i += 7 { // seed ties with both bounds and the inside
				codes[i] = p.C1 + uint32(i%3)*(p.C2-p.C1)/2
			}
			preds = append(preds, p)
		}
		ref := layout.NewReference(codes, k, nil)
		plain := core.New(codes, k, nil)
		zoned := core.New(codes, k, nil)
		zoned.BuildZoneMaps()
		prev := bitvec.New(n)
		for i := 0; i < n; i += 5 {
			prev.Set(i, true)
		}
		for _, p := range preds {
			want := bitvec.New(n)
			ref.Scan(nil, p, want)
			wantP := want.Clone()
			wantP.And(prev)
			for _, b := range []*core.ByteSlice{plain, zoned} {
				for _, x := range []Exec{{}, {Workers: 3}} {
					got := bitvec.New(n)
					got.Fill()
					mustScan(t, x, b, p, nil, false, got)
					if !got.Equal(want) {
						t.Fatalf("k=%d %v zoned=%v workers=%d: scan differs from reference", k, p, b.HasZoneMaps(), x.Workers)
					}
					got.Fill()
					mustScan(t, x, b, p, prev, false, got)
					if !got.Equal(wantP) {
						t.Fatalf("k=%d %v zoned=%v workers=%d: pipelined scan differs from reference", k, p, b.HasZoneMaps(), x.Workers)
					}
				}
			}
		}
	}
}

// rangeOnPaths runs one range loop — scanRange, or zonedRange when the
// column is zoned — over [lo, hi) on every path, over a vector of stale
// ones, and fails where a path's words, depth histogram or pruned count
// differ from the SWAR loops'. It returns the SWAR words. Non-nil mn and
// mx stand in for the column's zone arrays.
func rangeOnPaths(t *testing.T, b *core.ByteSlice, p layout.Predicate, lo, hi int, mn, mx []byte) []uint64 {
	t.Helper()
	var want []uint64
	var wantDh obs.DepthCounts
	wantPruned := 0
	for _, avx2 := range kernelPaths() {
		sc := prepare(b, p)
		if mn != nil {
			sc.zone.mn, sc.zone.mx = mn, mx
		}
		out := bitvec.New(b.Len())
		out.Fill()
		var dh obs.DepthCounts
		pruned := 0
		withAVX2(avx2, func() {
			if b.HasZoneMaps() {
				pruned = sc.zonedRange(lo, hi, out, &dh)
			} else {
				sc.scanRange(lo, hi, out, &dh)
			}
		})
		if !avx2 {
			want, wantDh, wantPruned = out.Words(), dh, pruned
			continue
		}
		if !slices.Equal(out.Words(), want) || dh != wantDh || pruned != wantPruned {
			t.Fatalf("k=%d %v zoned=%v [%d,%d): avx2 depths %v pruned %d, swar %v pruned %d (words equal: %v)",
				b.Width(), p, b.HasZoneMaps(), lo, hi, dh, pruned, wantDh, wantPruned, slices.Equal(out.Words(), want))
		}
	}
	return want
}

// TestAVX2Ranges drives the range loops directly over ranges the fan-out
// never produces: odd starts and ends, one segment, ranges cut at the
// 256-segment batch edge and at a 32-segment chunk edge, and ranges that
// end on the column's partial last segment. Segments outside the range
// must keep their stale bits.
func TestAVX2Ranges(t *testing.T) {
	const segs = 600
	n := segs*core.SegmentSize - 9 // partial last segment
	ranges := [][2]int{
		{0, segs}, {1, segs}, {1, 2}, {7, 8}, {0, 1}, {3, 40}, {31, 33}, {32, 64},
		{255, 257}, {200, 256}, {256, 512}, {250, 513}, {511, 599}, {598, 600}, {599, 600}, {5, 5},
	}
	for _, k := range []int{1, 7, 8, 12, 16, 17, 24, 32} {
		codes := matrixCodes(k, n)
		plain := core.New(codes, k, nil)
		zoned := core.New(codes, k, nil)
		zoned.BuildZoneMaps()
		ref := layout.NewReference(codes, k, nil)
		preds := matrixPreds(k)
		if k >= 9 {
			preds = append(preds, sharedFirstByte(k))
		}
		for _, p := range preds {
			if newScanner(p, k, n).fixed != 0 {
				continue // domain edges never reach the range loops
			}
			want := bitvec.New(n)
			ref.Scan(nil, p, want)
			for _, b := range []*core.ByteSlice{plain, zoned} {
				for _, r := range ranges {
					words := rangeOnPaths(t, b, p, r[0], r[1], nil, nil)
					for i := 0; i < n; i++ {
						seg := i / core.SegmentSize
						bit := words[i/64]>>(uint(i)%64)&1 == 1
						wantBit := want.Get(i)
						if seg < r[0] || seg >= r[1] {
							wantBit = true // stale
						}
						if bit != wantBit {
							t.Fatalf("k=%d %v zoned=%v [%d,%d): row %d = %v, want %v", k, p, b.HasZoneMaps(), r[0], r[1], i, bit, wantBit)
						}
					}
				}
			}
		}
	}
}

// TestAVX2AdoptedDelta scans columns wrapped the way a live ingest view
// wraps its delta: whole segments in place over a longer buffer, and a
// partial last segment copied into one zero-padded segment. It also wraps
// byte slices holding whole segments past the last code, whose padding
// segments must count on both paths alike.
func TestAVX2AdoptedDelta(t *testing.T) {
	for _, k := range []int{4, 12, 20, 32} {
		for _, n := range []int{1, 31, 32, 100, 1000, 2049} {
			codes := matrixCodes(k, n+64)
			nb := (k + 7) / 8
			grown := make([][]byte, nb)
			core.AppendCodes(grown, k, codes)
			whole := n / core.SegmentSize * core.SegmentSize
			type col struct {
				b     *core.ByteSlice
				codes []uint32
			}
			cols := map[string]col{}
			if whole > 0 {
				in := make([][]byte, nb)
				for j := range in {
					in[j] = grown[j][:whole:whole]
				}
				cols["in place"] = col{core.Adopt(in, k, whole), codes[:whole]}
			}
			if whole < n {
				part := make([][]byte, nb)
				for j := range part {
					part[j] = make([]byte, core.SegmentSize)
					copy(part[j], grown[j][whole:n])
				}
				cols["copied tail"] = col{core.Adopt(part, k, n-whole), codes[whole:n]}
			}
			padded := make([][]byte, nb)
			for j := range padded {
				padded[j] = grown[j][: (n+63)/32*32 : (n+63)/32*32]
			}
			cols["padding segments"] = col{core.Adopt(padded, k, n), codes[:n]}
			for name, c := range cols {
				b := c.b
				ref := layout.NewReference(c.codes, k, nil)
				for _, p := range append(matrixPreds(k), layout.Predicate{Op: layout.Eq, C1: c.codes[0]}) {
					want := bitvec.New(b.Len())
					ref.Scan(nil, p, want)
					got := bitvec.New(b.Len())
					got.Fill()
					mustScan(t, Exec{}, b, p, nil, false, got)
					if !got.Equal(want) {
						t.Fatalf("k=%d n=%d %s %v: scan differs from reference", k, n, name, p)
					}
				}
			}
		}
	}
}
