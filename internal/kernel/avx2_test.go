package kernel

import (
	"math/rand/v2"
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
// differ from the SWAR loops'. It returns the SWAR words and depth
// histogram. Non-nil mn and mx stand in for the column's zone arrays.
func rangeOnPaths(t *testing.T, b *core.ByteSlice, p layout.Predicate, lo, hi int, mn, mx []byte) ([]uint64, obs.DepthCounts) {
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
	return want, wantDh
}

// TestAVX2Ranges drives the range loops directly over ranges the fan-out
// never produces: odd starts and ends, one segment, ranges cut at the
// 256-segment window edge and at a 32-segment chunk edge, and ranges that
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
					words, _ := rangeOnPaths(t, b, p, r[0], r[1], nil, nil)
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

// The two-pass shapes below aim the decide pass's tie bitmap at its
// edges: columns whose first bytes cluster on the strict constants' first
// bytes (so nearly every segment ties, every segment does, or none does),
// ties only on 32-segment chunk and 256-segment window edges, and zoned
// columns whose undecided segments tie, scanned over ranges, worker
// chunks and pipelined runs that start mid-window.

// tieShape says how a column's first bytes sit against the first bytes a
// lane must equal to tie (tieTargets).
type tieShape int

const (
	tieMost  tieShape = iota // every first byte within ±1 of a target: nearly every segment ties
	tieEvery                 // tieMost, plus one exact tie in every segment
	tieNone                  // no first byte equals a target
	tieEdges                 // tieNone, plus one exact tie in each of tieEdgeSegs
	tieZoned                 // tieMost, but a third of every other chunk's segments hold one byte the zone map decides
)

var tieShapeNames = []string{"most", "every", "none", "edges", "zoned"}

func (s tieShape) String() string { return tieShapeNames[s] }

// tieEdgeSegs are the segments tieEdges ties: both sides of 32-segment
// chunk edges and of 256-segment window edges, from the column's start.
var tieEdgeSegs = []int{0, 1, 30, 31, 32, 33, 63, 64, 254, 255, 256, 257, 287, 288, 511, 512, 513, 575, 598}

// tieTargets returns the first bytes of p's strict rewrite for a k-bit
// column: a lane ties when its first byte equals one of them.
func tieTargets(p layout.Predicate, k int) []byte {
	sc := newScanner(p, k, 0)
	targets := []byte{byte(sc.c1[0])}
	if sc.p.Op == layout.Between {
		targets = append(targets, byte(sc.c2[0]))
	}
	return targets
}

// tieCodes builds n k-bit codes (k ≥ 9, so the first byte is the code's
// top 8 bits) shaped against p's tie targets, with random low bits.
func tieCodes(k, n int, p layout.Predicate, shape tieShape, rng *rand.Rand) []uint32 {
	targets := tieTargets(p, k)
	low := uint32(1)<<uint(k-8) - 1
	code := func(f byte) uint32 { return uint32(f)<<uint(k-8) | rng.Uint32()&low }
	near := func() byte {
		return byte(min(max(int(targets[rng.IntN(len(targets))])+rng.IntN(3)-1, 0), 255))
	}
	untied := func() byte {
		for {
			if f := byte(rng.IntN(256)); !slices.Contains(targets, f) {
				return f
			}
		}
	}
	// far is a byte that neither ties nor equals the original bounds'
	// first bytes, so a segment holding only far is zone-decided.
	avoid := append(slices.Clone(targets), byte(p.C1>>uint(k-8)), byte(p.C2>>uint(k-8)))
	far := targets[0] + 128
	for slices.Contains(avoid, far) {
		far++
	}
	codes := make([]uint32, n)
	for i := range codes {
		seg := i / core.SegmentSize
		switch {
		case shape == tieNone || shape == tieEdges:
			codes[i] = code(untied())
		case shape == tieZoned && seg%3 == 0 && seg/32%2 == 0:
			codes[i] = code(far)
		default:
			codes[i] = code(near())
		}
	}
	tieAt := func(seg int) {
		if i := seg*core.SegmentSize + seg%32; i < n {
			codes[i] = code(targets[0])
		}
	}
	switch shape {
	case tieEvery:
		for seg := 0; seg*core.SegmentSize < n; seg++ {
			tieAt(seg)
		}
	case tieEdges:
		for _, seg := range tieEdgeSegs {
			tieAt(seg)
		}
	}
	return codes
}

// TestAVX2TiedSegments runs every operator at widths 9–32, Between with
// a shared first byte included, over every tieShape: plain and zoned,
// serial and on three workers, alone and gated in both polarities by
// short and by window-crossing live runs, and through the range loops
// over ranges that start mid-chunk and mid-window. The decide pass must
// send exactly the tied segments to the resolve pass: words, depth
// histograms, bytes and pruned and gate-skipped counts match the SWAR
// loops', results match layout.Reference, and the depth histograms show
// the shape's ties.
func TestAVX2TiedSegments(t *testing.T) {
	const segs = 600
	n := segs*core.SegmentSize - 5 // partial last segment
	ranges := [][2]int{{1, segs}, {31, 289}, {255, 513}, {257, segs}, {7, 263}, {300, 556}, {511, 513}}
	short, long := bitvec.New(n), bitvec.New(n)
	for i := 0; i < n; i++ {
		short.Set(i, i/64%7 < 3) // 3 live words of every 7
		long.Set(i, i/64%200 < 130)
	}
	for k := 9; k <= 32; k++ {
		rng := rand.New(rand.NewPCG(uint64(k), 26)) //nolint:gosec
		low := uint32(1)<<uint(k-8) - 1
		c := uint32(0x5A)<<uint(k-8) | rng.Uint32()&low
		hi := uint32(0x8B)<<uint(k-8) | rng.Uint32()&low
		preds := []layout.Predicate{
			{Op: layout.Eq, C1: c}, {Op: layout.Ne, C1: c}, {Op: layout.Lt, C1: c}, {Op: layout.Le, C1: c},
			{Op: layout.Gt, C1: c}, {Op: layout.Ge, C1: c}, {Op: layout.Between, C1: c, C2: hi}, sharedFirstByte(k),
		}
		for _, p := range preds {
			for shape := tieMost; shape <= tieZoned; shape++ {
				codes := tieCodes(k, n, p, shape, rng)
				want := bitvec.New(n)
				layout.NewReference(codes, k, nil).Scan(nil, p, want)
				plain := core.New(codes, k, nil)
				zoned := core.New(codes, k, nil)
				zoned.BuildZoneMaps()
				for _, b := range []*core.ByteSlice{plain, zoned} {
					for _, x := range []Exec{{}, {Workers: 3}} {
						for _, gate := range []*bitvec.Vector{nil, short, long} {
							for _, negate := range []bool{false, true} {
								if gate == nil && negate {
									continue
								}
								wantG := want.Clone()
								switch {
								case gate != nil && negate:
									wantG.Or(gate)
								case gate != nil:
									wantG.And(gate)
								}
								got := bitvec.New(n)
								got.Fill()
								mustScan(t, x, b, p, gate, negate, got)
								if !got.Equal(wantG) {
									t.Fatalf("k=%d %v %s zoned=%v workers=%d gated=%v negate=%v: scan differs from reference",
										k, p, shape, b.HasZoneMaps(), x.Workers, gate != nil, negate)
								}
							}
						}
					}
					for _, r := range ranges {
						rangeOnPaths(t, b, p, r[0], r[1], nil, nil)
					}
				}
				_, dh := rangeOnPaths(t, plain, p, 0, segs, nil, nil)
				deep := dh[2] + dh[3] + dh[4]
				var bad bool
				switch shape {
				case tieMost:
					bad = deep < segs*9/10
				case tieEvery:
					bad = dh[1] != 0
				case tieNone:
					bad = deep != 0
				case tieEdges:
					bad = deep != int64(len(tieEdgeSegs))
				case tieZoned:
					_, zdh := rangeOnPaths(t, zoned, p, 0, segs, nil, nil)
					bad = zdh[0] == 0 || zdh[2]+zdh[3]+zdh[4] < (segs-zdh[0])*9/10
				}
				if bad {
					t.Fatalf("k=%d %v %s: depth histogram %v does not show the shape's ties", k, p, shape, dh)
				}
			}
		}
	}
}
