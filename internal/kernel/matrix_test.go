package kernel

import (
	"math/rand/v2"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/layout"
)

// matrixCodes builds n k-bit codes in 512-code blocks that alternate
// between a narrow shape — values within ±100 of 0, the mid code or max,
// so the compressed layout stores them as uniform one-byte FOR blocks —
// and a wide one: uniform codes mixed with every edge value (0, 1, mid±1,
// max−1, max), so ties with an edge constant occur on every byte slice.
func matrixCodes(k, n int) []uint32 {
	top := int64(uint64(1)<<uint(k) - 1)
	mid := top / 2
	clamp := func(v int64) uint32 { return uint32(min(max(v, 0), top)) }
	edges := []int64{0, 1, mid - 1, mid, mid + 1, top - 1, top}
	centers := []int64{0, mid, top}
	rng := rand.New(rand.NewPCG(uint64(k), 15)) //nolint:gosec
	codes := make([]uint32, n)
	for i := range codes {
		b := i / compress.BlockCodes
		switch {
		case b%2 == 0:
			codes[i] = clamp(centers[b/2%len(centers)] + rng.Int64N(201) - 100)
		case rng.IntN(4) == 0:
			codes[i] = clamp(edges[rng.IntN(len(edges))])
		default:
			codes[i] = uint32(rng.Uint64N(uint64(top) + 1))
		}
	}
	return codes
}

// matrixPreds lists every operator against the edge constants 0, 1,
// max−1, max and the mid code (top is the k-bit max), plus Between over
// [0,max], [0,x], [x,max], [x,x], lo > hi and ranges whose bounds sit
// inside, below and above the narrow blocks of matrixCodes.
func matrixPreds(k int) []layout.Predicate {
	top := int64(uint64(1)<<uint(k) - 1)
	mid := top / 2
	clamp := func(v int64) uint32 { return uint32(min(max(v, 0), top)) }
	var ps []layout.Predicate
	for _, c := range []int64{0, 1, top - 1, top, mid} {
		for _, op := range []layout.Op{layout.Lt, layout.Le, layout.Gt, layout.Ge, layout.Eq, layout.Ne} {
			ps = append(ps, layout.Predicate{Op: op, C1: clamp(c)})
		}
	}
	for _, r := range [][2]int64{
		{0, top}, {0, 1}, {0, mid}, {0, top - 1}, {1, top}, {mid, top}, {top - 1, top},
		{0, 0}, {1, 1}, {mid, mid}, {top, top}, {mid + 1, mid}, {top, 0},
		{mid - 40, mid + 40}, {mid - 150, mid + 20}, {mid + 20, mid + 160}, {mid + 20, mid + 400}, {1, top - 1},
	} {
		ps = append(ps, layout.Predicate{Op: layout.Between, C1: clamp(r[0]), C2: clamp(r[1])})
	}
	return ps
}

// TestOperatorEdgeMatrix runs every operator × width × edge constant
// through every native path that evaluates a predicate — plain, zoned,
// pipelined in both polarities (plain and zoned) and the compressed
// scan — against the scalar layout.Reference oracle, then checks Sum and
// Extreme over the predicate's result mask against a scalar loop. The
// strict-bound rewrite (strict) turns these constants into domain-edge
// verdicts, one-code intervals and bounds outside a uniform block's byte
// range, so each of its cases is pinned.
func TestOperatorEdgeMatrix(t *testing.T) {
	const n = 5*compress.BlockCodes + 77 // an odd tail segment and a partial block
	for _, k := range []int{1, 4, 8, 9, 12, 16, 24, 31, 32} {
		codes := matrixCodes(k, n)
		ref := layout.NewReference(codes, k, nil)
		b := core.New(codes, k, nil)
		bz := core.New(codes, k, nil)
		bz.BuildZoneMaps()
		cc := compress.New(codes, k, nil)
		if cc.ColumnStats().Uniform1 == 0 {
			t.Fatalf("k=%d: no uniform one-byte FOR block to exercise", k)
		}
		prev := bitvec.New(n)
		for i := 0; i < n; i += 3 {
			prev.Set(i, true)
		}
		for _, p := range matrixPreds(k) {
			want := bitvec.New(n)
			ref.Scan(nil, p, want)
			for _, x := range []Exec{{}, {Workers: 3}} {
				check := func(path string, got *bitvec.Vector, want *bitvec.Vector) {
					t.Helper()
					if !got.Equal(want) {
						t.Fatalf("k=%d %v workers=%d %s: %d matches, reference %d", k, p, x.Workers, path, got.Count(), want.Count())
					}
				}
				got := bitvec.New(n)
				for _, col := range []struct {
					name string
					b    *core.ByteSlice
				}{{"plain", b}, {"zoned", bz}} {
					got.Fill()
					mustScan(t, x, col.b, p, nil, false, got)
					check(col.name, got, want)
					for _, negate := range []bool{false, true} {
						wantP := want.Clone()
						if negate {
							wantP.Or(prev)
						} else {
							wantP.And(prev)
						}
						got.Fill()
						mustScan(t, x, col.b, p, prev, negate, got)
						check(col.name+" pipelined", got, wantP)
					}
				}
				got.Fill()
				mustScanCompressed(t, x, cc, p, got)
				check("compressed", got, want)

				wantSum, wantN, wantMin, wantMax := uint64(0), 0, uint32(0), uint32(0)
				for _, r := range want.Positions(nil) {
					v := codes[r]
					if wantN == 0 || v < wantMin {
						wantMin = v
					}
					if wantN == 0 || v > wantMax {
						wantMax = v
					}
					wantSum += uint64(v)
					wantN++
				}
				sum, cnt := mustSum(t, x, b, want)
				if sum != wantSum || cnt != wantN {
					t.Fatalf("k=%d %v workers=%d: Sum over the result = %d/%d, reference %d/%d", k, p, x.Workers, sum, cnt, wantSum, wantN)
				}
				for _, isMin := range []bool{true, false} {
					v, ok := mustExtreme(t, x, b, want, isMin)
					w := wantMax
					if isMin {
						w = wantMin
					}
					if ok != (wantN > 0) || ok && v != w {
						t.Fatalf("k=%d %v workers=%d isMin=%v: Extreme over the result = %d/%v, reference %d/%v", k, p, x.Workers, isMin, v, ok, w, wantN > 0)
					}
				}
			}
		}
	}
}
