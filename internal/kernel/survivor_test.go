package kernel

import (
	"math/rand"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// The word-gated kernels — the pipelined scan's gate walk and the masked
// Sum/Extreme walks — skip dead 64-row words and run the plain loops over
// live runs. These tests drive them with selections whose words are
// mostly dead, which uniform-random and predicate-shaped masks almost
// never produce, against layout.Reference and a row loop.

// survivorRows is odd in segments (515) with a partial last word, and
// long enough to cross two 256-segment batch edges.
const survivorRows = 2*batchSegments*core.SegmentSize + 64 + 17

// survivorCodes returns the two code sets the shapes run over: clustered
// codes rising from 0 to 2^k−1 (the zone map decides most segments, and
// both domain bounds occur) and uniform codes strictly inside the domain
// (neither bound occurs; every code for k = 1).
func survivorCodes(k, n int) map[string][]uint32 {
	rng := rand.New(rand.NewSource(int64(k)))
	max := uint64(1)<<uint(k) - 1
	clustered := make([]uint32, n)
	interior := make([]uint32, n)
	for i := range clustered {
		v := uint64(i) * (max + 1) / uint64(n)
		if rng.Intn(8) == 0 && v > 0 {
			v--
		}
		clustered[i] = uint32(v)
		switch {
		case max < 2:
			interior[i] = uint32(rng.Intn(2))
		default:
			interior[i] = uint32(1 + rng.Int63n(int64(max-1)))
		}
	}
	clustered[n-1] = uint32(max)
	return map[string][]uint32{"clustered": clustered, "interior": interior}
}

// survivorShapes returns the selections, as gates and aggregate masks:
// empty and full, one survivor per segment, alternating live and dead
// words, a live run across a batch edge and a three-worker partition
// edge, the partial last word alone, and the rows holding the domain
// bounds plus one sparse run.
func survivorShapes(codes []uint32, k int) map[string]*bitvec.Vector {
	n := len(codes)
	segs := (n + core.SegmentSize - 1) / core.SegmentSize
	edge := core.ChunkEven(segs, 3) * core.SegmentSize
	batch := batchSegments * core.SegmentSize
	max := uint32(uint64(1)<<uint(k) - 1)
	rules := map[string]func(i int) bool{
		"empty":             func(int) bool { return false },
		"full":              func(int) bool { return true },
		"one_per_segment":   func(i int) bool { return i%core.SegmentSize == (i/core.SegmentSize)%core.SegmentSize },
		"alternating_words": func(i int) bool { return (i/64)%2 == 0 },
		"edge_runs": func(i int) bool {
			return (i >= batch-100 && i < batch+70) || (i >= edge-40 && i < edge+90)
		},
		"last_word": func(i int) bool { return i >= n/64*64 },
		"bounds": func(i int) bool {
			return codes[i] == 0 || codes[i] == max || (i >= 3000 && i < 3100)
		},
	}
	out := make(map[string]*bitvec.Vector, len(rules))
	for name, keep := range rules {
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			if keep(i) {
				v.Set(i, true)
			}
		}
		out[name] = v
	}
	return out
}

// survivorPreds covers the strict loops and both fixed verdicts.
func survivorPreds(codes []uint32, k int) []layout.Predicate {
	max := uint32(uint64(1)<<uint(k) - 1)
	mid := codes[len(codes)/3]
	return []layout.Predicate{
		{Op: layout.Lt, C1: mid},
		{Op: layout.Between, C1: mid / 2, C2: mid},
		{Op: layout.Eq, C1: codes[len(codes)/2]},
		{Op: layout.Ne, C1: codes[len(codes)/2]},
		{Op: layout.Ge, C1: 0},   // fixed: every row
		{Op: layout.Gt, C1: max}, // fixed: no row
	}
}

var survivorWidths = []int{1, 4, 8, 9, 16, 24, 32}

// TestPipelinedScanSurvivorShapes checks the word-gated pipelined scan
// against layout.Reference combined with the gate, zoned and unzoned, in
// both polarities, serial and over three workers, and asserts the stage
// census: every segment is scanned, zone-resolved or gate-skipped.
func TestPipelinedScanSurvivorShapes(t *testing.T) {
	for _, k := range survivorWidths {
		for set, codes := range survivorCodes(k, survivorRows) {
			plain := core.New(codes, k, nil)
			zoned := core.New(codes, k, nil)
			zoned.BuildZoneMaps()
			ref := layout.NewReference(codes, k, nil)
			shapes := survivorShapes(codes, k)
			for _, p := range survivorPreds(codes, k) {
				match := bitvec.New(len(codes))
				ref.Scan(nil, p, match)
				for name, prev := range shapes {
					for _, negate := range []bool{false, true} {
						want := match.Clone()
						if negate {
							want.Or(prev)
						} else {
							want.And(prev)
						}
						for _, b := range []*core.ByteSlice{plain, zoned} {
							for _, workers := range []int{1, 3} {
								st := obs.NewQuery().NewStage("scan(pipelined)", "pipelined")
								got := bitvec.New(len(codes))
								got.Fill()
								mustScan(t, Exec{Workers: workers, Stage: st}, b, p, prev, negate, got)
								if !got.Equal(want) {
									t.Fatalf("k=%d %s %v gate=%s negate=%v zoned=%v workers=%d: pipelined scan differs from reference",
										k, set, p, name, negate, b.HasZoneMaps(), workers)
								}
								s := st.Snapshot()
								if s.Segments+s.ZoneSkipped+s.MaskSkipped != int64(b.Segments()) {
									t.Fatalf("k=%d %s %v gate=%s negate=%v: segments %d + zone %d + mask %d != %d",
										k, set, p, name, negate, s.Segments, s.ZoneSkipped, s.MaskSkipped, b.Segments())
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMaskedAggregatesSurvivorShapes checks Sum, Min and Max over the
// shapes against a row loop, serial and over three workers.
func TestMaskedAggregatesSurvivorShapes(t *testing.T) {
	for _, k := range survivorWidths {
		for set, codes := range survivorCodes(k, survivorRows) {
			b := core.New(codes, k, nil)
			for name, mask := range survivorShapes(codes, k) {
				var sum uint64
				var count int
				var lo, hi uint32
				for i, v := range codes {
					if !mask.Get(i) {
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
				for _, workers := range []int{1, 3} {
					x := Exec{Workers: workers}
					gotSum, gotCount := mustSum(t, x, b, mask)
					if gotSum != sum || gotCount != count {
						t.Fatalf("k=%d %s mask=%s workers=%d: Sum = %d/%d, want %d/%d", k, set, name, workers, gotSum, gotCount, sum, count)
					}
					gotMin, okMin := mustExtreme(t, x, b, mask, true)
					gotMax, okMax := mustExtreme(t, x, b, mask, false)
					if okMin != (count > 0) || okMax != (count > 0) || (count > 0 && (gotMin != lo || gotMax != hi)) {
						t.Fatalf("k=%d %s mask=%s workers=%d: Min/Max = %d,%v/%d,%v, want %d/%d over %d rows",
							k, set, name, workers, gotMin, okMin, gotMax, okMax, lo, hi, count)
					}
				}
			}
		}
	}
}

// TestMaskedAggregateAccounting asserts that a masked Sum or Min charges
// the mask words it read plus the byte slices of the segments it loaded:
// survivors in one segment load at most two segments.
func TestMaskedAggregateAccounting(t *testing.T) {
	for _, k := range []int{12, 24} {
		codes := survivorCodes(k, survivorRows)["interior"]
		b := core.New(codes, k, nil)
		mask := bitvec.New(len(codes))
		for _, i := range []int{8200, 8203, 8220} {
			mask.Set(i, true)
		}
		words := int64(len(codes)+63) / 64
		limit := words*8 + 64*int64((k+7)/8)
		for _, name := range []string{"sum", "min"} {
			st := obs.NewQuery().NewStage(name, name)
			x := Exec{Workers: 3, Stage: st}
			if name == "sum" {
				mustSum(t, x, b, mask)
			} else {
				mustExtreme(t, x, b, mask, true)
			}
			s := st.Snapshot()
			if s.Segments > 2 || s.BytesTouched > limit {
				t.Fatalf("k=%d %s: segments %d, bytes %d; want ≤ 2 segments and ≤ %d bytes", k, name, s.Segments, s.BytesTouched, limit)
			}
			if name == "sum" && s.Segments+s.MaskSkipped != int64(b.Segments()) {
				t.Fatalf("k=%d sum: segments %d + mask-skipped %d != %d", k, s.Segments, s.MaskSkipped, b.Segments())
			}
		}
	}
}
