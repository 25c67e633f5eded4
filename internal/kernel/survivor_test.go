package kernel

import (
	"context"
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
// long enough to cross two 256-segment AVX2 window edges.
const survivorRows = 2*zoneWindow*core.SegmentSize + 64 + 17

// batchedRows is odd in segments with a partial last word too, and spans
// three cancellation batches of a raw kernel run serially under a context
// (two of batchRows rows, then three segments) and two batches on each of
// two workers, the second worker's batch edge off the serial batch grid.
const batchedRows = 2*batchRows + 64 + 17

// survivorCase is one column the survivor tests run: width k, n rows, and
// the executions to compare against the reference.
type survivorCase struct {
	k, n  int
	execs []Exec
}

// survivorCases lists every survivor width at survivorRows, serial and over
// three workers, each range in one batch; and a few widths at batchedRows
// under a context, as a served query runs, so that the kernels cross
// cancellation batch edges, serial and over two workers.
func survivorCases(ctx context.Context) []survivorCase {
	var cases []survivorCase
	for _, k := range survivorWidths {
		cases = append(cases, survivorCase{k, survivorRows, []Exec{{Workers: 1}, {Workers: 3}}})
	}
	for _, k := range []int{1, 8, 17, 32} {
		cases = append(cases, survivorCase{k, batchedRows, []Exec{{Ctx: ctx, Workers: 1}, {Ctx: ctx, Workers: 2}}})
	}
	return cases
}

// crossesBatches reports whether a run under a context recorded more
// batches than workers: the batched cases must cross a batch edge, or
// they test nothing the one-batch cases do not.
func crossesBatches(x Exec, s obs.StageStats) bool {
	return x.Ctx == nil || s.Batches > int64(max(x.Workers, 1))
}

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
// words, live runs across the edges (survivorEdges), the partial last
// word alone, and the rows holding the domain bounds plus one sparse run.
func survivorShapes(codes []uint32, k int) map[string]*bitvec.Vector {
	n := len(codes)
	edges := survivorEdges(n)
	max := uint32(uint64(1)<<uint(k) - 1)
	rules := map[string]func(i int) bool{
		"empty":             func(int) bool { return false },
		"full":              func(int) bool { return true },
		"one_per_segment":   func(i int) bool { return i%core.SegmentSize == (i/core.SegmentSize)%core.SegmentSize },
		"alternating_words": func(i int) bool { return (i/64)%2 == 0 },
		"edge_runs": func(i int) bool {
			for _, e := range edges {
				if i >= e-100 && i < e+70 {
					return true
				}
			}
			return false
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

// survivorEdges returns the rows where a kernel's range or walk splits on
// an n-row column: the first 256-segment AVX2 window edge, the two- and
// three-worker partition edges, and the cancellation batch edges of a
// serial run and of the second of two workers. Edges past n name no row.
func survivorEdges(n int) []int {
	segs := (n + core.SegmentSize - 1) / core.SegmentSize
	batch := batchUnits(core.SegmentSize) * core.SegmentSize
	half := chunkEven(segs, 2) * core.SegmentSize
	third := chunkEven(segs, 3) * core.SegmentSize
	return []int{zoneWindow * core.SegmentSize, half, third, 2 * third, batch, 2 * batch, half + batch}
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
// both polarities, for every survivorCase, and asserts the stage census:
// every segment is scanned, zone-resolved or gate-skipped.
func TestPipelinedScanSurvivorShapes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range survivorCases(ctx) {
		k := c.k
		for set, codes := range survivorCodes(k, c.n) {
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
							for _, x := range c.execs {
								x.Stage = obs.NewQuery().NewStage("scan(pipelined)", "pipelined")
								got := bitvec.New(len(codes))
								got.Fill()
								mustScan(t, x, b, p, prev, negate, got)
								if !got.Equal(want) {
									t.Fatalf("k=%d n=%d %s %v gate=%s negate=%v zoned=%v workers=%d ctx=%v: pipelined scan differs from reference",
										k, c.n, set, p, name, negate, b.HasZoneMaps(), x.Workers, x.Ctx != nil)
								}
								s := x.Stage.Snapshot()
								if s.Segments+s.ZoneSkipped+s.MaskSkipped != int64(b.Segments()) {
									t.Fatalf("k=%d n=%d %s %v gate=%s negate=%v: segments %d + zone %d + mask %d != %d",
										k, c.n, set, p, name, negate, s.Segments, s.ZoneSkipped, s.MaskSkipped, b.Segments())
								}
								if !crossesBatches(x, s) {
									t.Fatalf("k=%d n=%d workers=%d: ran %d batches under a context; want a batch edge crossed", k, c.n, x.Workers, s.Batches)
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
// shapes against a row loop, for every survivorCase.
func TestMaskedAggregatesSurvivorShapes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range survivorCases(ctx) {
		k := c.k
		for set, codes := range survivorCodes(k, c.n) {
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
				for _, x := range c.execs {
					x.Stage = obs.NewQuery().NewStage("sum", "sum")
					gotSum, gotCount := mustSum(t, x, b, mask)
					if gotSum != sum || gotCount != count {
						t.Fatalf("k=%d n=%d %s mask=%s workers=%d ctx=%v: Sum = %d/%d, want %d/%d",
							k, c.n, set, name, x.Workers, x.Ctx != nil, gotSum, gotCount, sum, count)
					}
					if s := x.Stage.Snapshot(); !crossesBatches(x, s) {
						t.Fatalf("k=%d n=%d workers=%d: Sum ran %d batches under a context; want a batch edge crossed", k, c.n, x.Workers, s.Batches)
					}
					x.Stage = nil
					gotMin, okMin := mustExtreme(t, x, b, mask, true)
					gotMax, okMax := mustExtreme(t, x, b, mask, false)
					if okMin != (count > 0) || okMax != (count > 0) || (count > 0 && (gotMin != lo || gotMax != hi)) {
						t.Fatalf("k=%d n=%d %s mask=%s workers=%d ctx=%v: Min/Max = %d,%v/%d,%v, want %d/%d over %d rows",
							k, c.n, set, name, x.Workers, x.Ctx != nil, gotMin, okMin, gotMax, okMax, lo, hi, count)
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
