package core_test

import (
	"math/rand/v2"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/cache"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/layouttest"
	"byteslice/internal/perf"
	"byteslice/internal/simd"
)

func TestConformanceByteSlice(t *testing.T) { layouttest.Run(t, core.NewBuilder) }

func TestConformanceByteSlice16(t *testing.T) { layouttest.Run(t, core.New16Builder) }

// TestConformanceAppendAdopt: a column grown by AppendCodes in uneven
// chunks, padded and wrapped by Adopt, passes the same suite as New.
func TestConformanceAppendAdopt(t *testing.T) {
	layouttest.Run(t, func(codes []uint32, k int, _ *cache.Arena) layout.Layout {
		slices := make([][]byte, (k+7)/8)
		for lo := 0; lo < len(codes); lo += 7 {
			core.AppendCodes(slices, k, codes[lo:min(lo+7, len(codes))])
		}
		padded := max(1, (len(codes)+core.SegmentSize-1)/core.SegmentSize) * core.SegmentSize
		for j := range slices {
			slices[j] = append(slices[j], make([]byte, padded-len(slices[j]))...)
		}
		return core.Adopt(slices, k, len(codes))
	})
}

func TestConformanceOption2(t *testing.T) {
	// Option 2 supports every operator except BETWEEN; wrap the builder's
	// conformance run with a filtered operator list by testing directly.
	rng := rand.New(rand.NewPCG(42, 42)) //nolint:gosec
	for _, k := range layouttest.Widths {
		codes := layouttest.RandomCodes(rng, 1234, k, "uniform")
		l := core.NewOption2(codes, k, nil)
		e := layouttest.Engine()
		for i, want := range codes {
			if got := l.Lookup(e, i); got != want {
				t.Fatalf("k=%d lookup(%d) = %d, want %d", k, i, got, want)
			}
		}
		max := uint32(uint64(1)<<uint(k) - 1)
		for _, op := range []layout.Op{layout.Lt, layout.Le, layout.Gt, layout.Ge, layout.Eq, layout.Ne} {
			for _, c := range []uint32{0, 1, max / 3, max / 2, max} {
				layouttest.CheckScan(t, l, codes, layout.Predicate{Op: op, C1: c})
			}
		}
	}
}

func TestOption2RejectsBetween(t *testing.T) {
	l := core.NewOption2([]uint32{1, 2, 3}, 11, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for BETWEEN on Option2")
		}
	}()
	l.Scan(layouttest.Engine(), layout.Predicate{Op: layout.Between, C1: 1, C2: 2}, bitvec.New(3))
}

// TestPipelinedByteSlice checks the column-first pipelined scan against
// scan-then-combine, for both conjunction and disjunction, under previous
// results of varying density.
func TestPipelinedByteSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xF1, 0)) //nolint:gosec
	for _, k := range []int{5, 8, 12, 17, 24, 32} {
		codes := layouttest.RandomCodes(rng, 2029, k, "uniform")
		b := core.New(codes, k, nil)
		max := uint32(uint64(1)<<uint(k) - 1)
		for _, density := range []float64{0, 0.001, 0.1, 0.5, 0.99, 1} {
			prev := bitvec.New(len(codes))
			for i := range codes {
				if rng.Float64() < density {
					prev.Set(i, true)
				}
			}
			for _, op := range []layout.Op{layout.Lt, layout.Eq, layout.Ne, layout.Ge, layout.Between} {
				p := layout.Predicate{Op: op, C1: max / 3, C2: max / 2}
				e := layouttest.Engine()
				plain := bitvec.New(len(codes))
				b.Scan(e, p, plain)
				for _, negate := range []bool{false, true} {
					got := bitvec.New(len(codes))
					b.ScanPipelined(e, p, prev, negate, got)
					want := plain.Clone()
					if negate {
						want.Or(prev)
					} else {
						want.And(prev)
					}
					if !got.Equal(want) {
						t.Fatalf("k=%d %v density=%.3f negate=%v: pipelined scan differs", k, p, density, negate)
					}
				}
			}
		}
	}
}

// TestPredicateFirst checks the predicate-first multi-column scans against
// independent per-column scans combined with bit-vector algebra.
func TestPredicateFirst(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9)) //nolint:gosec
	n := 3001
	for _, numCols := range []int{1, 2, 3, 5} {
		cols := make([]*core.ByteSlice, numCols)
		preds := make([]layout.Predicate, numCols)
		raw := make([][]uint32, numCols)
		for i := range cols {
			k := 8 + 3*i
			raw[i] = layouttest.RandomCodes(rng, n, k, "uniform")
			cols[i] = core.New(raw[i], k, nil)
			max := uint32(uint64(1)<<uint(k) - 1)
			ops := []layout.Op{layout.Lt, layout.Gt, layout.Eq, layout.Between, layout.Ne}
			preds[i] = layout.Predicate{Op: ops[i%len(ops)], C1: max / 4, C2: max / 2}
		}
		wantAnd := bitvec.New(n)
		wantAnd.Fill()
		wantOr := bitvec.New(n)
		tmp := bitvec.New(n)
		e := layouttest.Engine()
		for i, c := range cols {
			c.Scan(e, preds[i], tmp)
			wantAnd.And(tmp)
			wantOr.Or(tmp)
		}

		got := bitvec.New(n)
		core.ScanConjunctionPredicateFirst(e, cols, preds, got)
		if !got.Equal(wantAnd) {
			t.Fatalf("%d cols: predicate-first conjunction differs", numCols)
		}
		core.ScanDisjunctionPredicateFirst(e, cols, preds, got)
		if !got.Equal(wantOr) {
			t.Fatalf("%d cols: predicate-first disjunction differs", numCols)
		}
	}
}

// TestEarlyStopSavesWork checks the core claim behind Table 1: with
// uniformly distributed 32-bit codes and a selective predicate, an
// early-stopping scan executes roughly an eighth of the instructions of a
// full-depth scan, because ~88% of segments stop after the first byte.
func TestEarlyStopSavesWork(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2)) //nolint:gosec
	codes := layouttest.RandomCodes(rng, 1<<16, 32, "uniform")
	p := layout.Predicate{Op: layout.Lt, C1: 1 << 30}

	run := func(es bool) uint64 {
		b := core.New(codes, 32, nil)
		b.SetEarlyStop(es)
		prof := perf.NewProfileNoCache()
		out := bitvec.New(len(codes))
		b.Scan(simd.New(prof), p, out)
		if got, want := out.Count(), countMatches(codes, p); got != want {
			t.Fatalf("earlyStop=%v: count %d, want %d", es, got, want)
		}
		return prof.Instructions()
	}
	with, without := run(true), run(false)
	// At k = 32 a full-depth scan runs 4 byte iterations; with uniform
	// data ~88% of segments stop after the first, so the early-stopping
	// scan should do well under 70% of the work even though each stop
	// costs a partial extra iteration (the failed test).
	if float64(with) >= 0.7*float64(without) {
		t.Fatalf("early stopping saved too little: %d vs %d instructions", with, without)
	}
}

// TestEarlyStopProbability validates Equation 2 empirically: for uniform
// random data and constant, the fraction of segments that stop after one
// byte should be (1-2^-8)^32 ≈ 0.8823.
func TestEarlyStopProbability(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4)) //nolint:gosec
	const segs = 20000
	codes := layouttest.RandomCodes(rng, segs*core.SegmentSize, 16, "uniform")
	b := core.New(codes, 16, nil)

	// Instruction accounting distinguishes depth. On the Lt path, k = 16
	// (two byte slices), the first iteration has no early-stop test (Meq
	// starts all-ones) and costs 6 SIMD ops; a full-depth segment adds the
	// second iteration's vptest + 6 ops + 1 movemask = 14 total; a segment
	// stopping after the first byte costs 6 + 1 + 1 = 8. With stop
	// probability p, E[SIMD/segment] = 14 − 6p, so p = (14 − x)/6.
	prof := perf.NewProfileNoCache()
	out := bitvec.New(len(codes))
	b.Scan(simd.New(prof), layout.Predicate{Op: layout.Lt, C1: uint32(rng.Uint64N(1 << 16))}, out)
	x := float64(prof.C.SIMD-2) / segs // minus the two constant broadcasts
	est := (14 - x) / 6
	if est < 0.86 || est > 0.90 {
		t.Fatalf("estimated first-byte stop probability %.4f, want ≈ 0.8823", est)
	}
}

func countMatches(codes []uint32, p layout.Predicate) int {
	n := 0
	for _, v := range codes {
		if p.Eval(v) {
			n++
		}
	}
	return n
}

// TestInverseMovemask checks the Figure 7 simulation against its spec.
func TestInverseMovemask(t *testing.T) {
	e := layouttest.Engine()
	for _, r := range []uint32{0, 1, 0x80000000, 0x40000000, 0xDEADBEEF, ^uint32(0)} {
		v := core.InverseMovemask(e, r)
		for i := 0; i < 32; i++ {
			want := byte(0)
			if r>>uint(i)&1 == 1 {
				want = 0xFF
			}
			if got := v.Byte(i); got != want {
				t.Fatalf("InverseMovemask(%#x) byte %d = %#x, want %#x", r, i, got, want)
			}
		}
		// Round trip through movemask.
		if got := e.Movemask8(v); got != r {
			t.Fatalf("movemask(inverse(%#x)) = %#x", r, got)
		}
	}
}

// TestSegmentLayoutMatchesPaper reproduces the Figure 5a example: 11-bit
// codes split into one full byte and a padded tail byte.
func TestSegmentLayoutMatchesPaper(t *testing.T) {
	// v1 = 01000000 011, v2 = 00001111 100 (from §3.1's worked example).
	v1 := uint32(0x203) // 010 0000 0011
	v1 = 0b01000000011
	v2 := uint32(0b00001111100)
	b := core.New([]uint32{v1, v2}, 11, nil)
	if b.NumSlices() != 2 {
		t.Fatalf("NumSlices = %d, want 2", b.NumSlices())
	}
	if got := b.SliceByte(0, 0); got != 0b01000000 {
		t.Fatalf("BS1[v1] = %08b", got)
	}
	if got := b.SliceByte(1, 0); got != 0b01100000 {
		t.Fatalf("BS2[v1] = %08b (tail 011 should be padded to 01100000)", got)
	}
	if got := b.SliceByte(0, 1); got != 0b00001111 {
		t.Fatalf("BS1[v2] = %08b", got)
	}
	if got := b.SliceByte(1, 1); got != 0b10000000 {
		t.Fatalf("BS2[v2] = %08b", got)
	}
	// Lookup reconstruction example from §3.2: v2 = (00001111100)₂.
	if got := b.Lookup(layouttest.Engine(), 1); got != v2 {
		t.Fatalf("Lookup(v2) = %011b, want %011b", got, v2)
	}
}

func TestConformanceByteSlice512(t *testing.T) { layouttest.Run(t, core.New512Builder) }

func TestMaterialize(t *testing.T) {
	rng := rand.New(rand.NewPCG(70, 70)) //nolint:gosec
	codes := layouttest.RandomCodes(rng, 5000, 13, "uniform")
	src := core.New(codes, 13, nil)
	e := layouttest.Engine()
	p := layout.Predicate{Op: layout.Gt, C1: 6000}
	match := bitvec.New(len(codes))
	src.Scan(e, p, match)

	out := core.Materialize(e, src, match)
	if out.Width() != 13 || out.Len() != match.Count() {
		t.Fatalf("materialized shape %d×%d", out.Width(), out.Len())
	}
	i := 0
	for r, c := range codes {
		if !match.Get(r) {
			continue
		}
		if got := out.Lookup(e, i); got != c {
			t.Fatalf("materialized row %d = %d, want %d", i, got, c)
		}
		i++
	}
	// The materialized column scans correctly (it is a real ByteSlice).
	sub := bitvec.New(out.Len())
	out.Scan(e, layout.Predicate{Op: layout.Gt, C1: 8000}, sub)
	want := 0
	for _, c := range codes {
		if c > 8000 {
			want++
		}
	}
	if sub.Count() != want {
		t.Fatalf("scan over materialized column: %d, want %d", sub.Count(), want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	core.Materialize(e, src, bitvec.New(3))
}
