package kernel

import (
	"math/rand/v2"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/layouttest"
)

// --- SWAR primitive properties ---

func packBytes(b [8]byte) uint64 {
	var w uint64
	for i, v := range b {
		w |= uint64(v) << uint(8*i)
	}
	return w
}

func TestSWARPrimitives(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2)) //nolint:gosec // deterministic test
	for trial := 0; trial < 20000; trial++ {
		var xb, yb [8]byte
		for i := range xb {
			// Mix uniform bytes with boundary values to hit lane edges.
			switch rng.IntN(5) {
			case 0:
				xb[i], yb[i] = 0, 0
			case 1:
				xb[i], yb[i] = 0xFF, 0xFF
			case 2:
				v := byte(rng.UintN(256))
				xb[i], yb[i] = v, v
			default:
				xb[i], yb[i] = byte(rng.UintN(256)), byte(rng.UintN(256))
			}
		}
		x, y := packBytes(xb), packBytes(yb)
		eq, ge, lt, gt := eq8(x, y), ge8(x, y), lt8(x, y), gt8(x, y)
		for l := 0; l < 8; l++ {
			bit := uint64(0x80) << uint(8*l)
			check := func(name string, m uint64, want bool) {
				if m&^(msb) != 0 {
					t.Fatalf("%s(%#x,%#x) has non-mask bits %#x", name, x, y, m)
				}
				if (m&bit != 0) != want {
					t.Fatalf("%s lane %d: x=%#x y=%#x got %v want %v", name, l, xb[l], yb[l], m&bit != 0, want)
				}
			}
			check("eq8", eq, xb[l] == yb[l])
			check("ge8", ge, xb[l] >= yb[l])
			check("lt8", lt, xb[l] < yb[l])
			check("gt8", gt, xb[l] > yb[l])
		}
	}
}

// TestConstantCompare checks the constant-specialised ltc8/gtc8 against
// scalar comparison for every constant byte and random lane data.
func TestConstantCompare(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6)) //nolint:gosec
	for c := 0; c < 256; c++ {
		cb := uint64(c) * lsb
		cLo, cOr, cHi := cb&^uint64(msb), cb|uint64(msb), c >= 0x80
		for trial := 0; trial < 200; trial++ {
			var wb [8]byte
			for i := range wb {
				switch rng.IntN(4) {
				case 0:
					wb[i] = byte(c) // equal lanes exercise the boundary
				case 1:
					wb[i] = byte(c) ^ 0x80
				default:
					wb[i] = byte(rng.UintN(256))
				}
			}
			w := packBytes(wb)
			lt, gt := ltc8(w, cLo, cHi), gtc8(w, cOr, cHi)
			if lt&^uint64(msb) != 0 || gt&^uint64(msb) != 0 {
				t.Fatalf("c=%#x w=%#x: non-mask bits lt=%#x gt=%#x", c, w, lt, gt)
			}
			for l := 0; l < 8; l++ {
				bit := uint64(0x80) << uint(8*l)
				if (lt&bit != 0) != (wb[l] < byte(c)) {
					t.Fatalf("ltc8 lane %d: w=%#x c=%#x got %v", l, wb[l], c, lt&bit != 0)
				}
				if (gt&bit != 0) != (wb[l] > byte(c)) {
					t.Fatalf("gtc8 lane %d: w=%#x c=%#x got %v", l, wb[l], c, gt&bit != 0)
				}
			}
		}
	}
}

func TestMovemask(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4)) //nolint:gosec
	for trial := 0; trial < 20000; trial++ {
		bits := uint32(rng.Uint64N(256))
		var m uint64
		for l := 0; l < 8; l++ {
			if bits&(1<<uint(l)) != 0 {
				m |= 0x80 << uint(8*l)
			}
		}
		if got := movemask(m); got != bits {
			t.Fatalf("movemask(%#x) = %#x, want %#x", m, got, bits)
		}
	}
}

func TestExpand8(t *testing.T) {
	for v := 0; v < 256; v++ {
		got := expand8(byte(v))
		var want uint64
		for l := 0; l < 8; l++ {
			if v&(1<<uint(l)) != 0 {
				want |= 0xFF << uint(8*l)
			}
		}
		if got != want {
			t.Fatalf("expand8(%#x) = %#x, want %#x", v, got, want)
		}
	}
}

// --- Scan kernels against the scalar oracle ---

func testPredicates(rng *rand.Rand, k int) []layout.Predicate {
	max := uint32(uint64(1)<<uint(k) - 1)
	cs := []uint32{0, max, max / 2}
	if max > 0 {
		cs = append(cs, 1, max-1)
	}
	for i := 0; i < 3; i++ {
		cs = append(cs, uint32(rng.Uint64N(uint64(max)+1)))
	}
	var ps []layout.Predicate
	for _, op := range layout.Ops {
		for _, c := range cs {
			p := layout.Predicate{Op: op, C1: c, C2: c}
			if op == layout.Between {
				hi := c + uint32(rng.Uint64N(8))
				if hi > max {
					hi = max
				}
				p.C2 = hi
			}
			ps = append(ps, p)
		}
	}
	return ps
}

// mustScan runs Scan under x and fails the test on an error; it returns
// the zone-pruned segment count. On an AVX2 host it first checks that the
// SWAR and AVX2 loops agree on the scan (comparePaths).
func mustScan(t testing.TB, x Exec, b *core.ByteSlice, p layout.Predicate, prev *bitvec.Vector, negate bool, out *bitvec.Vector) int {
	t.Helper()
	comparePaths(t, x, b, p, prev, negate, out)
	pruned, err := Scan(x, b, p, prev, negate, out)
	if err != nil {
		t.Fatal(err)
	}
	return pruned
}

// mustSum runs Sum under x and fails the test on an error. On an AVX2
// host it first checks that the SWAR and AVX2 loops agree on the sum
// (compareSumPaths).
func mustSum(t testing.TB, x Exec, b *core.ByteSlice, mask *bitvec.Vector) (uint64, int) {
	t.Helper()
	compareSumPaths(t, x, b, mask)
	sum, count, err := Sum(x, b, mask)
	if err != nil {
		t.Fatal(err)
	}
	return sum, count
}

// mustExtreme runs Extreme under x and fails the test on an error. On an
// AVX2 host it first checks that the SWAR and AVX2 loops agree on the
// extreme (compareExtremePaths).
func mustExtreme(t testing.TB, x Exec, b *core.ByteSlice, mask *bitvec.Vector, isMin bool) (uint32, bool) {
	t.Helper()
	compareExtremePaths(t, x, b, mask, isMin)
	v, ok, err := Extreme(x, b, mask, isMin)
	if err != nil {
		t.Fatal(err)
	}
	return v, ok
}

func TestScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x5EED, 7)) //nolint:gosec
	for _, k := range layouttest.Widths {
		for _, dist := range []string{"uniform", "low", "edges", "runs"} {
			codes := layouttest.RandomCodes(rng, 1337, k, dist)
			b := core.New(codes, k, nil)
			for _, p := range testPredicates(rng, k) {
				out := bitvec.New(len(codes))
				mustScan(t, Exec{}, b, p, nil, false, out)
				for i, v := range codes {
					if out.Get(i) != p.Eval(v) {
						t.Fatalf("k=%d dist=%s %v: row %d (code %d) got %v", k, dist, p, i, v, out.Get(i))
					}
				}
			}
		}
	}
}

func TestScanTinyAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9)) //nolint:gosec
	for _, n := range []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 255, 256, 257} {
		codes := layouttest.RandomCodes(rng, n, 13, "uniform")
		b := core.New(codes, 13, nil)
		for _, p := range []layout.Predicate{
			{Op: layout.Lt, C1: 4096},
			{Op: layout.Ne, C1: 0},
			{Op: layout.Between, C1: 100, C2: 5000},
		} {
			out := bitvec.New(n)
			mustScan(t, Exec{Workers: 4}, b, p, nil, false, out)
			for i, v := range codes {
				if out.Get(i) != p.Eval(v) {
					t.Fatalf("n=%d %v: row %d (code %d) got %v", n, p, i, v, out.Get(i))
				}
			}
		}
	}
}

// TestParallelScanMatchesSerial checks worker counts beyond CPU count and
// stale bits in a reused output vector.
func TestParallelScanMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13)) //nolint:gosec
	codes := layouttest.RandomCodes(rng, 100_003, 17, "uniform")
	b := core.New(codes, 17, nil)
	p := layout.Predicate{Op: layout.Ge, C1: 40_000}
	want := bitvec.New(len(codes))
	mustScan(t, Exec{}, b, p, nil, false, want)
	got := bitvec.New(len(codes))
	got.Fill() // stale bits must be overwritten
	for _, workers := range []int{1, 2, 3, 4, 7, 16, 100} {
		mustScan(t, Exec{Workers: workers}, b, p, nil, false, got)
		if !got.Equal(want) {
			t.Fatalf("workers=%d: parallel scan differs from serial", workers)
		}
	}
}

func TestScanPipelinedMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19)) //nolint:gosec
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
				for _, negate := range []bool{false, true} {
					want := bitvec.New(len(codes))
					b.ScanPipelined(layouttest.Engine(), p, prev, negate, want)
					got := bitvec.New(len(codes))
					mustScan(t, Exec{Workers: 4}, b, p, prev, negate, got)
					if !got.Equal(want) {
						t.Fatalf("k=%d %v negate=%v density=%.3f: pipelined kernel differs", k, p, negate, density)
					}
				}
			}
		}
	}
}

// --- Aggregates and lookups ---

func TestAggregatesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29)) //nolint:gosec
	for _, k := range []int{1, 7, 8, 12, 16, 24, 31, 32} {
		for _, n := range []int{1, 31, 32, 1000, 4096, 9999} {
			codes := layouttest.RandomCodes(rng, n, k, "uniform")
			b := core.New(codes, k, nil)
			for _, density := range []float64{-1, 0, 0.3, 1} {
				var mask *bitvec.Vector
				if density >= 0 {
					mask = bitvec.New(n)
					for i := 0; i < n; i++ {
						if rng.Float64() < density {
							mask.Set(i, true)
						}
					}
				}
				var wantSum uint64
				wantCount := 0
				var wantMin, wantMax uint32
				found := false
				for i, v := range codes {
					if mask != nil && !mask.Get(i) {
						continue
					}
					wantSum += uint64(v)
					wantCount++
					if !found || v < wantMin {
						wantMin = v
					}
					if !found || v > wantMax {
						wantMax = v
					}
					found = true
				}
				for _, workers := range []int{1, 4} {
					x := Exec{Workers: workers}
					sum, count := mustSum(t, x, b, mask)
					if sum != wantSum || count != wantCount {
						t.Fatalf("k=%d n=%d workers=%d: Sum = %d/%d, want %d/%d", k, n, workers, sum, count, wantSum, wantCount)
					}
					mn, okMin := mustExtreme(t, x, b, mask, true)
					mx, okMax := mustExtreme(t, x, b, mask, false)
					if okMin != found || okMax != found {
						t.Fatalf("k=%d n=%d workers=%d: extreme ok = %v/%v, want %v", k, n, workers, okMin, okMax, found)
					}
					if found && (mn != wantMin || mx != wantMax) {
						t.Fatalf("k=%d n=%d workers=%d: min/max = %d/%d, want %d/%d", k, n, workers, mn, mx, wantMin, wantMax)
					}
				}
			}
		}
	}
}

func TestLookup(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37)) //nolint:gosec
	for _, k := range layouttest.Widths {
		codes := layouttest.RandomCodes(rng, 500, k, "edges")
		b := core.New(codes, k, nil)
		rows := make([]int32, len(codes))
		for i := range rows {
			rows[i] = int32(i)
		}
		out := make([]uint32, len(rows))
		if err := LookupMany(Exec{}, b, rows, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range codes {
			if got := Lookup(b, i); got != v {
				t.Fatalf("k=%d: Lookup(%d) = %d, want %d", k, i, got, v)
			}
			if out[i] != v {
				t.Fatalf("k=%d: LookupMany[%d] = %d, want %d", k, i, out[i], v)
			}
		}
	}
}

// TestSumLongColumn exercises the 16-bit accumulator fold boundary (124
// words) with all-0xFF bytes, the worst case for lane overflow.
func TestSumLongColumn(t *testing.T) {
	const n = 100_000
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = 0xFF
	}
	b := core.New(codes, 8, nil)
	sum, count := mustSum(t, Exec{}, b, nil)
	if sum != uint64(n)*0xFF || count != n {
		t.Fatalf("Sum = %d/%d, want %d/%d", sum, count, uint64(n)*0xFF, n)
	}
}
