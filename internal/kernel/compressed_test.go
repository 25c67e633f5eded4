package kernel

import (
	"context"
	"slices"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/datagen"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// compressedShapes covers every per-block path: uniform random (mixed
// lengths, nothing prunes), sorted (delta blocks, nearly everything
// prunes), clustered (FOR, partial pruning), low-entropy (every block on
// the uniform 1-byte no-decode path), tail sizes around the block
// boundary, and sorted codes whose last block holds an odd number of
// segments, three with the last partial, which the block bounds decide
// either way as the constant moves.
func compressedShapes(k int) map[string][]uint32 {
	rng := datagen.NewRand(0xBEEF)
	shapes := map[string][]uint32{
		"uniform":   datagen.Uniform(rng, 3000, k),
		"sorted":    datagen.Sorted(rng, 2500, k),
		"clustered": datagen.Clustered(rng, 4096, k, 256),
		"block":     datagen.Uniform(rng, compress.BlockCodes, k),
		"block+1":   datagen.Uniform(rng, compress.BlockCodes+1, k),
		"block-1":   datagen.Uniform(rng, compress.BlockCodes-1, k),
		"odd_tail":  datagen.Sorted(rng, 2*compress.BlockCodes+2*core.SegmentSize+7, k),
	}
	// Narrow-span values around a fixed base: frame-of-reference offsets
	// all fit one byte, so every block takes the direct-compare path.
	base := uint32(1)<<uint(k-1) - 100
	if k == 1 {
		base = 0
	}
	low := make([]uint32, 2000)
	span := uint32(200)
	if uint64(span) >= 1<<uint(k) {
		span = 1<<uint(k) - 1
	}
	for i := range low {
		low[i] = base + rng.Uint32N(span+1)
	}
	shapes["lowent"] = low
	return shapes
}

// predConstants picks constants that exercise pruned-all, pruned-none and
// straddling blocks for each shape.
func predConstants(codes []uint32, k int) [][2]uint32 {
	dom := uint64(1) << uint(k)
	mn, mx := codes[0], codes[0]
	for _, v := range codes {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mid := mn + (mx-mn)/2
	return [][2]uint32{
		{mid, mid + (mx-mid)/2},
		{mn, mid},
		{mx, uint32(dom - 1)},
		{0, 0},
		{uint32(dom - 1), uint32(dom - 1)},
	}
}

// mustScanCompressed runs ScanCompressed under x and fails the test on an
// error.
func mustScanCompressed(t testing.TB, x Exec, c *compress.Column, p layout.Predicate, out *bitvec.Vector) int {
	t.Helper()
	pruned, err := ScanCompressed(x, c, p, out)
	if err != nil {
		t.Fatal(err)
	}
	return pruned
}

// mustSumCompressed runs SumCompressed under x and fails the test on an
// error.
func mustSumCompressed(t testing.TB, x Exec, c *compress.Column, mask *bitvec.Vector) (uint64, int) {
	t.Helper()
	sum, count, err := SumCompressed(x, c, mask)
	if err != nil {
		t.Fatal(err)
	}
	return sum, count
}

// mustExtremeCompressed runs ExtremeCompressed under x and fails the test
// on an error.
func mustExtremeCompressed(t testing.TB, x Exec, c *compress.Column, mask *bitvec.Vector, isMin bool) (uint32, bool) {
	t.Helper()
	v, ok, err := ExtremeCompressed(x, c, mask, isMin)
	if err != nil {
		t.Fatal(err)
	}
	return v, ok
}

func TestScanCompressedMatchesRaw(t *testing.T) {
	for _, k := range []int{1, 8, 13, 16, 21, 32} {
		for name, codes := range compressedShapes(k) {
			cc := compress.New(codes, k, nil)
			raw := core.New(codes, k, nil)
			want := bitvec.New(len(codes))
			got := bitvec.New(len(codes))
			for _, op := range layout.Ops {
				for _, cs := range predConstants(codes, k) {
					c1, c2 := cs[0], cs[1]
					if op != layout.Between {
						c2 = c1
					}
					p := layout.Predicate{Op: op, C1: c1, C2: c2}
					mustScan(t, Exec{}, raw, p, nil, false, want)
					for _, workers := range []int{1, 3} {
						got.Fill()
						mustScanCompressed(t, Exec{Workers: workers}, cc, p, got)
						if !got.Equal(want) {
							t.Fatalf("k=%d %s %v workers=%d: compressed scan diverged", k, name, p, workers)
						}
					}
				}
			}
		}
	}
}

func TestScanCompressedObsAccounting(t *testing.T) {
	rng := datagen.NewRand(11)
	codes := datagen.Clustered(rng, 1<<14, 16, 512)
	cc := compress.New(codes, 16, nil)
	raw := core.New(codes, 16, nil)
	p := layout.Predicate{Op: layout.Le, C1: datagen.SelectivityConstant(codes, 0.1)}
	want := bitvec.New(len(codes))
	mustScan(t, Exec{}, raw, p, nil, false, want)

	got := bitvec.New(len(codes))
	st := &obs.Stage{}
	pruned := mustScanCompressed(t, Exec{Workers: 2, Stage: st}, cc, p, got)
	if !got.Equal(want) {
		t.Fatal("instrumented compressed scan diverged from raw")
	}
	plain := bitvec.New(len(codes))
	prunedPlain := mustScanCompressed(t, Exec{Workers: 2}, cc, p, plain)
	if !plain.Equal(want) {
		t.Fatal("plain compressed scan diverged from raw")
	}
	if pruned != prunedPlain {
		t.Fatalf("pruned counts diverge: obs=%d plain=%d", pruned, prunedPlain)
	}
	s := st.Snapshot()
	if s.BytesTouched == 0 {
		t.Fatal("instrumented compressed scan recorded no bytes")
	}
	if s.BytesTouched >= int64(cc.RawBytes()) {
		t.Fatalf("compressed scan touched %d bytes, raw column is %d", s.BytesTouched, cc.RawBytes())
	}
	var depths int64
	for _, d := range s.EarlyStop {
		depths += d
	}
	if want := int64(cc.Segments()); depths != want {
		t.Fatalf("depth histogram covers %d segments, want %d", depths, want)
	}
}

func TestSumCompressed(t *testing.T) {
	for _, k := range []int{8, 16, 24, 32} {
		for name, codes := range compressedShapes(k) {
			cc := compress.New(codes, k, nil)
			var wantAll uint64
			for _, v := range codes {
				wantAll += uint64(v)
			}
			for _, workers := range []int{1, 3} {
				sum, count := mustSumCompressed(t, Exec{Workers: workers}, cc, nil)
				if sum != wantAll || count != len(codes) {
					t.Fatalf("k=%d %s workers=%d: sum=%d count=%d, want %d/%d",
						k, name, workers, sum, count, wantAll, len(codes))
				}
			}
			mask := bitvec.New(len(codes))
			var wantMasked uint64
			wantCount := 0
			for i, v := range codes {
				if i%3 == 0 {
					mask.Set(i, true)
					wantMasked += uint64(v)
					wantCount++
				}
			}
			sum, count := mustSumCompressed(t, Exec{Workers: 2}, cc, mask)
			if sum != wantMasked || count != wantCount {
				t.Fatalf("k=%d %s masked: sum=%d count=%d, want %d/%d",
					k, name, sum, count, wantMasked, wantCount)
			}
			empty := bitvec.New(len(codes))
			if sum, count := mustSumCompressed(t, Exec{Workers: 2}, cc, empty); sum != 0 || count != 0 {
				t.Fatalf("k=%d %s empty mask: sum=%d count=%d", k, name, sum, count)
			}
		}
	}
}

func TestExtremeCompressed(t *testing.T) {
	for _, k := range []int{8, 16, 32} {
		for name, codes := range compressedShapes(k) {
			cc := compress.New(codes, k, nil)
			mn, mx := codes[0], codes[0]
			for _, v := range codes {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			if v, ok := mustExtremeCompressed(t, Exec{Workers: 2}, cc, nil, true); !ok || v != mn {
				t.Fatalf("k=%d %s: min=%d ok=%v, want %d", k, name, v, ok, mn)
			}
			if v, ok := mustExtremeCompressed(t, Exec{Workers: 2}, cc, nil, false); !ok || v != mx {
				t.Fatalf("k=%d %s: max=%d ok=%v, want %d", k, name, v, ok, mx)
			}
			mask := bitvec.New(len(codes))
			mmn, mmx := uint32(0), uint32(0)
			seen := false
			for i, v := range codes {
				if i%7 == 2 {
					mask.Set(i, true)
					if !seen || v < mmn {
						mmn = v
					}
					if !seen || v > mmx {
						mmx = v
					}
					seen = true
				}
			}
			if !seen {
				continue
			}
			for _, workers := range []int{1, 3} {
				if v, ok := mustExtremeCompressed(t, Exec{Workers: workers}, cc, mask, true); !ok || v != mmn {
					t.Fatalf("k=%d %s masked min=%d ok=%v, want %d", k, name, v, ok, mmn)
				}
				if v, ok := mustExtremeCompressed(t, Exec{Workers: workers}, cc, mask, false); !ok || v != mmx {
					t.Fatalf("k=%d %s masked max=%d ok=%v, want %d", k, name, v, ok, mmx)
				}
			}
			empty := bitvec.New(len(codes))
			if _, ok := mustExtremeCompressed(t, Exec{Workers: 2}, cc, empty, true); ok {
				t.Fatalf("k=%d %s: empty mask reported an extreme", k, name)
			}
		}
	}
}

func TestCompressedKernelsCancelAndIsolate(t *testing.T) {
	rng := datagen.NewRand(5)
	codes := datagen.Uniform(rng, 1<<15, 16)
	cc := compress.New(codes, 16, nil)
	out := bitvec.New(len(codes))
	p := layout.Predicate{Op: layout.Ge, C1: 1 << 12}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScanCompressed(Exec{Ctx: ctx, Workers: 2}, cc, p, out); err == nil {
		t.Fatal("cancelled compressed scan returned nil error")
	}
	if _, _, err := SumCompressed(Exec{Ctx: ctx, Workers: 2}, cc, nil); err == nil {
		t.Fatal("cancelled compressed sum returned nil error")
	}
	mask := bitvec.New(len(codes))
	mask.Fill()
	if _, _, err := ExtremeCompressed(Exec{Ctx: ctx, Workers: 2}, cc, mask, true); err == nil {
		t.Fatal("cancelled compressed extreme returned nil error")
	}

	BatchHook = func(segLo, segHi int) { panic("injected kernel fault") }
	defer func() { BatchHook = nil }()
	if _, err := ScanCompressed(Exec{Workers: 2}, cc, p, out); err == nil {
		t.Fatal("worker panic did not surface as an error")
	} else if _, isPanic := err.(*PanicError); !isPanic {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
}

// TestLookupManyCompressedCrossover gathers 1, 2, decodeRows−1,
// decodeRows, decodeRows+1 and all of the rows of every block, serially
// and under a cancellable context and a stage, from a column in each
// block mode build makes (uniform one-byte delta and FOR, mixed delta and
// FOR), so each mode takes both the select and the decode side. Stage
// bytes stay below a decode of every visited block while each block holds
// one row, and equal it once every row is read.
func TestLookupManyCompressedCrossover(t *testing.T) {
	const n = 6*compress.BlockCodes + 100
	rng := datagen.NewRand(0xC805)
	delta1, deltaMixed, for1, forMixed := make([]uint32, n), make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := 1; i < n; i++ {
		delta1[i] = delta1[i-1] + rng.Uint32N(8)
		gap := rng.Uint32N(200)
		if rng.Uint32N(4) == 0 {
			gap = rng.Uint32N(60000)
		}
		deltaMixed[i] = deltaMixed[i-1] + gap
	}
	for i := range for1 {
		for1[i] = 5000 + rng.Uint32N(200)
		forMixed[i] = rng.Uint32N(1 << 24)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, codes := range map[string][]uint32{"delta1": delta1, "deltaMixed": deltaMixed, "for1": for1, "forMixed": forMixed} {
		c := compress.New(codes, 32, nil)
		wantMode := map[string]byte{"delta1": 3, "deltaMixed": 1, "for1": 2, "forMixed": 0}[name]
		var decodeBytes int64
		for b := 0; b < c.Blocks(); b++ {
			if c.Modes()[b] != wantMode {
				t.Fatalf("%s: block %d has mode %d, want %d", name, b, c.Modes()[b], wantMode)
			}
			decodeBytes += int64(c.BlockBytes(b))
		}
		for _, per := range []int{1, 2, decodeRows - 1, decodeRows, decodeRows + 1, compress.BlockCodes} {
			var rows []int32
			for b := 0; b < c.Blocks(); b++ {
				picked := rng.Perm(c.BlockRows(b))
				picked = picked[:min(per, len(picked))]
				slices.Sort(picked)
				for _, r := range picked {
					rows = append(rows, int32(b*compress.BlockCodes+r))
				}
			}
			for _, x := range []Exec{{}, {Ctx: ctx, Stage: &obs.Stage{}}} {
				out := make([]uint32, len(rows))
				if err := LookupManyCompressed(x, c, rows, out); err != nil {
					t.Fatal(err)
				}
				for i, r := range rows {
					if out[i] != codes[r] {
						t.Fatalf("%s per=%d: row %d = %d, want %d", name, per, r, out[i], codes[r])
					}
				}
				if x.Stage == nil {
					continue
				}
				switch got := x.Stage.Snapshot().BytesTouched; {
				case per == 1 && got >= decodeBytes:
					t.Fatalf("%s: one row per block touched %d bytes, decoding every block reads %d", name, got, decodeBytes)
				case per == compress.BlockCodes && got != decodeBytes:
					t.Fatalf("%s: every row touched %d bytes, want the %d a decode of every block reads", name, got, decodeBytes)
				}
			}
		}
	}
}
