package kernel

import (
	"encoding/binary"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
	"byteslice/internal/layout/layouttest"
)

// FuzzNativeVsEngine decodes arbitrary bytes into (width, operator,
// constants, worker count, previous-result mask, codes) and asserts that
// every native kernel produces results bit-identical to its modelled
// engine counterpart in internal/core: Scan vs Scan, the pipelined scans
// for both polarities under a striped and a clustered gate, worker-pool
// scans vs serial, and the aggregates and Count under the same masks. On
// an AVX2 host every scan, aggregate and Count also runs on both paths.
// Run with `go test -fuzz FuzzNativeVsEngine ./internal/kernel` for
// continuous fuzzing; the seed corpus runs in ordinary `go test`.
func FuzzNativeVsEngine(f *testing.F) {
	f.Add([]byte{11, 0, 0x80, 0x02, 0x00, 0x04, 3, 0xAA, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{32, 4, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0x00, 0xAA, 0xBB, 0xCC, 0xDD})
	f.Add([]byte{1, 6, 0, 0, 0, 1, 9, 0xFF, 0xF0})
	f.Add([]byte{8, 2, 42, 0, 99, 0, 2, 0x55, 42, 41, 43, 42})
	f.Add([]byte{16, 5, 7, 1, 9, 2, 0, 0x0F, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	// Domain-edge constants (0xFFFF reduces to max for k <= 16), which the
	// strict-bound rewrite turns into fixed verdicts, one-sided ranges and
	// one-code intervals: Le max, Ge 0, Lt 0, Gt max, Between [0,max],
	// [0,x], [x,max] and [x,x], and Le/Ge next to the edges.
	edgeBody := []byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0x7F, 0x80, 0, 0xFF, 0, 0x2A}
	for _, hdr := range [][8]byte{
		{11, 1, 0xFF, 0xFF, 0, 0, 1, 0xAA},   // k=12 Le max
		{11, 3, 0, 0, 0, 0, 3, 0x55},         // k=12 Ge 0
		{11, 0, 0, 0, 0, 0, 0, 0x0F},         // k=12 Lt 0
		{15, 2, 0xFF, 0xFF, 0, 0, 2, 0xF0},   // k=16 Gt max
		{7, 6, 0, 0, 0xFF, 0xFF, 1, 0xAA},    // k=8 Between [0,max]
		{15, 6, 0, 0, 0x2A, 0x01, 4, 0x33},   // k=16 Between [0,x]
		{8, 6, 0x80, 0, 0xFF, 0xFF, 0, 0xCC}, // k=9 Between [x,max]
		{8, 6, 0xFF, 0, 0xFF, 0, 2, 0x99},    // k=9 Between [x,x]
		{23, 1, 1, 0, 0, 0, 1, 0x5A},         // k=24 Le 1
		{0, 3, 1, 0, 0, 0, 0, 0xA5},          // k=1 Ge 1
	} {
		f.Add(append(hdr[:], edgeBody...))
	}

	// Long clustered bodies: runs of similar codes the zone map decides,
	// under gates and masks whose words are mostly dead.
	for _, hdr := range [][8]byte{
		{11, 6, 0x00, 0x40, 0x00, 0x60, 0, 0x1B}, // k=12 Between, serial
		{15, 0, 0x00, 0x80, 0, 0, 3, 0x0A},       // k=16 Lt, 3 workers
		{23, 2, 0x00, 0x20, 0, 0, 2, 0x25},       // k=24 Gt, 2 workers
	} {
		body := make([]byte, 3000)
		for i := range body {
			body[i] = byte(i / 12)
		}
		f.Add(append(hdr[:], body...))
	}

	// Bodies longer than one 256-segment window (9,000 codes) drawn from a
	// few bytes around the constants' first bytes, so most segments tie
	// the constant and the deeper slices decide them. A code's first byte
	// is body byte i+1 at k=16, i+2 at k=24 and i+3 at k=32 (constants
	// there stay below 2^16, first byte 0); at k=20 it mixes the nibbles
	// of bytes i+1 and i+2 (the last seed's bounds share first byte 5).
	for _, s := range []struct {
		hdr      [8]byte
		alphabet []byte
	}{
		{[8]byte{15, 6, 0x10, 0x5A, 0x80, 0x5B, 3, 0xAA}, []byte{0x59, 0x5A, 0x5B, 0x5C}}, // k=16 Between
		{[8]byte{15, 0, 0x40, 0x7F, 0, 0, 0, 0x0F}, []byte{0x7E, 0x7F, 0x80}},             // k=16 Lt
		{[8]byte{15, 4, 0x33, 0x22, 0, 0, 2, 0x55}, []byte{0x21, 0x22, 0x23, 0x33}},       // k=16 Eq
		{[8]byte{23, 2, 0x34, 0x12, 0, 0, 2, 0x25}, []byte{0x00, 0x01, 0x12, 0x34}},       // k=24 Gt
		{[8]byte{31, 5, 0x00, 0x01, 0, 0, 1, 0xF0}, []byte{0x00, 0x01, 0x02}},             // k=32 Ne
		{[8]byte{19, 6, 0x00, 0x51, 0x00, 0x5F, 4, 0x33}, []byte{0x4F, 0x50, 0x51, 0x60}}, // k=20 Between
	} {
		body := make([]byte, 9000)
		x := uint32(s.hdr[0])
		for i := range body {
			x = x*1664525 + 1013904223
			body[i] = s.alphabet[x>>24%uint32(len(s.alphabet))]
		}
		f.Add(append(s.hdr[:], body...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		k := int(data[0])%32 + 1
		op := layout.Ops[int(data[1])%len(layout.Ops)]
		max := uint32(uint64(1)<<uint(k) - 1)
		dom := uint64(max) + 1
		p := layout.Predicate{
			Op: op,
			C1: uint32(uint64(binary.LittleEndian.Uint16(data[2:])) % dom),
			C2: uint32(uint64(binary.LittleEndian.Uint16(data[4:])) % dom),
		}
		if p.Op == layout.Between && p.C1 > p.C2 {
			p.C1, p.C2 = p.C2, p.C1
		}
		workers := int(data[6]) % 9
		// prevSeed patterns the pipelined scan's previous result (and the
		// aggregate mask): each row's bit comes from a rotating byte.
		prevSeed := data[7]

		body := data[8:]
		codes := make([]uint32, 0, len(body))
		for i := range body {
			var w [4]byte
			copy(w[:], body[i:])
			codes = append(codes, uint32(uint64(binary.LittleEndian.Uint32(w[:]))%dom))
		}
		if len(codes) == 0 {
			return
		}
		n := len(codes)
		b := core.New(codes, k, nil)

		prev := bitvec.New(n)
		for i := 0; i < n; i++ {
			if prevSeed>>(uint(i)%8)&1 == 1 || (prevSeed == 0xAA && i%3 == 0) {
				prev.Set(i, true)
			}
		}
		// runs is a clustered gate and mask: live runs of 16–2048 rows
		// between dead ones twice as long, so whole 64-row words are dead.
		runs := bitvec.New(n)
		runLen, phase := 16<<(prevSeed&7), int(prevSeed>>3)%3
		for i := 0; i < n; i++ {
			if (i/runLen)%3 == phase {
				runs.Set(i, true)
			}
		}

		x := Exec{Workers: workers}

		// Plain scan: native (serial and worker-pool) vs engine.
		want := bitvec.New(n)
		b.Scan(layouttest.Engine(), p, want)
		got := bitvec.New(n)
		got.Fill()
		mustScan(t, Exec{}, b, p, nil, false, got)
		if !got.Equal(want) {
			t.Fatalf("k=%d %v n=%d: native Scan differs from engine", k, p, n)
		}
		got.Fill()
		mustScan(t, x, b, p, nil, false, got)
		if !got.Equal(want) {
			t.Fatalf("k=%d %v n=%d workers=%d: native parallel scan differs", k, p, n, workers)
		}

		// Pipelined scans, both polarities, under both gates.
		for _, gate := range []*bitvec.Vector{prev, runs} {
			for _, negate := range []bool{false, true} {
				wantP := bitvec.New(n)
				b.ScanPipelined(layouttest.Engine(), p, gate, negate, wantP)
				gotP := bitvec.New(n)
				gotP.Fill()
				mustScan(t, x, b, p, gate, negate, gotP)
				if !gotP.Equal(wantP) {
					t.Fatalf("k=%d %v n=%d negate=%v workers=%d: native pipelined scan differs", k, p, n, negate, workers)
				}
			}
		}

		// Aggregates unmasked, under a NULL-style mask and over the
		// predicate's result mask vs the engine.
		for _, mask := range []*bitvec.Vector{nil, prev, runs, want} {
			if mask != nil {
				mustCount(t, mask)
			}
			wantSum, wantN := b.Sum(layouttest.Engine(), mask)
			gotSum, gotN := mustSum(t, x, b, mask)
			if gotSum != wantSum || gotN != wantN {
				t.Fatalf("k=%d n=%d: native Sum = %d/%d, engine %d/%d", k, n, gotSum, gotN, wantSum, wantN)
			}
			wantMin, wantOK := b.Min(layouttest.Engine(), mask)
			gotMin, gotOK := mustExtreme(t, x, b, mask, true)
			if gotOK != wantOK || (wantOK && gotMin != wantMin) {
				t.Fatalf("k=%d n=%d: native Min = %d/%v, engine %d/%v", k, n, gotMin, gotOK, wantMin, wantOK)
			}
			wantMax, wantOK2 := b.Max(layouttest.Engine(), mask)
			gotMax, gotOK2 := mustExtreme(t, x, b, mask, false)
			if gotOK2 != wantOK2 || (wantOK2 && gotMax != wantMax) {
				t.Fatalf("k=%d n=%d: native Max = %d/%v, engine %d/%v", k, n, gotMax, gotOK2, wantMax, wantOK2)
			}
		}

		// Zoned kernels: bit-identical results with zone maps built. The
		// zone map lives on a copy so the kernels above stay unzoned.
		bz := core.New(codes, k, nil)
		bz.BuildZoneMaps()
		got.Fill()
		mustScan(t, x, bz, p, nil, false, got)
		if !got.Equal(want) {
			t.Fatalf("k=%d %v n=%d workers=%d: zoned scan differs from engine", k, p, n, workers)
		}
		for _, gate := range []*bitvec.Vector{prev, runs} {
			for _, negate := range []bool{false, true} {
				wantP := bitvec.New(n)
				b.ScanPipelined(layouttest.Engine(), p, gate, negate, wantP)
				gotP := bitvec.New(n)
				gotP.Fill()
				mustScan(t, x, bz, p, gate, negate, gotP)
				if !gotP.Equal(wantP) {
					t.Fatalf("k=%d %v n=%d negate=%v workers=%d: zoned pipelined scan differs", k, p, n, negate, workers)
				}
			}
		}

		// Compressed column: the fused decode→compare scan and aggregates
		// must be bit-identical to the engine on the raw layout, whatever
		// mix of FOR, delta and uniform-1 blocks the codes produce.
		cc := compress.New(codes, k, nil)
		got.Fill()
		mustScanCompressed(t, x, cc, p, got)
		if !got.Equal(want) {
			t.Fatalf("k=%d %v n=%d workers=%d: compressed scan differs from engine", k, p, n, workers)
		}
		for _, mask := range []*bitvec.Vector{nil, prev, runs} {
			wantSum, wantN := b.Sum(layouttest.Engine(), mask)
			gotSum, gotN := mustSumCompressed(t, x, cc, mask)
			if gotSum != wantSum || gotN != wantN {
				t.Fatalf("k=%d n=%d: compressed Sum = %d/%d, engine %d/%d", k, n, gotSum, gotN, wantSum, wantN)
			}
			for _, isMin := range []bool{true, false} {
				var wantX uint32
				var wantOK bool
				if isMin {
					wantX, wantOK = b.Min(layouttest.Engine(), mask)
				} else {
					wantX, wantOK = b.Max(layouttest.Engine(), mask)
				}
				gotX, gotOK := mustExtremeCompressed(t, x, cc, mask, isMin)
				if gotOK != wantOK || (wantOK && gotX != wantX) {
					t.Fatalf("k=%d n=%d isMin=%v: compressed extreme = %d/%v, engine %d/%v", k, n, isMin, gotX, gotOK, wantX, wantOK)
				}
			}
		}

		// HBP column: the native bank scan and bank-extract lookups must be
		// bit-identical to the engine results on the same codes.
		hb := hbp.New(codes, k, nil)
		got.Fill()
		if err := ScanHBP(x, hb, p, got); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("k=%d %v n=%d workers=%d: HBP scan differs from engine", k, p, n, workers)
		}
		hbRows := make([]int32, n)
		for i := range hbRows {
			hbRows[i] = int32(n - 1 - i)
		}
		hbOut := make([]uint32, n)
		if err := LookupManyHBP(x, hb, hbRows, hbOut); err != nil {
			t.Fatal(err)
		}
		for x, r := range hbRows {
			if hbOut[x] != codes[r] {
				t.Fatalf("k=%d: LookupManyHBP row %d = %d, want %d", k, r, hbOut[x], codes[r])
			}
		}

		// Lookups stitch the original codes back, on all layouts.
		for i, v := range codes {
			if got := Lookup(b, i); got != v {
				t.Fatalf("k=%d: Lookup(%d) = %d, want %d", k, i, got, v)
			}
			if got := cc.Lookup(nil, i); got != v {
				t.Fatalf("k=%d: compressed Lookup(%d) = %d, want %d", k, i, got, v)
			}
			if got := LookupHBP(hb, i); got != v {
				t.Fatalf("k=%d: LookupHBP(%d) = %d, want %d", k, i, got, v)
			}
		}
	})
}
