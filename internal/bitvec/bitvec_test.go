package bitvec

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSetGetCount(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("Get(%d) after Set", i)
		}
	}
	if v.Count() != 8 {
		t.Fatalf("Count = %d", v.Count())
	}
	v.Set(63, false)
	if v.Get(63) || v.Count() != 7 {
		t.Fatal("clear failed")
	}
}

func TestAppend32Ordering(t *testing.T) {
	v := New(64)
	v.Append32(0x00000001) // bit 0
	v.Append32(0x80000000) // bit 63
	if !v.Get(0) || !v.Get(63) || v.Count() != 2 {
		t.Fatalf("append ordering wrong: count=%d", v.Count())
	}
}

func TestAppendTruncatesPastLen(t *testing.T) {
	v := New(40) // 40 bits: one full word32 + 8 valid bits of the next
	v.Append32(^uint32(0))
	v.Append32(^uint32(0)) // only 8 of these 32 bits are in range
	if v.Count() != 40 {
		t.Fatalf("Count = %d, want 40", v.Count())
	}
	// Further appends past the end must be ignored entirely.
	v.Append32(^uint32(0))
	if v.Count() != 40 {
		t.Fatalf("Count after overflow append = %d", v.Count())
	}
}

func TestAppend64Widths(t *testing.T) {
	v := New(100)
	v.Append64(0b1011, 4)
	v.Append64(^uint64(0), 64)
	v.Append64(1, 1)
	if !v.Get(0) || v.Get(2) == false || v.Get(1) != true {
		// 0b1011: bits 0,1,3
	}
	want := map[int]bool{0: true, 1: true, 2: false, 3: true}
	for i, w := range want {
		if v.Get(i) != w {
			t.Fatalf("bit %d = %v, want %v", i, v.Get(i), w)
		}
	}
	for i := 4; i < 68; i++ {
		if !v.Get(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	if !v.Get(68) || v.Get(69) {
		t.Fatal("single-bit append misplaced")
	}
	if v.Count() != 3+64+1 {
		t.Fatalf("Count = %d", v.Count())
	}
}

func TestAppend256(t *testing.T) {
	v := New(300)
	v.Append256([4]uint64{1, 0, 0, 1 << 63})
	if !v.Get(0) || !v.Get(255) || v.Count() != 2 {
		t.Fatal("Append256 misplaced bits")
	}
	v.Append256([4]uint64{^uint64(0), 0, 0, 0}) // bits 256..319, only 256..299 valid
	if v.Count() != 2+44 {
		t.Fatalf("Count = %d, want 46", v.Count())
	}
}

func TestWord32(t *testing.T) {
	v := New(96)
	v.Append32(0xDEADBEEF)
	v.Append32(0x12345678)
	v.Append32(0x0F0F0F0F)
	for i, want := range []uint32{0xDEADBEEF, 0x12345678, 0x0F0F0F0F} {
		if got := v.Word32(32 * i); got != want {
			t.Fatalf("Word32(%d) = %#x, want %#x", 32*i, got, want)
		}
	}
	big := New(40)
	big.Append32(0xFFFFFFFF)
	big.Append32(0xFFFFFFFF)
	if got := big.Word32(32); got != 0xFF {
		t.Fatalf("truncated Word32 = %#x, want 0xFF", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Word32 should panic")
		}
	}()
	v.Word32(7)
}

func TestLogicalOps(t *testing.T) {
	n := 200
	prop := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1)) //nolint:gosec
		a, b := New(n), New(n)
		av, bv := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			av[i], bv[i] = r.IntN(2) == 0, r.IntN(2) == 0
			a.Set(i, av[i])
			b.Set(i, bv[i])
		}
		and, or, andnot, not := a.Clone(), a.Clone(), a.Clone(), a.Clone()
		and.And(b)
		or.Or(b)
		andnot.AndNot(b)
		not.Not()
		for i := 0; i < n; i++ {
			if and.Get(i) != (av[i] && bv[i]) || or.Get(i) != (av[i] || bv[i]) ||
				andnot.Get(i) != (av[i] && !bv[i]) || not.Get(i) != !av[i] {
				return false
			}
		}
		return not.Count()+a.Count() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNotKeepsTailClear(t *testing.T) {
	v := New(70)
	v.Not()
	if v.Count() != 70 {
		t.Fatalf("Not set tail bits: count=%d", v.Count())
	}
	v.Not()
	if v.Count() != 0 {
		t.Fatalf("double Not: count=%d", v.Count())
	}
}

func TestFillAndReset(t *testing.T) {
	v := New(33)
	v.Fill()
	if v.Count() != 33 {
		t.Fatalf("Fill count=%d", v.Count())
	}
	v.Reset()
	if v.Count() != 0 {
		t.Fatal("Reset failed")
	}
	// Reset rewinds the append cursor.
	v.Append32(1)
	if !v.Get(0) {
		t.Fatal("append after Reset should start at bit 0")
	}
}

func TestPositions(t *testing.T) {
	v := New(300)
	want := []int32{0, 1, 63, 64, 130, 299}
	for _, i := range want {
		v.Set(int(i), true)
	}
	got := v.Positions(nil)
	if len(got) != len(want) {
		t.Fatalf("Positions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Positions[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Appending to an existing buffer.
	buf := []int32{-1}
	got = v.Positions(buf)
	if got[0] != -1 || len(got) != 7 {
		t.Fatal("Positions must append to dst")
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New(100)
	a.Set(42, true)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(43, true)
	if a.Equal(b) {
		t.Fatal("diverged vectors equal")
	}
	if a.Equal(New(101)) {
		t.Fatal("different lengths equal")
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths should panic")
		}
	}()
	New(10).And(New(11))
}

func TestZeroLength(t *testing.T) {
	v := New(0)
	if v.Count() != 0 || v.Len() != 0 {
		t.Fatal("zero-length vector misbehaves")
	}
	v.Append32(0xFFFF) // must not panic
	if v.Count() != 0 {
		t.Fatal("append to zero-length vector stored bits")
	}
}

func TestSetWord32(t *testing.T) {
	v := New(70)
	v.SetWord32(0, 0xF0F0F0F0)
	v.SetWord32(32, 0x0F0F0F0F)
	if v.Word32(0) != 0xF0F0F0F0 || v.Word32(32) != 0x0F0F0F0F {
		t.Fatal("SetWord32 round trip failed")
	}
	v.SetWord32(0, 1) // overwrite, not OR
	if v.Word32(0) != 1 {
		t.Fatalf("SetWord32 should overwrite: %#x", v.Word32(0))
	}
	v.SetWord32(64, ^uint32(0)) // only 6 bits in range
	if v.Count() != 1+16+6 {    // block0: 1 bit, block1: 0x0F0F0F0F = 16 bits, block2: 6
		t.Fatalf("Count = %d", v.Count())
	}
	v.SetWord32(96, ^uint32(0)) // fully out of range: ignored
	if v.Count() != 23 {
		t.Fatalf("out-of-range SetWord32 changed the vector: %d", v.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned SetWord32 should panic")
		}
	}()
	v.SetWord32(5, 0)
}

// TestOrAt splices shorter vectors into a longer one at aligned and
// unaligned offsets, against a bit-by-bit model; bits outside the spliced
// range are kept.
func TestOrAt(t *testing.T) {
	for _, n := range []int{0, 1, 31, 64, 100, 130} {
		for _, off := range []int{0, 1, 5, 63, 64, 65, 128 - n%64} {
			if off+n > 200 || off < 0 {
				continue
			}
			src := New(n)
			for i := 0; i < n; i += 3 {
				src.Set(i, true)
			}
			if n > 0 {
				src.Set(n-1, true)
			}
			dst := New(off + n + 7)
			dst.Set(dst.Len()-1, true)
			if off > 0 {
				dst.Set(off-1, true)
			}
			want := dst.Clone()
			for i := 0; i < n; i++ {
				if src.Get(i) {
					want.Set(off+i, true)
				}
			}
			dst.OrAt(src, off)
			if !dst.Equal(want) {
				t.Fatalf("n=%d off=%d: OrAt differs from the bit model", n, off)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OrAt past the end did not panic")
		}
	}()
	New(10).OrAt(New(8), 3)
}
