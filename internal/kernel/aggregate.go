package kernel

import (
	"encoding/binary"
	"math/bits"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
)

// Native aggregation over ByteSlice columns, mirroring the modelled
// kernels in internal/core/aggregate.go:
//
//   - Sum works slice-wise: Σ codes = (Σⱼ 256^(nb−1−j) · sliceSumⱼ) >> pad,
//     and a slice's bytes are summed 8 at a time by splitting each word
//     into even/odd bytes and accumulating four 16-bit SWAR lanes.
//   - Min/Max stitch the codes of the selected rows directly from the
//     byte slices (the selection is usually sparse after a filter).
//
// All kernels honour an optional selection mask and ignore the padding
// rows of the final segment (their bytes are zero and their mask bits are
// never set).

// evenB selects the even byte lanes of a word, widened to 16 bits.
const evenB = 0x00FF00FF00FF00FF

// expand8 widens 8 mask bits into 8 byte lanes of 0xFF/0x00 — the inverse
// movemask the masked kernels use to apply a result bit vector.
//
//bsvet:hotloop
func expand8(v byte) uint64 {
	x := uint64(v) * lsb & 0x8040201008040201 // lane l holds 1<<l iff bit l set
	t := (x & lo7) + lo7                      // bit 7 of t set iff lane's low 7 bits nonzero
	return (((t | x) & msb) >> 7) * 0xFF
}

// fold16 sums the four 16-bit lanes of a SWAR accumulator.
//
//bsvet:hotloop
func fold16(acc uint64) uint64 {
	return acc&0xFFFF + acc>>16&0xFFFF + acc>>32&0xFFFF + acc>>48
}

// pairSum widens a word's bytes into four 16-bit lane pair-sums
// (byte 2i + byte 2i+1), each at most 510.
//
//bsvet:hotloop
func pairSum(w uint64) uint64 {
	return (w & evenB) + (w >> 8 & evenB)
}

// foldEvery bounds the 16-bit lane accumulation: 124 words × 510 per lane
// stays below 65536, so partial sums are folded out every 124 words.
const foldEvery = 124

// SumRange returns the padded byte-weighted sum over segments
// [segLo, segHi): Σ (code << pad) for the selected rows. Range partials
// add, and the caller removes the shared pad shift once at the end.
//
//bsvet:hotloop
func sumRange(b *core.ByteSlice, mask *bitvec.Vector, segLo, segHi int) uint64 {
	nb, n := b.NumSlices(), b.Len()
	var padded uint64
	for j := 0; j < nb; j++ {
		s := b.Slice(j)
		var total, acc uint64
		cnt := 0
		for seg := segLo; seg < segHi; seg++ {
			off := seg * core.SegmentSize
			if mask != nil {
				var r uint32
				if off < n {
					r = mask.Word32(off)
				}
				if r == 0 {
					continue
				}
				for u := 0; u < 4; u++ {
					w := binary.LittleEndian.Uint64(s[off+8*u:]) & expand8(byte(r>>(8*u)))
					acc += pairSum(w)
				}
			} else {
				for u := 0; u < 4; u++ {
					acc += pairSum(binary.LittleEndian.Uint64(s[off+8*u:]))
				}
			}
			if cnt += 4; cnt >= foldEvery {
				total += fold16(acc)
				acc, cnt = 0, 0
			}
		}
		total += fold16(acc)
		padded += total << uint(8*(nb-1-j))
	}
	return padded
}

// Sum returns the sum of the codes of the rows set in mask (every row when
// mask is nil) and the number of rows aggregated. Aggregate kernels have
// no early stop, so stage bytes count every byte slice of every segment.
func Sum(x Exec, b *core.ByteSlice, mask *bitvec.Vector) (sum uint64, count int, err error) {
	if mask != nil && mask.Len() != b.Len() {
		panic("kernel: aggregate mask length mismatch")
	}
	count = b.Len()
	if mask != nil {
		count = mask.Count()
	}
	pad := uint(8*b.NumSlices() - b.Width())
	segBytes := int64(core.SegmentSize * b.NumSlices())
	st := x.Stage
	padded, err := parallelRanges(x, b.Segments(), func(lo, hi int) uint64 {
		if st != nil {
			st.AddSegments(int64(hi-lo), int64(hi-lo)*segBytes)
		}
		return sumRange(b, mask, lo, hi)
	}, addUint64)
	if err != nil {
		return 0, 0, err
	}
	return padded >> pad, count, nil
}

// extremeRange scans segments [segLo, segHi) for the extreme code among
// the selected rows, stitching candidate codes straight from the slices.
//
//bsvet:hotloop
func extremeRange(b *core.ByteSlice, mask *bitvec.Vector, isMin bool, segLo, segHi int) (uint32, bool) {
	nb, n := b.NumSlices(), b.Len()
	pad := uint(8*nb - b.Width())
	var slices [4][]byte
	for j := 0; j < nb; j++ {
		slices[j] = b.Slice(j)
	}
	var best uint32
	found := false
	for seg := segLo; seg < segHi; seg++ {
		off := seg * core.SegmentSize
		if off >= n {
			break
		}
		r := ^uint32(0)
		if mask != nil {
			r = mask.Word32(off)
		} else if rem := n - off; rem < 32 {
			r = 1<<uint(rem) - 1
		}
		for r != 0 {
			i := off + bits.TrailingZeros32(r)
			r &= r - 1
			var v uint32
			for j := 0; j < nb; j++ {
				v = v<<8 | uint32(slices[j][i])
			}
			v >>= pad
			if !found || (isMin && v < best) || (!isMin && v > best) {
				best = v
				found = true
			}
		}
	}
	return best, found
}

// Extreme returns the smallest (isMin) or largest code among the rows set
// in mask (all rows when nil); ok is false when no row is selected.
func Extreme(x Exec, b *core.ByteSlice, mask *bitvec.Vector, isMin bool) (uint32, bool, error) {
	if mask != nil && mask.Len() != b.Len() {
		panic("kernel: aggregate mask length mismatch")
	}
	segBytes := int64(core.SegmentSize * b.NumSlices())
	st := x.Stage
	best, err := parallelRanges(x, b.Segments(), func(lo, hi int) extPartial {
		if st != nil {
			st.AddSegments(int64(hi-lo), int64(hi-lo)*segBytes)
		}
		v, ok := extremeRange(b, mask, isMin, lo, hi)
		return extPartial{v, ok}
	}, mergeExtreme(isMin))
	if err != nil {
		return 0, false, err
	}
	return best.v, best.ok, nil
}

// Lookup stitches code i back together from its byte slices — the native
// counterpart of the modelled ByteSlice.Lookup.
//
//bsvet:hotloop
func Lookup(b *core.ByteSlice, i int) uint32 {
	nb := b.NumSlices()
	var v uint32
	for j := 0; j < nb; j++ {
		v = v<<8 | uint32(b.SliceByte(j, i))
	}
	return v >> uint(8*nb-b.Width())
}

// LookupMany stitches the codes of rows into out (len(out) must equal
// len(rows)) — the projection fast path — with disjoint row ranges filled
// by x.Workers goroutines. Each looked-up row reads one byte per byte
// slice.
func LookupMany(x Exec, b *core.ByteSlice, rows []int32, out []uint32) error {
	if len(out) != len(rows) {
		panic("kernel: LookupMany output length mismatch")
	}
	nb := int64(b.NumSlices())
	return parallelRows(x, len(rows), func(lo, hi int) {
		lookupRange(b, rows[lo:hi], out[lo:hi])
		if st := x.Stage; st != nil {
			st.AddRows(int64(hi-lo), int64(hi-lo)*nb)
		}
	})
}

// lookupRange is LookupMany's stitch loop over one row range.
//
//bsvet:hotloop
func lookupRange(b *core.ByteSlice, rows []int32, out []uint32) {
	nb := b.NumSlices()
	pad := uint(8*nb - b.Width())
	var slices [4][]byte
	for j := 0; j < nb; j++ {
		slices[j] = b.Slice(j)
	}
	for x, r := range rows {
		i := int(r)
		var v uint32
		for j := 0; j < nb; j++ {
			v = v<<8 | uint32(slices[j][i])
		}
		out[x] = v >> pad
	}
}
