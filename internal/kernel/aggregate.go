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
// A selection mask is walked once, one 64-row word at a time, for every
// byte slice: a zero word costs one load and no data, so a filtered
// aggregate pays per surviving word rather than per segment of the
// table. All kernels ignore the padding rows of the final segment (their
// bytes are zero and their mask bits are never set).

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

// stitchMax is the survivor count up to which a masked 64-row word is
// summed by stitching its rows' codes (one load per byte slice per row)
// rather than by the masked pair sums over all eight words of every byte
// slice.
const stitchMax = 8

// segsLive counts the 32-row segments of a mask word that hold a
// survivor.
//
//bsvet:hotloop
func segsLive(m uint64) int {
	n := 0
	if uint32(m) != 0 {
		n++
	}
	if m>>32 != 0 {
		n++
	}
	return n
}

// sumRange returns the padded byte-weighted sum over every row of
// segments [segLo, segHi): Σ (code << pad). Range partials add, and the
// caller removes the shared pad shift once at the end.
//
//bsvet:hotloop
func sumRange(b *core.ByteSlice, segLo, segHi int) uint64 {
	nb := b.NumSlices()
	var padded uint64
	for j := 0; j < nb; j++ {
		s := b.Slice(j)
		var total, acc uint64
		cnt := 0
		for seg := segLo; seg < segHi; seg++ {
			off := seg * core.SegmentSize
			for u := 0; u < 4; u++ {
				acc += pairSum(binary.LittleEndian.Uint64(s[off+8*u:]))
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

// sumMaskedRange is sumRange restricted to the rows set in mask. It reads
// each mask word once for all byte slices: a zero word is skipped, a word
// with at most stitchMax survivors stitches their codes, and a denser one
// runs the masked pair sums over every byte slice. It also returns the
// survivor count and the segments whose data it loaded.
//
//bsvet:hotloop
func sumMaskedRange(b *core.ByteSlice, mask *bitvec.Vector, segLo, segHi int) (padded uint64, count, loaded int) {
	nb := b.NumSlices()
	var arr [4][]byte
	slices := arr[:nb]
	for j := range slices {
		slices[j] = b.Slice(j)
	}
	lim := len(arr[0])
	mw := mask.Words()
	for w, end := segLo/2, min((segHi+1)/2, len(mw)); w < end; w++ {
		m := mw[w]
		if m == 0 {
			continue
		}
		off := 64 * w
		c := bits.OnesCount64(m)
		count += c
		loaded += segsLive(m)
		if c <= stitchMax || off+64 > lim {
			for ; m != 0; m &= m - 1 {
				i := off + bits.TrailingZeros64(m)
				var v uint64
				for _, s := range slices {
					v = v<<8 | uint64(s[i])
				}
				padded += v
			}
			continue
		}
		e0, e1, e2, e3 := expand8(byte(m)), expand8(byte(m>>8)), expand8(byte(m>>16)), expand8(byte(m>>24))
		e4, e5, e6, e7 := expand8(byte(m>>32)), expand8(byte(m>>40)), expand8(byte(m>>48)), expand8(byte(m>>56))
		for j, s := range slices {
			s := s[off : off+64 : off+64]
			acc := pairSum(binary.LittleEndian.Uint64(s[0:8])&e0) + pairSum(binary.LittleEndian.Uint64(s[8:16])&e1) +
				pairSum(binary.LittleEndian.Uint64(s[16:24])&e2) + pairSum(binary.LittleEndian.Uint64(s[24:32])&e3) +
				pairSum(binary.LittleEndian.Uint64(s[32:40])&e4) + pairSum(binary.LittleEndian.Uint64(s[40:48])&e5) +
				pairSum(binary.LittleEndian.Uint64(s[48:56])&e6) + pairSum(binary.LittleEndian.Uint64(s[56:64])&e7)
			padded += fold16(acc) << uint(8*(nb-1-j))
		}
	}
	return padded, count, loaded
}

// maskWordBytes is the selection word a masked aggregate reads per 64
// rows.
const maskWordBytes = 8

// maskWords is the number of 64-row mask words covering segments
// [segLo, segHi), which start on a word.
func maskWords(segLo, segHi int) int64 { return int64(segHi-segLo+1) / 2 }

// Sum returns the sum of the codes of the rows set in mask (every row when
// mask is nil) and the number of rows aggregated. Stage accounting charges
// the mask words read plus the byte slices of the segments loaded; the
// segments with no survivor count as mask-skipped.
func Sum(x Exec, b *core.ByteSlice, mask *bitvec.Vector) (sum uint64, count int, err error) {
	if mask != nil && mask.Len() != b.Len() {
		panic("kernel: aggregate mask length mismatch")
	}
	pad := uint(8*b.NumSlices() - b.Width())
	segBytes := int64(core.SegmentSize * b.NumSlices())
	st := x.Stage
	if mask == nil {
		padded, err := parallelRanges(x, b.Segments(), func(lo, hi int) uint64 {
			if st != nil {
				st.AddSegments(int64(hi-lo), int64(hi-lo)*segBytes)
			}
			return sumRange(b, lo, hi)
		}, addUint64)
		if err != nil {
			return 0, 0, err
		}
		return padded >> pad, b.Len(), nil
	}
	part, err := parallelRanges(x, b.Segments(), func(lo, hi int) sumPartial {
		padded, count, loaded := sumMaskedRange(b, mask, lo, hi)
		if st != nil {
			st.AddSegments(int64(loaded), maskWords(lo, hi)*maskWordBytes+int64(loaded)*segBytes)
			st.AddMaskSkipped(int64(hi - lo - loaded))
		}
		return sumPartial{padded, count}
	}, addSum)
	if err != nil {
		return 0, 0, err
	}
	return part.padded >> pad, part.count, nil
}

// extremeRange scans segments [segLo, segHi) for the extreme code among
// the selected rows (every row when mask is nil), walking the mask a
// 64-row word at a time and stitching candidate codes straight from the
// slices. It stops as soon as the running extreme is the domain bound
// (code 0 for a minimum, 2^k−1 for a maximum) — no later row can beat it
// — and returns the segments it walked and loaded.
//
//bsvet:hotloop
func extremeRange(b *core.ByteSlice, mask *bitvec.Vector, isMin bool, segLo, segHi int) (best uint32, found bool, walked, loaded int) {
	nb, n := b.NumSlices(), b.Len()
	pad := uint(8*nb - b.Width())
	var slices [4][]byte
	for j := 0; j < nb; j++ {
		slices[j] = b.Slice(j)
	}
	bound := uint32(0)
	if !isMin {
		bound = uint32(uint64(1)<<uint(b.Width()) - 1)
	}
	var mw []uint64
	if mask != nil {
		mw = mask.Words()
	}
	for w, end := segLo/2, min((segHi+1)/2, (n+63)/64); w < end; w++ {
		off := 64 * w
		m := ^uint64(0)
		if mw != nil {
			m = mw[w]
		} else if rem := n - off; rem < 64 {
			m = 1<<uint(rem) - 1
		}
		if m == 0 {
			continue
		}
		loaded += segsLive(m)
		for ; m != 0; m &= m - 1 {
			i := off + bits.TrailingZeros64(m)
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
		if found && best == bound {
			return best, found, min(2*w+2, segHi) - segLo, loaded
		}
	}
	return best, found, segHi - segLo, loaded
}

// Extreme returns the smallest (isMin) or largest code among the rows set
// in mask (all rows when nil); ok is false when no row is selected. Stage
// accounting is Sum's over the segments each range walked before its
// running extreme reached the domain bound.
func Extreme(x Exec, b *core.ByteSlice, mask *bitvec.Vector, isMin bool) (uint32, bool, error) {
	if mask != nil && mask.Len() != b.Len() {
		panic("kernel: aggregate mask length mismatch")
	}
	segBytes := int64(core.SegmentSize * b.NumSlices())
	st := x.Stage
	best, err := parallelRanges(x, b.Segments(), func(lo, hi int) extPartial {
		v, ok, walked, loaded := extremeRange(b, mask, isMin, lo, hi)
		if st != nil {
			bytes := int64(loaded) * segBytes
			if mask != nil {
				bytes += maskWords(lo, lo+walked) * maskWordBytes
			}
			st.AddSegments(int64(loaded), bytes)
			st.AddMaskSkipped(int64(walked - loaded))
		}
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
