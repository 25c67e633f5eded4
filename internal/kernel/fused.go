package kernel

import (
	"encoding/binary"
	"math/bits"

	"byteslice/internal/core"
	"byteslice/internal/layout"
)

// Fused filter→aggregate kernels: evaluate a single-column predicate and
// accumulate an aggregate over another column in the same pass over the
// segments. The two-pass shape (Scan into a full-table bit vector, then a
// masked aggregate re-reading that vector) costs one bitvec write + read
// per segment and evicts the predicate column between passes; when the
// caller only wants the aggregate, the fused form keeps the segment's
// 32-bit mask in a register and feeds it straight into the masked SWAR
// sum / extreme stitch. Zone maps on the filter column compose: a
// zone-decided segment contributes its aggregate with no predicate loads
// at all.
//
// f (the filter column) and v (the value column) must have the same
// number of rows; the caller guarantees neither has NULLs (the facade
// falls back to the two-pass path otherwise).

// segMask evaluates one segment's predicate mask with zone shortcuts and
// truncates the final segment's padding bits.
//
//bsvet:hotloop
func segMask(sc *scanner, seg int) uint32 {
	var r uint32
	switch sc.decide(seg) {
	case 1:
		r = ^uint32(0)
	case -1:
		return 0
	default:
		r = sc.segment(seg)
	}
	if rem := sc.n - seg*core.SegmentSize; rem < 32 {
		r &= 1<<uint(rem) - 1
	}
	return r
}

// scanSumRange fuses the prepared filter predicate sc with the slice-wise
// SWAR sum over v for segments [segLo, segHi), returning the padded
// byte-weighted partial sum (as sumRange) and the matching row count.
//
//bsvet:hotloop
func scanSumRange(sc *scanner, v *core.ByteSlice, segLo, segHi int) (uint64, int) {
	nbv := v.NumSlices()
	var vslices [4][]byte
	for j := 0; j < nbv; j++ {
		vslices[j] = v.Slice(j)
	}
	var acc, tot [4]uint64
	cnt, count := 0, 0
	for seg := segLo; seg < segHi; seg++ {
		r := segMask(sc, seg)
		if r == 0 {
			continue
		}
		count += bits.OnesCount32(r)
		off := seg * core.SegmentSize
		if r == ^uint32(0) {
			// Whole segment selected (common when the zone map decides
			// all-match): sum unmasked, no lane expansion. segMask's tail
			// truncation guarantees all 32 rows are real here.
			for j := 0; j < nbv; j++ {
				s := vslices[j][off : off+32 : off+32]
				acc[j] += pairSum(binary.LittleEndian.Uint64(s[0:8])) +
					pairSum(binary.LittleEndian.Uint64(s[8:16])) +
					pairSum(binary.LittleEndian.Uint64(s[16:24])) +
					pairSum(binary.LittleEndian.Uint64(s[24:32]))
			}
		} else {
			// Widen the mask once per segment; the four lane masks serve
			// every value slice.
			e0 := expand8(byte(r))
			e1 := expand8(byte(r >> 8))
			e2 := expand8(byte(r >> 16))
			e3 := expand8(byte(r >> 24))
			for j := 0; j < nbv; j++ {
				s := vslices[j][off : off+32 : off+32]
				acc[j] += pairSum(binary.LittleEndian.Uint64(s[0:8])&e0) +
					pairSum(binary.LittleEndian.Uint64(s[8:16])&e1) +
					pairSum(binary.LittleEndian.Uint64(s[16:24])&e2) +
					pairSum(binary.LittleEndian.Uint64(s[24:32])&e3)
			}
		}
		if cnt += 4; cnt >= foldEvery {
			for j := 0; j < nbv; j++ {
				tot[j] += fold16(acc[j])
				acc[j] = 0
			}
			cnt = 0
		}
	}
	var padded uint64
	for j := 0; j < nbv; j++ {
		padded += (tot[j] + fold16(acc[j])) << uint(8*(nbv-1-j))
	}
	return padded, count
}

// ScanSum evaluates p on f and sums v's codes over the matching rows in
// one pass, returning (Σ codes, match count). It is the fused counterpart
// of Scan + Sum and never materialises the full-table bit vector. Zone
// maps on f are used when built. Stage bytes count the filter-column
// segments plus the value-column bytes of the fused aggregate.
func ScanSum(x Exec, f *core.ByteSlice, p layout.Predicate, v *core.ByteSlice) (sum uint64, count int, err error) {
	if f.Len() != v.Len() {
		panic("kernel: ScanSum columns have different lengths")
	}
	type part struct {
		padded uint64
		count  int
	}
	sc := prepare(f, p)
	padv := uint(8*v.NumSlices() - v.Width())
	segBytes := int64(core.SegmentSize * (f.NumSlices() + v.NumSlices()))
	st := x.Stage
	res, err := parallelRanges(x, f.Segments(), func(lo, hi int) part {
		if st != nil {
			st.AddSegments(int64(hi-lo), int64(hi-lo)*segBytes)
		}
		padded, n := scanSumRange(&sc, v, lo, hi)
		return part{padded, n}
	}, func(a, b part) part { return part{a.padded + b.padded, a.count + b.count} })
	if err != nil {
		return 0, 0, err
	}
	return res.padded >> padv, res.count, nil
}

// scanExtremeRange fuses the prepared filter predicate sc with the extreme
// stitch over v for segments [segLo, segHi).
//
//bsvet:hotloop
func scanExtremeRange(sc *scanner, v *core.ByteSlice, isMin bool, segLo, segHi int) (uint32, bool) {
	nbv := v.NumSlices()
	padv := uint(8*nbv - v.Width())
	var vslices [4][]byte
	for j := 0; j < nbv; j++ {
		vslices[j] = v.Slice(j)
	}
	var best uint32
	found := false
	for seg := segLo; seg < segHi; seg++ {
		r := segMask(sc, seg)
		off := seg * core.SegmentSize
		for r != 0 {
			i := off + bits.TrailingZeros32(r)
			r &= r - 1
			var val uint32
			for j := 0; j < nbv; j++ {
				val = val<<8 | uint32(vslices[j][i])
			}
			val >>= padv
			if !found || (isMin && val < best) || (!isMin && val > best) {
				best = val
				found = true
			}
		}
	}
	return best, found
}

// ScanExtreme evaluates p on f and returns the extreme (min when isMin,
// else max) of v's codes over the matching rows in one pass; ok is false
// when no row matches. Zone maps on f are used when built.
func ScanExtreme(x Exec, f *core.ByteSlice, p layout.Predicate, v *core.ByteSlice, isMin bool) (uint32, bool, error) {
	if f.Len() != v.Len() {
		panic("kernel: ScanExtreme columns have different lengths")
	}
	sc := prepare(f, p)
	segBytes := int64(core.SegmentSize * (f.NumSlices() + v.NumSlices()))
	st := x.Stage
	best, err := parallelRanges(x, f.Segments(), func(lo, hi int) extPartial {
		if st != nil {
			st.AddSegments(int64(hi-lo), int64(hi-lo)*segBytes)
		}
		val, ok := scanExtremeRange(&sc, v, isMin, lo, hi)
		return extPartial{val, ok}
	}, mergeExtreme(isMin))
	if err != nil {
		return 0, false, err
	}
	return best.v, best.ok, nil
}
