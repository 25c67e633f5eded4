package kernel

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/obs"
)

// Native aggregation over ByteSlice columns, mirroring the modelled
// kernels in internal/core/aggregate.go:
//
//   - Sum works slice-wise: Σ codes = (Σⱼ 256^(nb−1−j) · sliceSumⱼ) >> pad.
//     The SWAR loop sums a slice's bytes 8 at a time by splitting each
//     word into even/odd bytes and accumulating four 16-bit lanes; the
//     AVX2 loop ANDs a slice's 64 bytes with the mask word expanded to
//     byte lanes and adds them with VPSADBW into four 64-bit lanes.
//   - Min/Max: the SWAR loop stitches the codes of the selected rows
//     directly from the byte slices. The AVX2 loop takes the scans'
//     decide/resolve shape per 256-segment window: a branch-free pass
//     over the first slice folds the selected rows' first bytes with
//     VPMINUB (a maximum compares complemented bytes) and marks the rows
//     that tie or beat the running extreme's first byte, and a resolve
//     pass stitches the deeper slices of those rows only.
//   - Both stop at the domain bound (code 0 for a minimum, 2^k−1 for a
//     maximum), and the running extreme carries across batches and
//     workers, so the stop ends the whole fan-out.
//
// A selection mask is walked once, one 64-row word at a time, for every
// byte slice: a dead word loads no data (the AVX2 loops skip four at a
// time), so a filtered aggregate pays per surviving word rather than per
// segment of the table. All kernels ignore the padding rows of the final
// segment (their mask bits are never set). The SWAR loops are the
// portable path and the AVX2 loops' oracle, as for the scans (avx2.go).

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

// aggCounts is what the ranges of one aggregate call read, merged through
// parallelRanges' partials so that a stage takes one round of atomic adds
// per call: the segments whose data was loaded, the segments the mask
// skipped and the bytes touched.
type aggCounts struct {
	segs, skipped, bytes int64
}

func (c aggCounts) add(o aggCounts) aggCounts {
	return aggCounts{c.segs + o.segs, c.skipped + o.skipped, c.bytes + o.bytes}
}

// record adds the counts to st, if any.
func (c aggCounts) record(st *obs.Stage) {
	if st == nil {
		return
	}
	st.AddSegments(c.segs, c.bytes)
	if c.skipped > 0 {
		st.AddMaskSkipped(c.skipped)
	}
}

// aggCols is what the AVX2 aggregate loops read (aggregate_amd64.s): a
// column's byte slices, the selection's mask words (nil selects every
// row) and, for Extreme, the key transform. A Min/Max key is a padded code
// XOR flip — flip is 0 for a minimum and all ones for a maximum, so the
// best code always has the smallest key — and bound is the key of the
// domain bound, past which no code can improve.
type aggCols struct {
	slices [4][]byte
	mw     []uint64
	nb     int
	flip   uint32
	bound  uint32
}

func newAggCols(b *core.ByteSlice, mask *bitvec.Vector) *aggCols {
	a := &aggCols{nb: b.NumSlices()}
	for j := 0; j < a.nb; j++ {
		a.slices[j] = b.Slice(j)
	}
	if mask != nil {
		a.mw = mask.Words()
	}
	return a
}

// Count returns the number of set bits of v. It is the count every query
// takes of a result vector — a Result's, a masked SumCompressed's, a
// group's — and runs the AVX2 popcount where the probe found AVX2; the
// portable loop, bitvec.Vector.Count, is its oracle.
func Count(v *bitvec.Vector) int {
	if useAVX2 {
		return popcountAVX2(v.Words())
	}
	return v.Count()
}

// Sum returns the sum of the codes of the rows set in mask (every row when
// mask is nil) and the number of rows aggregated. Stage accounting charges
// the mask words read plus the byte slices of the segments loaded; the
// segments with no survivor count as mask-skipped.
func Sum(x Exec, b *core.ByteSlice, mask *bitvec.Vector) (sum uint64, count int, err error) {
	if mask != nil && mask.Len() != b.Len() {
		panic("kernel: aggregate mask length mismatch")
	}
	pad := uint(8*b.NumSlices() - b.Width())
	segs := b.Segments()
	segBytes := int64(core.SegmentSize * b.NumSlices())
	var a *aggCols
	if useAVX2 {
		a = newAggCols(b, mask)
	}
	if mask == nil {
		padded, err := parallelRanges(x, segs, core.SegmentSize, func(lo, hi int) uint64 {
			if a != nil {
				return sumSegmentsAVX2(a, lo, hi)
			}
			return sumRange(b, lo, hi)
		}, addUint64)
		if err != nil {
			return 0, 0, err
		}
		aggCounts{segs: int64(segs), bytes: int64(segs) * segBytes}.record(x.Stage)
		return padded >> pad, b.Len(), nil
	}
	part, err := parallelRanges(x, segs, core.SegmentSize, func(lo, hi int) sumPartial {
		var p sumPartial
		var loaded int
		if a != nil {
			p.padded, p.count, loaded = sumMaskedRangeAVX2(a, b, mask, segs/2*2, lo, hi)
		} else {
			p.padded, p.count, loaded = sumMaskedRange(b, mask, lo, hi)
		}
		p.segs, p.skipped = int64(loaded), int64(hi-lo-loaded)
		p.bytes = maskWords(lo, hi)*maskWordBytes + int64(loaded)*segBytes
		return p
	}, addSum)
	if err != nil {
		return 0, 0, err
	}
	part.record(x.Stage)
	return part.padded >> pad, part.count, nil
}

// sumMaskedRangeAVX2 is sumMaskedRange on the AVX2 loop, which takes the
// words of [segLo, segHi) below segment pairs, the column's segments
// rounded down to whole words; an odd last segment goes through
// sumMaskedRange.
//
//bsvet:hotloop
func sumMaskedRangeAVX2(a *aggCols, b *core.ByteSlice, mask *bitvec.Vector, pairs, segLo, segHi int) (padded uint64, count, loaded int) {
	mid := max(segLo, min(segHi, pairs))
	if segLo < mid {
		padded, count, loaded = sumMaskedAVX2(a, segLo/2, mid/2)
	}
	if mid < segHi {
		p, c, l := sumMaskedRange(b, mask, mid, segHi)
		padded, count, loaded = padded+p, count+c, loaded+l
	}
	return padded, count, loaded
}

// extremeRange scans segments [segLo, segHi) for the extreme code among
// the selected rows (every row when mask is nil), walking the mask a
// 64-row word at a time and stitching candidate codes straight from the
// slices. It stops as soon as the running extreme is the domain bound
// (code 0 for a minimum, 2^k−1 for a maximum) — no later row can beat it
// — and returns the segments it walked (up to the end of the word where
// it stopped) and loaded (those holding a selected row).
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

// noKey is the Min/Max key of "no row yet": above every code's key.
const noKey = uint64(1) << 32

// extremeRangeAVX2 is extremeRange on the AVX2 passes, over the whole
// mask words of [segLo, segHi) (both even), from the running key. Per
// window, the decide pass folds the selected rows' first key bytes and
// marks the rows whose first key byte ties or beats the running key's;
// when the window's best first byte ties or beats it, the resolve pass
// stitches the marked rows holding that byte. Before any row, the decide
// pass runs twice: once for the window's best first byte, then to mark
// the rows holding it. Walked and loaded are extremeRange's: the stop
// comes at the word of the first selected row whose code is the domain
// bound, and the decide pass over the words up to it recounts the
// segments holding a selected row.
//
//bsvet:hotloop
func extremeRangeAVX2(a *aggCols, segLo, segHi int, key uint64) (best uint64, walked, loaded int) {
	top := uint(8 * (a.nb - 1))
	var cand [zoneWindow / 2]uint64
	for lo := segLo; lo < segHi; lo += zoneWindow {
		wLo, wHi := lo/2, min(lo+zoneWindow, segHi)/2
		t := uint32(0xFF)
		if key != noKey {
			t = uint32(byte(key >> top))
		}
		fold, live := extremeFirstAVX2(a, wLo, wHi, t, &cand)
		if live == 0 {
			continue
		}
		if key == noKey && fold != t {
			extremeFirstAVX2(a, wLo, wHi, fold, &cand)
		} else if fold > t {
			loaded += live
			continue
		}
		var stop int
		key, stop = extremeResolveAVX2(a, wLo, wHi, fold, &cand, key)
		if stop >= 0 {
			_, live = extremeFirstAVX2(a, wLo, stop+1, fold, &cand)
			return key, 2*stop + 2 - segLo, loaded + live
		}
		loaded += live
	}
	return key, segHi - segLo, loaded
}

// extreme is extremeRange on the AVX2 loops over segments [lo, hi), from
// and into the running extreme: the segments below whole, in whole
// 64-row words, go through extremeRangeAVX2, and a column's partial last
// word through extremeRange. A range that starts with the running
// extreme at the domain bound walks nothing.
func (a *aggCols) extreme(b *core.ByteSlice, mask *bitvec.Vector, isMin bool, run *runningExtreme, whole, lo, hi int) (v uint32, ok bool, walked, loaded int) {
	pad := uint(8*a.nb - b.Width())
	v, ok = run.load()
	key := noKey
	if ok {
		key = uint64(v<<pad ^ a.flip)
	}
	if key == uint64(a.bound) {
		return v, ok, 0, 0
	}
	mid := max(lo, min(hi, whole))
	key, walked, loaded = extremeRangeAVX2(a, lo, mid, key)
	if key != uint64(a.bound) && mid < hi {
		tv, tok, w, l := extremeRange(b, mask, isMin, mid, hi)
		if k := uint64(tv<<pad ^ a.flip); tok && k < key {
			key = k
		}
		walked, loaded = walked+w, loaded+l
	}
	if key == noKey {
		return 0, false, walked, loaded
	}
	v = (uint32(key) ^ a.flip) >> pad
	run.offer(v, true)
	return v, true, walked, loaded
}

// extremeBound is the code no other can beat: 0 for a minimum, 2^k−1
// for a maximum.
func extremeBound(k int, isMin bool) uint32 {
	if isMin {
		return 0
	}
	return uint32(uint64(1)<<uint(k) - 1)
}

// runningExtreme is one Extreme call's best code so far, shared by its
// batches and workers: each AVX2 batch starts from it, so a later batch
// resolves only rows that can still beat it.
type runningExtreme struct {
	isMin bool
	v     atomic.Uint64 // 1<<32 | best; 0 before any row
}

func (r *runningExtreme) load() (uint32, bool) {
	s := r.v.Load()
	return uint32(s), s != 0
}

// offer makes v the running extreme if it beats it.
func (r *runningExtreme) offer(v uint32, ok bool) {
	for ok {
		s := r.v.Load()
		if s != 0 && (uint32(s) == v || r.isMin == (uint32(s) < v)) {
			return
		}
		if r.v.CompareAndSwap(s, 1<<32|uint64(v)) {
			return
		}
	}
}

// Extreme returns the smallest (isMin) or largest code among the rows set
// in mask (all rows when nil); ok is false when no row is selected. Once
// the extreme is the domain bound, no later row can beat it: the range
// stops there and the fan-out ends for every worker at its next batch.
// Stage accounting is Sum's over the segments walked up to the stop: the
// mask words of those segments, plus the byte slices of the ones holding
// a selected row.
func Extreme(x Exec, b *core.ByteSlice, mask *bitvec.Vector, isMin bool) (uint32, bool, error) {
	if mask != nil && mask.Len() != b.Len() {
		panic("kernel: aggregate mask length mismatch")
	}
	pad := uint(8*b.NumSlices() - b.Width())
	segBytes := int64(core.SegmentSize * b.NumSlices())
	bound := extremeBound(b.Width(), isMin)
	whole := b.Len() / 64 * 2 // segments in whole 64-row words
	var a *aggCols
	run := &runningExtreme{isMin: isMin}
	if useAVX2 {
		a = newAggCols(b, mask)
		if !isMin {
			a.flip = ^uint32(0)
		}
		a.bound = bound<<pad ^ a.flip
	}
	best, err := parallelRangesUntil(x, b.Segments(), core.SegmentSize, func(lo, hi int) extPartial {
		var p extPartial
		var walked, loaded int
		if a != nil {
			p.v, p.ok, walked, loaded = a.extreme(b, mask, isMin, run, whole, lo, hi)
		} else {
			p.v, p.ok, walked, loaded = extremeRange(b, mask, isMin, lo, hi)
		}
		p.segs, p.skipped, p.bytes = int64(loaded), int64(walked-loaded), int64(loaded)*segBytes
		if mask != nil {
			p.bytes += maskWords(lo, lo+walked) * maskWordBytes
		}
		return p
	}, mergeExtreme(isMin), func(p extPartial) bool { return p.ok && p.v == bound })
	if err != nil {
		return 0, false, err
	}
	best.record(x.Stage)
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
