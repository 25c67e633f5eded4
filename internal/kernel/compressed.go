package kernel

import (
	"encoding/binary"
	"math/bits"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// Fused kernels over the compressed column layout (internal/compress).
// The raw column is never materialised: a worker walks 512-code blocks,
// and for each block either
//
//   - resolves it from the 8 bytes of exact min/max metadata (writing its
//     8 result words without touching the streams),
//   - compares the block's FOR bytes directly in SWAR registers when every
//     value fits one byte (the strict predicate's constants are translated
//     by the block reference, see uniformFor), or
//   - decodes the block through the Stream-VByte control walk into a
//     stack-resident byte-plane scratch buffer and runs the ordinary SWAR
//     segment bodies over it.
//
// Blocks are 16 segments = 8 aligned result words, so any block partition
// across workers is word-aligned and the SetWord32 stores never race.

// blockMetaBytes is the zone metadata consulted per block: the exact
// uint32 min and max.
const blockMetaBytes = 8

// uniformFor points the one-slice scanner usc at a uniform one-byte FOR
// block with reference ref, translating the strict predicate sp into the
// block's byte domain. For a zone-undecided block the exact bounds pin
// every translated constant into [0,255], except that one Between bound
// may fall outside it (below ref, or more than 255 above): that bound then
// holds for every code of the block, which runs as Lt or Gt of the other.
//
//bsvet:hotloop
func (usc *scanner) uniformFor(sp layout.Predicate, ref uint32) {
	op, lo, hi := sp.Op, sp.C1-ref, sp.C2-ref
	if op == layout.Between {
		if sp.C1 < ref {
			op, lo = layout.Lt, hi
		} else if hi > 0xFF {
			op = layout.Gt
		}
	}
	usc.p.Op = op
	usc.c1[0], usc.c2[0] = uint64(byte(lo))*lsb, uint64(byte(hi))*lsb
}

// decodePlanes decodes one block's values through the Stream-VByte
// control walk and scatters the padded codes into byte planes — the same
// slice-per-byte shape the SWAR segment kernels consume. The data stream's
// slack bytes make the unconditional 4-byte load safe at the block tail.
//
//bsvet:hotloop
func decodePlanes(ctl, data []byte, ref uint32, delta bool, nb int, pad uint, planes *[4][compress.BlockCodes]byte) {
	ctl = ctl[:compress.CtlBlockBytes:compress.CtlBlockBytes]
	p := 0
	running := ref
	for i := 0; i < compress.BlockCodes; i++ {
		l := int(ctl[i>>2]>>uint((i&3)*2))&3 + 1
		v := binary.LittleEndian.Uint32(data[p:]) & compress.LenMask[l]
		p += l
		code := ref + v
		if delta {
			running += v
			code = running
		}
		padded := code << pad
		switch nb {
		case 1:
			planes[0][i] = byte(padded)
		case 2:
			planes[0][i] = byte(padded >> 8)
			planes[1][i] = byte(padded)
		case 3:
			planes[0][i] = byte(padded >> 16)
			planes[1][i] = byte(padded >> 8)
			planes[2][i] = byte(padded)
		default:
			planes[0][i] = byte(padded >> 24)
			planes[1][i] = byte(padded >> 16)
			planes[2][i] = byte(padded >> 8)
			planes[3][i] = byte(padded)
		}
	}
}

// scanCompressedRange evaluates p over blocks [blo, bhi), writing segment
// result words at their global offsets. It returns the number of segments
// the exact block bounds resolved without decode, plus the bytes touched
// (metadata, control and data streams, or raw FOR bytes, per the path
// each block took). dh, when non-nil, accumulates the early-stop depth
// histogram; zone-resolved segments count as depth 0 and the no-decode
// uniform path as depth 1, mirroring the raw zoned scan's accounting.
//
// Like Scan, the prepare work (the strict rewrite, stream headers)
// happens here, outside the annotated block loop. Decoded planes hold
// padded codes in the column domain, so the raw layout's strict scanner
// runs over them unchanged.
func scanCompressedRange(c *compress.Column, p layout.Predicate, blo, bhi int, out *bitvec.Vector, dh *obs.DepthCounts) (pruned int, bytes int64) {
	nb := c.NumSlices()
	sc := newScanner(p, c.Width(), compress.BlockCodes)
	var planes [4][compress.BlockCodes]byte
	for j := 0; j < nb; j++ {
		sc.slices[j] = planes[j][:]
	}
	usc := scanner{nb: 1, n: compress.BlockCodes}
	return sc.scanCompressedBlocks(p, c.Ctl(), c.Data(), c.DataOffs(), c.Refs(),
		c.Mins(), c.Maxs(), c.Modes(), c.Segments(), uint(8*nb-c.Width()),
		&usc, &planes, blo, bhi, out, dh)
}

// scanCompressedBlocks is the fused decode→compare block loop; sc holds
// the prepared constants with its plane slices already pointed at the
// caller's scratch buffer. Block decisions use the original predicate p;
// a block they leave undecided takes sc's fixed verdict when it has one.
//
//bsvet:hotloop
func (sc *scanner) scanCompressedBlocks(p layout.Predicate, ctl, data []byte, offs, refs, mins, maxs []uint32, modes []byte, nseg int, pad uint, usc *scanner, planes *[4][compress.BlockCodes]byte, blo, bhi int, out *bitvec.Vector, dh *obs.DepthCounts) (pruned int, bytes int64) {
	for b := blo; b < bhi; b++ {
		segBase := b * compress.BlockSegments
		segCount := nseg - segBase
		if segCount > compress.BlockSegments {
			segCount = compress.BlockSegments
		}
		base := segBase * core.SegmentSize
		mn, mx := mins[b], maxs[b]
		d := compress.ZoneDecide(p.Op, mn, mx, p.C1, p.C2)
		if d == 0 {
			d = sc.fixed
		}
		if d != 0 {
			w := uint64(0)
			if d > 0 {
				w = ^uint64(0)
			}
			// A block starts on a 64-row word: one plain store covers two
			// segments, and SetWord64 truncates a partial last block.
			for s := 0; s < segCount; s += 2 {
				out.SetWord64(base+s*core.SegmentSize, w)
			}
			pruned += segCount
			if dh != nil {
				dh[0] += int64(segCount)
			}
			bytes += blockMetaBytes
			continue
		}
		mode := modes[b]
		bdata := data[offs[b]:]
		if !compress.ModeDelta(mode) && compress.ModeUniformLen(mode) == 1 {
			usc.slices[0] = bdata[:compress.BlockCodes]
			usc.uniformFor(sc.p, refs[b])
			for s := 0; s < segCount; s++ {
				r, _ := usc.segmentDepth(s)
				out.SetWord32(base+s*core.SegmentSize, r)
			}
			if dh != nil {
				dh[1] += int64(segCount)
			}
			bytes += blockMetaBytes + compress.BlockCodes
			continue
		}
		decodePlanes(ctl[b*compress.CtlBlockBytes:(b+1)*compress.CtlBlockBytes],
			bdata, refs[b], compress.ModeDelta(mode), sc.nb, pad, planes)
		for s := 0; s < segCount; s++ {
			r, d := sc.segmentDepth(s)
			out.SetWord32(base+s*core.SegmentSize, r)
			if dh != nil {
				dh[d]++
			}
		}
		bytes += blockMetaBytes + compress.CtlBlockBytes + int64(offs[b+1]-offs[b])
	}
	return pruned, bytes
}

// ScanCompressed evaluates p over a compressed column, fusing
// decompression into the scan: pruned and uniform blocks never decode, and
// decoded blocks live only in a worker's scratch buffer. Cancellation is
// observed at block-batch granularity. It returns the number of segments
// resolved from block metadata alone. out must have length c.Len() and is
// overwritten.
func ScanCompressed(x Exec, c *compress.Column, p layout.Predicate, out *bitvec.Vector) (int, error) {
	layout.CheckPredicate(p, c.Width())
	if out.Len() != c.Len() {
		panic("kernel: result vector length mismatch")
	}
	st := x.Stage
	return parallelRanges(x, c.Blocks(), compress.BlockCodes, func(lo, hi int) int {
		if st == nil {
			pruned, _ := scanCompressedRange(c, p, lo, hi, out, nil)
			return pruned
		}
		var dh obs.DepthCounts
		pruned, bytes := scanCompressedRange(c, p, lo, hi, out, &dh)
		st.AddDepths(&dh)
		st.AddBytes(bytes)
		return pruned
	}, addInt)
}

// sumCompressedRange sums the decoded codes of blocks [blo, bhi),
// restricted to mask when non-nil. Blocks with no live mask bit skip
// decode entirely. Returns the segment count decoded and bytes touched
// for the observability layer.
func sumCompressedRange(c *compress.Column, mask *bitvec.Vector, blo, bhi int) (sum uint64, segs, bytes int64) {
	var buf [compress.BlockCodes]uint32
	offs := c.DataOffs()
	for b := blo; b < bhi; b++ {
		base := b * compress.BlockCodes
		rows := c.BlockRows(b)
		nw := (rows + core.SegmentSize - 1) / core.SegmentSize
		if mask != nil {
			bytes += int64(nw) * gateMaskBytes
			live := false
			for s := 0; s < nw; s++ {
				if mask.Word32(base+s*core.SegmentSize) != 0 {
					live = true
					break
				}
			}
			if !live {
				continue
			}
		}
		c.DecodeBlock(b, &buf)
		segs += int64(nw)
		bytes += compress.CtlBlockBytes + int64(offs[b+1]-offs[b])
		if mask == nil {
			for i := 0; i < rows; i++ {
				sum += uint64(buf[i])
			}
			continue
		}
		for s := 0; s < nw; s++ {
			w := mask.Word32(base + s*core.SegmentSize)
			for w != 0 {
				i := s*core.SegmentSize + bits.TrailingZeros32(w)
				w &= w - 1
				sum += uint64(buf[i])
			}
		}
	}
	return sum, segs, bytes
}

// SumCompressed sums a compressed column's codes (restricted to mask when
// non-nil) and returns the contributing row count, decoding only blocks
// with live rows.
func SumCompressed(x Exec, c *compress.Column, mask *bitvec.Vector) (sum uint64, count int, err error) {
	if mask != nil && mask.Len() != c.Len() {
		panic("kernel: aggregate mask length mismatch")
	}
	count = c.Len()
	if mask != nil {
		count = Count(mask)
	}
	part, err := parallelRanges(x, c.Blocks(), compress.BlockCodes, func(lo, hi int) sumPartial {
		var p sumPartial
		p.padded, p.segs, p.bytes = sumCompressedRange(c, mask, lo, hi)
		return p
	}, addSum)
	if err != nil {
		return 0, 0, err
	}
	part.record(x.Stage)
	return part.padded, count, nil
}

// extremeCompressedRange finds the min/max decoded code among mask's live
// rows in blocks [blo, bhi), starting from the running extreme (best, ok).
// A block whose exact bounds cannot improve the running extreme is
// skipped without reading its mask words or streams, and the walk stops
// once the extreme is the domain bound.
func extremeCompressedRange(c *compress.Column, mask *bitvec.Vector, isMin bool, blo, bhi int, best uint32, ok bool) (uint32, bool, int64, int64) {
	var buf [compress.BlockCodes]uint32
	mins, maxs := c.Mins(), c.Maxs()
	offs := c.DataOffs()
	bound := extremeBound(c.Width(), isMin)
	var segs, bytes int64
	for b := blo; b < bhi && !(ok && best == bound); b++ {
		bytes += blockMetaBytes
		if ok && ((isMin && mins[b] >= best) || (!isMin && maxs[b] <= best)) {
			continue
		}
		base := b * compress.BlockCodes
		rows := c.BlockRows(b)
		nw := (rows + core.SegmentSize - 1) / core.SegmentSize
		bytes += int64(nw) * gateMaskBytes
		live := false
		for s := 0; s < nw; s++ {
			if mask.Word32(base+s*core.SegmentSize) != 0 {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		c.DecodeBlock(b, &buf)
		segs += int64(nw)
		bytes += compress.CtlBlockBytes + int64(offs[b+1]-offs[b])
		for s := 0; s < nw; s++ {
			w := mask.Word32(base + s*core.SegmentSize)
			for w != 0 {
				i := s*core.SegmentSize + bits.TrailingZeros32(w)
				w &= w - 1
				if v := buf[i]; !ok || isMin == (v < best) {
					best, ok = v, true
				}
			}
		}
	}
	return best, ok, segs, bytes
}

// ExtremeCompressed returns the min (isMin) or max code of a compressed
// column restricted to mask. A nil mask answers from the exact per-block
// bounds without decoding anything; ok is false when no row qualifies.
// Every batch and worker starts from the running extreme, and the
// fan-out ends once it is the domain bound, as in Extreme.
func ExtremeCompressed(x Exec, c *compress.Column, mask *bitvec.Vector, isMin bool) (uint32, bool, error) {
	if mask != nil && mask.Len() != c.Len() {
		panic("kernel: aggregate mask length mismatch")
	}
	st := x.Stage
	if mask == nil {
		if st != nil {
			st.SetWorkers(1)
			st.AddBytes(int64(c.Blocks()) * blockMetaBytes)
		}
		bounds := c.Maxs()
		if isMin {
			bounds = c.Mins()
		}
		best, ok := uint32(0), false
		for _, v := range bounds {
			if !ok || isMin == (v < best) {
				best, ok = v, true
			}
		}
		return best, ok, nil
	}
	bound := extremeBound(c.Width(), isMin)
	run := &runningExtreme{isMin: isMin}
	best, err := parallelRangesUntil(x, c.Blocks(), compress.BlockCodes, func(lo, hi int) extPartial {
		var p extPartial
		p.v, p.ok = run.load()
		p.v, p.ok, p.segs, p.bytes = extremeCompressedRange(c, mask, isMin, lo, hi, p.v, p.ok)
		run.offer(p.v, p.ok)
		return p
	}, mergeExtreme(isMin), func(p extPartial) bool { return p.ok && p.v == bound })
	if err != nil {
		return 0, false, err
	}
	best.record(st)
	return best.v, best.ok, nil
}

// LookupManyCompressed stitches the codes of the given rows out of a
// compressed column in protected row batches. It always runs on one
// worker, whatever x.Workers says: rows arrive ascending, so one walker
// decodes each 512-code block exactly once and serves every row it
// contains, across batch boundaries too. Stage bytes are the compressed
// bytes touched.
func LookupManyCompressed(x Exec, c *compress.Column, rows []int32, out []uint32) error {
	if len(rows) != len(out) {
		panic("kernel: LookupManyCompressed rows/out length mismatch")
	}
	x.Workers = 1
	cur := blockCursor{last: -1}
	return parallelRows(x, len(rows), func(lo, hi int) {
		bytes := cur.gather(c, rows[lo:hi], out[lo:hi])
		if st := x.Stage; st != nil {
			st.AddRows(int64(hi-lo), bytes)
		}
	})
}

// blockCursor holds the most recently decoded block of a serial
// compressed gather.
type blockCursor struct {
	buf  [compress.BlockCodes]uint32
	last int
}

// gather stitches rows into out, decoding a block only when the row walk
// leaves the cursor's block; it returns the compressed bytes touched.
func (cur *blockCursor) gather(c *compress.Column, rows []int32, out []uint32) int64 {
	offs := c.DataOffs()
	var bytes int64
	for i, r := range rows {
		b := int(r) / compress.BlockCodes
		if b != cur.last {
			c.DecodeBlock(b, &cur.buf)
			cur.last = b
			bytes += int64(compress.CtlBlockBytes) + int64(offs[b+1]-offs[b])
		}
		out[i] = cur.buf[int(r)%compress.BlockCodes]
	}
	return bytes
}
