// Package kernel implements native, unprofiled SWAR scan kernels over the
// ByteSlice storage layout — the wall-clock fast path of the engine.
//
// The modelled path (internal/simd + internal/core) executes one Go method
// call and updates instruction/branch/cache counters per emulated AVX2
// instruction; that is what reproduces the paper's cycle counts, but it is
// orders of magnitude slower than the hardware. ByteSlice's byte-per-slice
// layout admits very fast portable word-at-a-time kernels without
// intrinsics (the same observation Stream VByte makes for byte-oriented
// codecs): a uint64 holds byte j of 8 consecutive codes, so per-byte
// comparisons run 8 lanes at a time with carry-free SWAR arithmetic, and a
// 32-code ByteSlice segment is covered by a 4×-unrolled word loop. The
// paper's byte-level early stop is preserved at segment granularity: as
// soon as no code in the segment can still match, the remaining byte
// slices are not loaded.
//
// Every kernel in this package is semantically identical to its modelled
// counterpart in internal/core — the differential fuzz test in
// fuzz_test.go asserts bit-for-bit equality — and operates directly on the
// ByteSlice byte buffers with no engine and no profiling. The query layer
// (package byteslice) dispatches here automatically when an operation is
// invoked without a Profile.
package kernel

import (
	"encoding/binary"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// SWAR masks, repeated per byte of a 64-bit word.
const (
	lo7 = 0x7F7F7F7F7F7F7F7F // low 7 bits of every byte
	msb = 0x8080808080808080 // bit 7 of every byte
	lsb = 0x0101010101010101 // bit 0 of every byte

	// mmMul gathers the 8 lane bits (at positions 8l, l = 0..7) into the
	// top byte of the product: bit 8l lands at 56+l via the 2^(56-7l) term.
	mmMul = 0x0102040810204080
)

// eq8 returns a mask with bit 7 of lane l set iff x's byte l equals y's.
//
//bsvet:hotloop
func eq8(x, y uint64) uint64 {
	z := x ^ y
	return ^(((z & lo7) + lo7) | z) & msb
}

// ge8 returns a mask with bit 7 of lane l set iff x's byte l >= y's,
// unsigned. Setting bit 7 of x and clearing it in y keeps every lane's
// difference in [1, 255], so the subtraction cannot borrow across lanes;
// bit 7 of d is then the lane's low-7-bit carry, and the top bits resolve
// the comparison directly.
//
//bsvet:hotloop
func ge8(x, y uint64) uint64 {
	d := (x | msb) - (y &^ msb)
	return ((x &^ y) | (^(x ^ y) & d)) & msb
}

// lt8 is the per-byte unsigned x < y mask.
//
//bsvet:hotloop
func lt8(x, y uint64) uint64 { return ^ge8(x, y) & msb }

// gt8 is the per-byte unsigned x > y mask.
//
//bsvet:hotloop
func gt8(x, y uint64) uint64 { return ^ge8(y, x) & msb }

// ltc8 is lt8(w, c) for a broadcast constant whose low-7-bit lanes (cLo =
// (c &^ msb) · lsb) and high bit (hi) are precomputed per byte slice.
// d's lane bit 7 reads "w's low 7 bits >= c's"; with c's high bit known,
// the full unsigned ge collapses to one extra op: hi lanes of w win
// outright when c < 0x80 (ge = w|d) and are required when c >= 0x80
// (ge = w&d).
//
//bsvet:hotloop
func ltc8(w, cLo uint64, hi bool) uint64 {
	if hi {
		return ltc8hi(w, cLo)
	}
	return ltc8lo(w, cLo)
}

// ltc8lo and ltc8hi are ltc8 with the constant's high bit resolved at the
// call site, so loops that know it can hoist the branch out entirely.
//
//bsvet:hotloop
func ltc8lo(w, cLo uint64) uint64 { return ^(w | ((w | msb) - cLo)) & msb }

//bsvet:hotloop
func ltc8hi(w, cLo uint64) uint64 { return ^(w & ((w | msb) - cLo)) & msb }

// gtc8 is gt8(w, c) with cOr = (c | msb)-per-lane precomputed: d's lane
// bit 7 reads "c's low 7 bits >= w's", so gt needs the complement plus
// the known high bit of c.
//
//bsvet:hotloop
func gtc8(w, cOr uint64, hi bool) uint64 {
	if hi {
		return gtc8hi(w, cOr)
	}
	return gtc8lo(w, cOr)
}

// gtc8lo and gtc8hi are gtc8 with the constant's high bit resolved at the
// call site.
//
//bsvet:hotloop
func gtc8lo(w, cOr uint64) uint64 { return (w | ^(cOr - (w &^ msb))) & msb }

//bsvet:hotloop
func gtc8hi(w, cOr uint64) uint64 { return w &^ (cOr - (w &^ msb)) & msb }

// movemask condenses a lane mask (bit 7 per byte) into 8 result bits,
// lane l -> bit l — the SWAR equivalent of vpmovmskb.
//
//bsvet:hotloop
func movemask(m uint64) uint32 {
	return uint32(((m >> 7) * mmMul) >> 56)
}

// movemask4 condenses a segment's 4 lane-mask words into its 32 result
// bits. The masks are kept in 4 scalar uint64s rather than a [4]uint64:
// the compiler does not register-allocate arrays, and the scan loops below
// are hot enough that the difference is ~3x wall clock.
//
//bsvet:hotloop
func movemask4(m0, m1, m2, m3 uint64) uint32 {
	return movemask(m0) | movemask(m1)<<8 | movemask(m2)<<16 | movemask(m3)<<24
}

// scanner holds a prepared predicate: the broadcast constant bytes and the
// byte-slice buffers. Preparing once per scan mirrors Algorithm 1 lines
// 1–3 (the broadcast registers stay "register-resident" for the scan).
// The scan options — zone maps and the pipelined gate — are resolved here
// too, so the range loop a scan runs is fixed before the first segment.
type scanner struct {
	op     layout.Op
	nb     int
	n      int
	slices [4][]byte
	c1     [4]uint64 // byte j of the padded C1, broadcast to all lanes
	c2     [4]uint64 // byte j of the padded C2 (Between only)
	zone   zoneInfo  // zone.ok when the column carries zone maps

	// prev, when non-nil, gates the scan with a previous predicate's
	// result (column-first Algorithm 2); negate selects the disjunctive
	// form (see gatedRange).
	prev   *bitvec.Vector
	negate bool
}

// prepare validates p against b, broadcasts its constant bytes and picks
// up the column's zone maps when it has them.
func prepare(b *core.ByteSlice, p layout.Predicate) scanner {
	layout.CheckPredicate(p, b.Width())
	nb := b.NumSlices()
	pad := uint(8*nb - b.Width())
	sc := scanner{op: p.Op, nb: nb, n: b.Len(), zone: zoneFor(b, p)}
	pc1, pc2 := p.C1<<pad, p.C2<<pad
	for j := 0; j < nb; j++ {
		sh := uint(8 * (nb - 1 - j))
		sc.slices[j] = b.Slice(j)
		sc.c1[j] = uint64(byte(pc1>>sh)) * lsb
		sc.c2[j] = uint64(byte(pc2>>sh)) * lsb
	}
	return sc
}

// seg32 gives bounds-check-free access to the 32 bytes of one segment in
// one byte slice.
//
//bsvet:hotloop
func seg32(s []byte, off int) []byte {
	return s[off : off+32 : off+32]
}

// segment evaluates the prepared predicate over one 32-code segment and
// returns its 32 result bits (bit i = code 32*seg+i matches). The byte
// loop early-stops as soon as no code in the segment can still match,
// exactly like the modelled scanSegment; padding rows in the final segment
// may produce garbage bits, which the bitvec truncates on write.
//
// The per-op bodies are manually 4x-unrolled over scalar mask words (see
// movemask4) — a 32-code segment is 4 uint64s of 8 byte lanes each.
//
//bsvet:hotloop
func (sc *scanner) segment(seg int) uint32 {
	r, _ := sc.segmentDepth(seg)
	return r
}

// segmentDepth is segment plus the early-stop depth: the number of byte
// slices the evaluation loaded before the segment's outcome was decided
// (1 <= depth <= nb). The observability layer's depth histograms are
// built from it; tracking costs one register, so segment() shares the
// same bodies.
//
//bsvet:hotloop
func (sc *scanner) segmentDepth(seg int) (uint32, int) {
	off := seg * core.SegmentSize
	switch sc.op {
	case layout.Eq:
		return sc.segEq(off)
	case layout.Ne:
		r, d := sc.segEq(off)
		return ^r, d
	case layout.Lt:
		return sc.segCmp(off, true, false)
	case layout.Le:
		return sc.segCmp(off, true, true)
	case layout.Gt:
		return sc.segCmp(off, false, false)
	case layout.Ge:
		return sc.segCmp(off, false, true)
	case layout.Between:
		return sc.segBetween(off)
	}
	panic("kernel: unknown operator")
}

//bsvet:hotloop
func (sc *scanner) segEq(off int) (uint32, int) {
	m0, m1, m2, m3 := uint64(msb), uint64(msb), uint64(msb), uint64(msb)
	d := 0
	for j := 0; j < sc.nb; j++ {
		s := seg32(sc.slices[j], off)
		c := sc.c1[j]
		m0 &= eq8(binary.LittleEndian.Uint64(s[0:8]), c)
		m1 &= eq8(binary.LittleEndian.Uint64(s[8:16]), c)
		m2 &= eq8(binary.LittleEndian.Uint64(s[16:24]), c)
		m3 &= eq8(binary.LittleEndian.Uint64(s[24:32]), c)
		d = j + 1
		if m0|m1|m2|m3 == 0 {
			break
		}
	}
	return movemask4(m0, m1, m2, m3), d
}

//bsvet:hotloop
func (sc *scanner) segCmp(off int, lt, orEq bool) (uint32, int) {
	meq0, meq1, meq2, meq3 := uint64(msb), uint64(msb), uint64(msb), uint64(msb)
	var r0, r1, r2, r3 uint64
	d := 0
	for j := 0; j < sc.nb; j++ {
		s := seg32(sc.slices[j], off)
		c := sc.c1[j]
		w0 := binary.LittleEndian.Uint64(s[0:8])
		w1 := binary.LittleEndian.Uint64(s[8:16])
		w2 := binary.LittleEndian.Uint64(s[16:24])
		w3 := binary.LittleEndian.Uint64(s[24:32])
		if lt {
			r0 |= meq0 & lt8(w0, c)
			r1 |= meq1 & lt8(w1, c)
			r2 |= meq2 & lt8(w2, c)
			r3 |= meq3 & lt8(w3, c)
		} else {
			r0 |= meq0 & gt8(w0, c)
			r1 |= meq1 & gt8(w1, c)
			r2 |= meq2 & gt8(w2, c)
			r3 |= meq3 & gt8(w3, c)
		}
		meq0 &= eq8(w0, c)
		meq1 &= eq8(w1, c)
		meq2 &= eq8(w2, c)
		meq3 &= eq8(w3, c)
		d = j + 1
		if meq0|meq1|meq2|meq3 == 0 {
			break
		}
	}
	if orEq {
		r0 |= meq0
		r1 |= meq1
		r2 |= meq2
		r3 |= meq3
	}
	return movemask4(r0, r1, r2, r3), d
}

//bsvet:hotloop
func (sc *scanner) segBetween(off int) (uint32, int) {
	// Fused single-pass BETWEEN, one load per byte for both bounds.
	e10, e11, e12, e13 := uint64(msb), uint64(msb), uint64(msb), uint64(msb)
	e20, e21, e22, e23 := uint64(msb), uint64(msb), uint64(msb), uint64(msb)
	var g0, g1, g2, g3, l0, l1, l2, l3 uint64
	d := 0
	for j := 0; j < sc.nb; j++ {
		s := seg32(sc.slices[j], off)
		c1, c2 := sc.c1[j], sc.c2[j]
		w0 := binary.LittleEndian.Uint64(s[0:8])
		w1 := binary.LittleEndian.Uint64(s[8:16])
		w2 := binary.LittleEndian.Uint64(s[16:24])
		w3 := binary.LittleEndian.Uint64(s[24:32])
		g0 |= e10 & gt8(w0, c1)
		g1 |= e11 & gt8(w1, c1)
		g2 |= e12 & gt8(w2, c1)
		g3 |= e13 & gt8(w3, c1)
		e10 &= eq8(w0, c1)
		e11 &= eq8(w1, c1)
		e12 &= eq8(w2, c1)
		e13 &= eq8(w3, c1)
		l0 |= e20 & lt8(w0, c2)
		l1 |= e21 & lt8(w1, c2)
		l2 |= e22 & lt8(w2, c2)
		l3 |= e23 & lt8(w3, c2)
		e20 &= eq8(w0, c2)
		e21 &= eq8(w1, c2)
		e22 &= eq8(w2, c2)
		e23 &= eq8(w3, c2)
		d = j + 1
		if (e10|e20)|(e11|e21)|(e12|e22)|(e13|e23) == 0 {
			break
		}
	}
	return movemask4((g0|e10)&(l0|e20), (g1|e11)&(l1|e21),
		(g2|e12)&(l2|e22), (g3|e13)&(l3|e23)), d
}

// scanRange dispatches the monolithic range loops. dh, when non-nil,
// accumulates the early-stop depth histogram (observability path); a nil
// dh costs one predicted branch per segment, keeping the uninstrumented
// scan at its original throughput.
//
//bsvet:hotloop
func (sc *scanner) scanRange(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) {
	switch sc.op {
	case layout.Eq:
		sc.rangeEq(segLo, segHi, false, out, dh)
	case layout.Ne:
		sc.rangeEq(segLo, segHi, true, out, dh)
	case layout.Lt:
		sc.rangeCmpStrict(segLo, segHi, true, out, dh)
	case layout.Le:
		sc.rangeCmp(segLo, segHi, true, true, out, dh)
	case layout.Gt:
		sc.rangeCmpStrict(segLo, segHi, false, out, dh)
	case layout.Ge:
		sc.rangeCmp(segLo, segHi, false, true, out, dh)
	case layout.Between:
		for seg := segLo; seg < segHi; seg++ {
			r, d := sc.segBetween(seg * core.SegmentSize)
			out.SetWord32(seg*core.SegmentSize, r)
			if dh != nil {
				dh[d]++
			}
		}
	default:
		panic("kernel: unknown operator")
	}
}

// The range loops batch segment results into aligned 64-bit stores: even
// segments stash their 32 bits in acc, odd segments combine and store the
// full word with one plain write. The boundary cases (odd segLo,
// odd-length tail) fall back to SetWord32; the hot-path branch alternates
// perfectly and predicts for free.

// rangeEq is the monolithic Eq/Ne scan loop. The first byte slice is
// evaluated unconditionally with the initial all-ones mask folded away;
// deeper slices run only while some lane is still undecided.
//
//bsvet:hotloop
func (sc *scanner) rangeEq(segLo, segHi int, ne bool, out *bitvec.Vector, dh *obs.DepthCounts) {
	s0, c0, nb := sc.slices[0], sc.c1[0], sc.nb
	var acc uint64
	for seg := segLo; seg < segHi; seg++ {
		off := seg * core.SegmentSize
		s := s0[off : off+32 : off+32]
		m0 := eq8(binary.LittleEndian.Uint64(s[0:8]), c0)
		m1 := eq8(binary.LittleEndian.Uint64(s[8:16]), c0)
		m2 := eq8(binary.LittleEndian.Uint64(s[16:24]), c0)
		m3 := eq8(binary.LittleEndian.Uint64(s[24:32]), c0)
		d := 1
		for j := 1; j < nb && m0|m1|m2|m3 != 0; j++ {
			s := sc.slices[j][off : off+32 : off+32]
			c := sc.c1[j]
			m0 &= eq8(binary.LittleEndian.Uint64(s[0:8]), c)
			m1 &= eq8(binary.LittleEndian.Uint64(s[8:16]), c)
			m2 &= eq8(binary.LittleEndian.Uint64(s[16:24]), c)
			m3 &= eq8(binary.LittleEndian.Uint64(s[24:32]), c)
			d = j + 1
		}
		if dh != nil {
			dh[d]++
		}
		r := movemask4(m0, m1, m2, m3)
		if ne {
			r = ^r
		}
		if seg&1 == 0 {
			acc = uint64(r)
			if seg+1 >= segHi {
				out.SetWord32(off, r)
			}
		} else if seg == segLo {
			out.SetWord32(off, r)
		} else {
			out.SetWord64(off-core.SegmentSize, acc|uint64(r)<<32)
		}
	}
}

// anyEq4 reports whether any lane of any word equals the constant the
// z_i = w_i ^ c differences were built from. It is Mycroft's zero-byte
// predicate: exact as a yes/no answer (bit positions are unreliable, which
// is fine — callers recompute exact masks when it fires), and two ops per
// word cheaper than eq8.
//
//bsvet:hotloop
func anyEq4(z0, z1, z2, z3 uint64) bool {
	return ((z0-lsb)&^z0|(z1-lsb)&^z1|(z2-lsb)&^z2|(z3-lsb)&^z3)&msb != 0
}

// cmpDeep finishes one segment whose first-slice equality gate fired:
// it recomputes the exact still-equal masks and folds in the deeper byte
// slices. Only the rare gated segments pay the (non-inlined) call; the
// first slice's words are reloaded from cache rather than passed so the
// caller's hot loop doesn't have to keep eight words live across the
// call, which would spill its registers.
//
//bsvet:hotloop
func (sc *scanner) cmpDeep(off int, lt bool, r0, r1, r2, r3 uint64) (uint64, uint64, uint64, uint64, int) {
	c0 := sc.c1[0]
	s0 := sc.slices[0][off : off+32 : off+32]
	m0 := eq8(binary.LittleEndian.Uint64(s0[0:8]), c0)
	m1 := eq8(binary.LittleEndian.Uint64(s0[8:16]), c0)
	m2 := eq8(binary.LittleEndian.Uint64(s0[16:24]), c0)
	m3 := eq8(binary.LittleEndian.Uint64(s0[24:32]), c0)
	d := 1
	for j := 1; j < sc.nb; j++ {
		s := sc.slices[j][off : off+32 : off+32]
		c := sc.c1[j]
		cLo, cOr, cHi := c&^uint64(msb), c|uint64(msb), c&msb != 0
		w0 := binary.LittleEndian.Uint64(s[0:8])
		w1 := binary.LittleEndian.Uint64(s[8:16])
		w2 := binary.LittleEndian.Uint64(s[16:24])
		w3 := binary.LittleEndian.Uint64(s[24:32])
		d = j + 1
		if lt {
			r0 |= m0 & ltc8(w0, cLo, cHi)
			r1 |= m1 & ltc8(w1, cLo, cHi)
			r2 |= m2 & ltc8(w2, cLo, cHi)
			r3 |= m3 & ltc8(w3, cLo, cHi)
		} else {
			r0 |= m0 & gtc8(w0, cOr, cHi)
			r1 |= m1 & gtc8(w1, cOr, cHi)
			r2 |= m2 & gtc8(w2, cOr, cHi)
			r3 |= m3 & gtc8(w3, cOr, cHi)
		}
		if j+1 == sc.nb {
			break // the last slice's still-equal mask is dead
		}
		m0 &= eq8(w0, c)
		m1 &= eq8(w1, c)
		m2 &= eq8(w2, c)
		m3 &= eq8(w3, c)
		if m0|m1|m2|m3 == 0 {
			break
		}
	}
	return r0, r1, r2, r3, d
}

// rangeCmpStrict is the monolithic Lt/Gt scan loop. Without the or-equal
// fold the exact per-lane still-equal masks are pure early-stop plumbing,
// so the hot first-slice path replaces them with anyEq4 and only the rare
// segments whose gate fires pay for exact masks and deeper slices
// (cmpDeep). The main loop runs two segments — 64 codes, one aligned
// result word — per iteration: eight independent dependency chains keep
// the ALUs fed, and the loop and store overhead is paid half as often.
//
// Gated segments resolve through deep32 after the result word is packed:
// only the packed accumulator (never the eight words or eight lane masks)
// is live across the rare deep-path calls, which keeps the register
// spilling around the branch merges off the hot path.
//
//bsvet:hotloop
func (sc *scanner) rangeCmpStrict(segLo, segHi int, lt bool, out *bitvec.Vector, dh *obs.DepthCounts) {
	s0, c0, nb := sc.slices[0], sc.c1[0], sc.nb
	c0lo, c0or, c0hi := c0&^uint64(msb), c0|uint64(msb), c0&msb != 0
	seg := segLo
	if seg < segHi && seg&1 == 1 {
		sc.cmpStrictSeg(seg, lt, out, dh)
		seg++
	}
	for ; seg+2 <= segHi; seg += 2 {
		off := seg * core.SegmentSize
		s := s0[off : off+64 : off+64]
		w0 := binary.LittleEndian.Uint64(s[0:8])
		w1 := binary.LittleEndian.Uint64(s[8:16])
		w2 := binary.LittleEndian.Uint64(s[16:24])
		w3 := binary.LittleEndian.Uint64(s[24:32])
		w4 := binary.LittleEndian.Uint64(s[32:40])
		w5 := binary.LittleEndian.Uint64(s[40:48])
		w6 := binary.LittleEndian.Uint64(s[48:56])
		w7 := binary.LittleEndian.Uint64(s[56:64])
		// Resolve the equality gates to two booleans up front so the words
		// die before the deep-path calls below.
		var g0, g1 bool
		if nb > 1 {
			g0 = anyEq4(w0^c0, w1^c0, w2^c0, w3^c0)
			g1 = anyEq4(w4^c0, w5^c0, w6^c0, w7^c0)
		}
		var r0, r1, r2, r3, r4, r5, r6, r7 uint64
		switch {
		case lt && !c0hi:
			r0 = ltc8lo(w0, c0lo)
			r1 = ltc8lo(w1, c0lo)
			r2 = ltc8lo(w2, c0lo)
			r3 = ltc8lo(w3, c0lo)
			r4 = ltc8lo(w4, c0lo)
			r5 = ltc8lo(w5, c0lo)
			r6 = ltc8lo(w6, c0lo)
			r7 = ltc8lo(w7, c0lo)
		case lt:
			r0 = ltc8hi(w0, c0lo)
			r1 = ltc8hi(w1, c0lo)
			r2 = ltc8hi(w2, c0lo)
			r3 = ltc8hi(w3, c0lo)
			r4 = ltc8hi(w4, c0lo)
			r5 = ltc8hi(w5, c0lo)
			r6 = ltc8hi(w6, c0lo)
			r7 = ltc8hi(w7, c0lo)
		case !c0hi:
			r0 = gtc8lo(w0, c0or)
			r1 = gtc8lo(w1, c0or)
			r2 = gtc8lo(w2, c0or)
			r3 = gtc8lo(w3, c0or)
			r4 = gtc8lo(w4, c0or)
			r5 = gtc8lo(w5, c0or)
			r6 = gtc8lo(w6, c0or)
			r7 = gtc8lo(w7, c0or)
		default:
			r0 = gtc8hi(w0, c0or)
			r1 = gtc8hi(w1, c0or)
			r2 = gtc8hi(w2, c0or)
			r3 = gtc8hi(w3, c0or)
			r4 = gtc8hi(w4, c0or)
			r5 = gtc8hi(w5, c0or)
			r6 = gtc8hi(w6, c0or)
			r7 = gtc8hi(w7, c0or)
		}
		// Condense the eight lane masks (msb bits only) into the result
		// word without the eight movemask multiplies: packing r_u>>(7-u)
		// puts word u's lane-l bit at position 8l+u, and an 8x8 bit-matrix
		// transpose (three delta swaps) moves it to the required 8u+l.
		x := r0>>7 | r1>>6 | r2>>5 | r3>>4 | r4>>3 | r5>>2 | r6>>1 | r7
		t := (x ^ x>>7) & 0x00AA00AA00AA00AA
		x = x ^ t ^ t<<7
		t = (x ^ x>>14) & 0x0000CCCC0000CCCC
		x = x ^ t ^ t<<14
		t = (x ^ x>>28) & 0x00000000F0F0F0F0
		x = x ^ t ^ t<<28
		d0, d1 := 1, 1
		if g0 {
			r, dd := sc.deep32(off, lt)
			x |= uint64(r)
			d0 = dd
		}
		if g1 {
			r, dd := sc.deep32(off+core.SegmentSize, lt)
			x |= uint64(r) << 32
			d1 = dd
		}
		out.SetWord64(off, x)
		if dh != nil {
			dh[d0]++
			dh[d1]++
		}
	}
	if seg < segHi {
		sc.cmpStrictSeg(seg, lt, out, dh)
	}
}

// deep32 resolves one gated segment's deeper byte slices and returns the
// additional match bits (rows equal on the first slice that the deeper
// slices decide) as a segment-local movemask for the caller to OR in,
// plus the segment's early-stop depth.
//
//bsvet:hotloop
func (sc *scanner) deep32(off int, lt bool) (uint32, int) {
	r0, r1, r2, r3, d := sc.cmpDeep(off, lt, 0, 0, 0, 0)
	return movemask4(r0, r1, r2, r3), d
}

// cmpStrictSeg handles the odd-aligned prologue and tail segments of
// rangeCmpStrict one segment at a time.
//
//bsvet:hotloop
func (sc *scanner) cmpStrictSeg(seg int, lt bool, out *bitvec.Vector, dh *obs.DepthCounts) {
	c0 := sc.c1[0]
	c0lo, c0or, c0hi := c0&^uint64(msb), c0|uint64(msb), c0&msb != 0
	off := seg * core.SegmentSize
	s := sc.slices[0][off : off+32 : off+32]
	w0 := binary.LittleEndian.Uint64(s[0:8])
	w1 := binary.LittleEndian.Uint64(s[8:16])
	w2 := binary.LittleEndian.Uint64(s[16:24])
	w3 := binary.LittleEndian.Uint64(s[24:32])
	var r0, r1, r2, r3 uint64
	if lt {
		r0 = ltc8(w0, c0lo, c0hi)
		r1 = ltc8(w1, c0lo, c0hi)
		r2 = ltc8(w2, c0lo, c0hi)
		r3 = ltc8(w3, c0lo, c0hi)
	} else {
		r0 = gtc8(w0, c0or, c0hi)
		r1 = gtc8(w1, c0or, c0hi)
		r2 = gtc8(w2, c0or, c0hi)
		r3 = gtc8(w3, c0or, c0hi)
	}
	d := 1
	if sc.nb > 1 && anyEq4(w0^c0, w1^c0, w2^c0, w3^c0) {
		r0, r1, r2, r3, d = sc.cmpDeep(off, lt, r0, r1, r2, r3)
	}
	if dh != nil {
		dh[d]++
	}
	out.SetWord32(off, movemask4(r0, r1, r2, r3))
}

// rangeCmp is the monolithic Lt/Le/Gt/Ge scan loop (lt picks the
// direction, orEq folds the still-equal lanes in at the end). The first
// byte slice — by far the hottest, since early stopping rarely lets a
// segment past it — uses the constant-specialised ltc8/gtc8 compares; its
// direction and high-bit branches run the same way every iteration.
//
//bsvet:hotloop
func (sc *scanner) rangeCmp(segLo, segHi int, lt, orEq bool, out *bitvec.Vector, dh *obs.DepthCounts) {
	s0, c0, nb := sc.slices[0], sc.c1[0], sc.nb
	c0lo, c0or, c0hi := c0&^uint64(msb), c0|uint64(msb), c0&msb != 0
	var acc uint64
	for seg := segLo; seg < segHi; seg++ {
		off := seg * core.SegmentSize
		s := s0[off : off+32 : off+32]
		w0 := binary.LittleEndian.Uint64(s[0:8])
		w1 := binary.LittleEndian.Uint64(s[8:16])
		w2 := binary.LittleEndian.Uint64(s[16:24])
		w3 := binary.LittleEndian.Uint64(s[24:32])
		var r0, r1, r2, r3 uint64
		if lt {
			r0 = ltc8(w0, c0lo, c0hi)
			r1 = ltc8(w1, c0lo, c0hi)
			r2 = ltc8(w2, c0lo, c0hi)
			r3 = ltc8(w3, c0lo, c0hi)
		} else {
			r0 = gtc8(w0, c0or, c0hi)
			r1 = gtc8(w1, c0or, c0hi)
			r2 = gtc8(w2, c0or, c0hi)
			r3 = gtc8(w3, c0or, c0hi)
		}
		m0 := eq8(w0, c0)
		m1 := eq8(w1, c0)
		m2 := eq8(w2, c0)
		m3 := eq8(w3, c0)
		d := 1
		for j := 1; j < nb && m0|m1|m2|m3 != 0; j++ {
			s := sc.slices[j][off : off+32 : off+32]
			c := sc.c1[j]
			cLo, cOr, cHi := c&^uint64(msb), c|uint64(msb), c&msb != 0
			w0 := binary.LittleEndian.Uint64(s[0:8])
			w1 := binary.LittleEndian.Uint64(s[8:16])
			w2 := binary.LittleEndian.Uint64(s[16:24])
			w3 := binary.LittleEndian.Uint64(s[24:32])
			d = j + 1
			if lt {
				r0 |= m0 & ltc8(w0, cLo, cHi)
				r1 |= m1 & ltc8(w1, cLo, cHi)
				r2 |= m2 & ltc8(w2, cLo, cHi)
				r3 |= m3 & ltc8(w3, cLo, cHi)
			} else {
				r0 |= m0 & gtc8(w0, cOr, cHi)
				r1 |= m1 & gtc8(w1, cOr, cHi)
				r2 |= m2 & gtc8(w2, cOr, cHi)
				r3 |= m3 & gtc8(w3, cOr, cHi)
			}
			if j+1 < nb || orEq {
				// The last slice's still-equal mask is only needed when
				// Le/Ge folds it into the result.
				m0 &= eq8(w0, c)
				m1 &= eq8(w1, c)
				m2 &= eq8(w2, c)
				m3 &= eq8(w3, c)
			} else {
				break
			}
		}
		if dh != nil {
			dh[d]++
		}
		if orEq {
			r0 |= m0
			r1 |= m1
			r2 |= m2
			r3 |= m3
		}
		r := movemask4(r0, r1, r2, r3)
		if seg&1 == 0 {
			acc = uint64(r)
			if seg+1 >= segHi {
				out.SetWord32(off, r)
			}
		} else if seg == segLo {
			out.SetWord32(off, r)
		} else {
			out.SetWord64(off-core.SegmentSize, acc|uint64(r)<<32)
		}
	}
}
