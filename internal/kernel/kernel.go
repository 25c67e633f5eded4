// Package kernel implements native, unprofiled scan kernels over the
// ByteSlice storage layout — the wall-clock fast path of the engine.
//
// The modelled path (internal/simd + internal/core) executes one Go method
// call and updates instruction/branch/cache counters per emulated AVX2
// instruction; that is what reproduces the paper's cycle counts, but it is
// orders of magnitude slower than the hardware. On amd64 hosts with AVX2
// the plain and zone-mapped ByteSlice scans run real AVX2 assembly
// (avx2.go, avx2_amd64.s): one 32-byte compare covers a segment's 32
// codes, as in the paper's Algorithm 1, and a zone-map walk decides 32
// segments per compare.
//
// Everywhere else — other architectures, hosts without AVX2, and every
// other kernel — the kernels are portable SWAR. ByteSlice's byte-per-slice
// layout admits very fast word-at-a-time kernels without intrinsics (the
// same observation Stream VByte makes for byte-oriented codecs): a uint64
// holds byte j of 8 consecutive codes, so per-byte comparisons run 8 lanes
// at a time with carry-free SWAR arithmetic, and a 32-code ByteSlice
// segment is covered by a 4×-unrolled word loop. The SWAR scan loops are
// also the AVX2 loops' oracle in the tests. On both paths the paper's
// byte-level early stop is preserved at segment granularity: as soon as no
// code in the segment can still match, the remaining byte slices are not
// loaded.
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

// in8lolo and in8hihi are gtc8(w, a) & ltc8(w, b) — the lanes strictly
// between two constants — when both constants' high bits are clear or both
// set: with the high bits known the two compares share one mask-out, three
// ops fewer than the pair. (aOr and bLo are gtc8's and ltc8's precomputed
// operands.)
//
//bsvet:hotloop
func in8lolo(w, aOr, bLo uint64) uint64 {
	return ^(w | (aOr - (w &^ msb)) | ((w | msb) - bLo)) & msb
}

//bsvet:hotloop
func in8hihi(w, aOr, bLo uint64) uint64 {
	return w &^ ((aOr - (w &^ msb)) | ((w | msb) - bLo)) & msb
}

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

// transpose8 finishes condensing two segments' eight lane masks (msb
// bits only) into one 64-bit result word without eight movemask
// multiplies: the caller packs r_u>>(7-u), which puts word u's lane-l bit
// at position 8l+u, and an 8x8 bit-matrix transpose (three delta swaps)
// moves it to the required 8u+l.
//
//bsvet:hotloop
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x = x ^ t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x = x ^ t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// scanner holds a prepared predicate: the broadcast constant bytes and the
// byte-slice buffers. Preparing once per scan mirrors Algorithm 1 lines
// 1–3 (the broadcast registers stay "register-resident" for the scan).
// The scan options — zone maps and the pipelined gate — are resolved here
// too, so the range loop a scan runs is fixed before the first segment.
type scanner struct {
	// p is the strict rewrite of the scan's predicate (see strict): its
	// operator is Eq, Ne, Lt, Gt or the open-interval Between, unless
	// fixed is set, in which case every code's verdict is fixed
	// (+1 match, -1 no match) and p is never evaluated.
	p      layout.Predicate
	fixed  int
	nb     int
	n      int
	slices [4][]byte
	c1     [4]uint64 // byte j of the padded p.C1, broadcast to all lanes
	c2     [4]uint64 // byte j of the padded p.C2 (Between only)
	zone   zoneInfo  // zone.ok when the column carries zone maps

	// prev, when non-nil, gates the scan with a previous predicate's
	// result (column-first Algorithm 2); negate selects the disjunctive
	// form (see gatedRange).
	prev   *bitvec.Vector
	negate bool
}

// strict rewrites a predicate over codes in [0, max] into an equivalent
// one whose range bounds are strict, so only Eq, Ne, Lt, Gt and the
// open-interval Between reach the loops: Le c becomes Lt c+1, Ge c becomes
// Gt c−1 and Between [lo,hi] the open interval (lo−1, hi+1) — or Lt hi+1,
// Gt lo−1 or Eq lo when a bound sits on the domain edge or the interval
// holds one code. A strict compare settles every lane whose first byte
// differs from the constant's, so inclusive bounds no longer carry exact
// still-equal masks through every slice. The domain edges (Le max, Ge 0,
// Lt 0, Gt max, Between [0,max], lo > hi) return a fixed verdict: +1
// every code matches, -1 none does.
func strict(p layout.Predicate, max uint32) (layout.Predicate, int) {
	lo, hi := p.C1, p.C2
	switch p.Op {
	case layout.Lt:
		if lo == 0 {
			return p, -1
		}
	case layout.Gt:
		if lo == max {
			return p, -1
		}
	case layout.Le:
		if lo == max {
			return p, 1
		}
		return layout.Predicate{Op: layout.Lt, C1: lo + 1}, 0
	case layout.Ge:
		if lo == 0 {
			return p, 1
		}
		return layout.Predicate{Op: layout.Gt, C1: lo - 1}, 0
	case layout.Between:
		switch {
		case lo > hi:
			return p, -1
		case lo == hi:
			return layout.Predicate{Op: layout.Eq, C1: lo}, 0
		case lo == 0 && hi == max:
			return p, 1
		case lo == 0:
			return layout.Predicate{Op: layout.Lt, C1: hi + 1}, 0
		case hi == max:
			return layout.Predicate{Op: layout.Gt, C1: lo - 1}, 0
		}
		return layout.Predicate{Op: layout.Between, C1: lo - 1, C2: hi + 1}, 0
	}
	return p, 0
}

// newScanner rewrites p for a column of n k-bit codes and broadcasts the
// rewritten constants' padded bytes; the caller points the slices at the
// data.
func newScanner(p layout.Predicate, k, n int) scanner {
	nb := (k + 7) / 8
	pad := uint(8*nb - k)
	sp, fixed := strict(p, uint32(uint64(1)<<uint(k)-1))
	sc := scanner{p: sp, fixed: fixed, nb: nb, n: n}
	pc1, pc2 := sp.C1<<pad, sp.C2<<pad
	for j := 0; j < nb; j++ {
		sh := uint(8 * (nb - 1 - j))
		sc.c1[j] = uint64(byte(pc1>>sh)) * lsb
		sc.c2[j] = uint64(byte(pc2>>sh)) * lsb
	}
	return sc
}

// prepare validates p against b, rewrites and broadcasts it, and picks up
// the column's zone maps when it has them. Zone decisions use the
// original predicate.
func prepare(b *core.ByteSlice, p layout.Predicate) scanner {
	layout.CheckPredicate(p, b.Width())
	sc := newScanner(p, b.Width(), b.Len())
	for j := 0; j < sc.nb; j++ {
		sc.slices[j] = b.Slice(j)
	}
	sc.zone = zoneFor(b, p)
	return sc
}

// decide classifies one segment without loading its data: the fixed
// verdict of a domain-edge predicate, else the zone map's (-1 no row
// matches, +1 all rows match, 0 undecided or no zone map).
//
//bsvet:hotloop
func (sc *scanner) decide(seg int) int {
	if sc.fixed != 0 {
		return sc.fixed
	}
	z := &sc.zone
	if !z.ok {
		return 0
	}
	return core.ZoneDecisionBytes(z.op, z.mn[seg], z.mx[seg], z.c1, z.c2)
}

// seg32 gives bounds-check-free access to the 32 bytes of one segment in
// one byte slice.
//
//bsvet:hotloop
func seg32(s []byte, off int) []byte {
	return s[off : off+32 : off+32]
}

// segmentDepth evaluates the prepared predicate over one 32-code segment
// and returns its 32 result bits (bit i = code 32*seg+i matches) plus the
// early-stop depth: the number of byte slices loaded before the segment's
// outcome was decided (1 <= depth <= nb), from which the observability
// layer builds its depth histograms. The byte loop early-stops as soon as
// no code in the segment can still match, exactly like the modelled
// scanSegment; padding rows in the final segment may produce garbage bits,
// which the bitvec truncates on write. Callers resolve a fixed verdict
// (decide) first.
//
// The per-op bodies are manually 4x-unrolled over scalar mask words (see
// movemask4) — a 32-code segment is 4 uint64s of 8 byte lanes each.
//
//bsvet:hotloop
func (sc *scanner) segmentDepth(seg int) (uint32, int) {
	off := seg * core.SegmentSize
	switch sc.p.Op {
	case layout.Eq:
		return sc.segEq(off)
	case layout.Ne:
		r, d := sc.segEq(off)
		return ^r, d
	case layout.Lt:
		return sc.segCmp(off, true)
	case layout.Gt:
		return sc.segCmp(off, false)
	case layout.Between:
		return sc.segBetween(off)
	}
	panic("kernel: unknown operator")
}

// putSegment writes one segment's result at its offset and counts its
// depth: the odd-aligned prologue and tail of the two-segment loops.
//
//bsvet:hotloop
func (sc *scanner) putSegment(seg int, out *bitvec.Vector, dh *obs.DepthCounts) {
	r, d := sc.segmentDepth(seg)
	out.SetWord32(seg*core.SegmentSize, r)
	if dh != nil {
		dh[d]++
	}
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

// segCmp is the per-segment strict Lt/Gt body: the first byte slice
// through the constant-specialised compare, the deeper slices only when
// anyEq4 reports a lane tied with the constant's first byte.
//
//bsvet:hotloop
func (sc *scanner) segCmp(off int, lt bool) (uint32, int) {
	c0 := sc.c1[0]
	c0lo, c0or, c0hi := c0&^uint64(msb), c0|uint64(msb), c0&msb != 0
	s := seg32(sc.slices[0], off)
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
	r := movemask4(r0, r1, r2, r3)
	if sc.nb > 1 && anyEq4(w0^c0, w1^c0, w2^c0, w3^c0) {
		rd, d := sc.deep32(off, &sc.c1, lt)
		return r | rd, d
	}
	return r, 1
}

// segBetween is the per-segment open-interval Between body: on the first
// byte slice a lane is inside when its byte lies strictly between the two
// bounds' first bytes, which settles every lane tied with neither; a tie
// with either bound sends the tied lanes through betweenDeep.
//
//bsvet:hotloop
func (sc *scanner) segBetween(off int) (uint32, int) {
	a, b := sc.c1[0], sc.c2[0]
	aOr, aHi, bLo, bHi := a|msb, a&msb != 0, b&^uint64(msb), b&msb != 0
	s := seg32(sc.slices[0], off)
	w0 := binary.LittleEndian.Uint64(s[0:8])
	w1 := binary.LittleEndian.Uint64(s[8:16])
	w2 := binary.LittleEndian.Uint64(s[16:24])
	w3 := binary.LittleEndian.Uint64(s[24:32])
	r := movemask4(gtc8(w0, aOr, aHi)&ltc8(w0, bLo, bHi), gtc8(w1, aOr, aHi)&ltc8(w1, bLo, bHi),
		gtc8(w2, aOr, aHi)&ltc8(w2, bLo, bHi), gtc8(w3, aOr, aHi)&ltc8(w3, bLo, bHi))
	if sc.nb == 1 {
		return r, 1
	}
	ga, gb := anyEq4(w0^a, w1^a, w2^a, w3^a), anyEq4(w0^b, w1^b, w2^b, w3^b)
	if !ga && !gb {
		return r, 1
	}
	rd, d := sc.betweenDeep(off, ga, gb)
	return r | rd, d
}

// betweenDeep resolves the lanes of one Between segment that tie a
// bound's first byte — ga for the lower bound, gb for the upper — through
// the deeper slices, returning their match bits for the caller to OR in
// and the deeper of the two bounds' early-stop depths. When the bounds'
// first bytes differ, a lane tied with one lies strictly inside the other,
// so only the tied bound decides it; when they coincide, a lane must pass
// both.
//
//bsvet:hotloop
func (sc *scanner) betweenDeep(off int, ga, gb bool) (uint32, int) {
	var g, l uint32
	dg, dl := 1, 1
	if ga {
		g, dg = sc.deep32(off, &sc.c1, false)
	}
	if gb {
		l, dl = sc.deep32(off, &sc.c2, true)
	}
	if sc.c1[0] == sc.c2[0] {
		return g & l, max(dg, dl)
	}
	return g | l, max(dg, dl)
}

// scanRange dispatches the monolithic range loops. dh, when non-nil,
// accumulates the early-stop depth histogram (observability path); a nil
// dh costs one predicted branch per segment, keeping the uninstrumented
// scan at its original throughput. With AVX2 the whole segments run
// through the AVX2 loops (avx2.go), and the SWAR loops take only what
// they leave.
//
//bsvet:hotloop
func (sc *scanner) scanRange(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) {
	if useAVX2 {
		segLo = sc.scanRangeAVX2(segLo, segHi, out, dh)
	}
	switch sc.p.Op {
	case layout.Eq:
		sc.rangeEq(segLo, segHi, false, out, dh)
	case layout.Ne:
		sc.rangeEq(segLo, segHi, true, out, dh)
	case layout.Lt:
		sc.rangeCmpStrict(segLo, segHi, true, out, dh)
	case layout.Gt:
		sc.rangeCmpStrict(segLo, segHi, false, out, dh)
	case layout.Between:
		sc.rangeBetween(segLo, segHi, out, dh)
	default:
		panic("kernel: unknown operator")
	}
}

// rangeEq is the monolithic Eq/Ne scan loop. The first byte slice is
// evaluated unconditionally with the initial all-ones mask folded away;
// deeper slices run only while some lane is still undecided. Even
// segments stash their 32 bits in acc, odd segments combine and store the
// full word with one plain write; the boundary cases (odd segLo,
// odd-length tail) fall back to SetWord32, and the hot-path branch
// alternates perfectly and predicts for free.
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

// deep32 finishes one segment whose first-slice equality gate fired for
// the constant whose broadcast bytes are c: it recomputes the exact
// still-equal masks and folds in the deeper byte slices, returning the
// additional match bits (rows equal to c on the first slice that the
// deeper slices decide) as a segment-local movemask for the caller to OR
// in, plus the segment's early-stop depth. Only the rare gated segments
// pay the (non-inlined) call; the first slice's words are reloaded from
// cache rather than passed so the caller's hot loop doesn't have to keep
// eight words live across the call, which would spill its registers.
//
//bsvet:hotloop
func (sc *scanner) deep32(off int, c *[4]uint64, lt bool) (uint32, int) {
	c0 := c[0]
	s0 := sc.slices[0][off : off+32 : off+32]
	m0 := eq8(binary.LittleEndian.Uint64(s0[0:8]), c0)
	m1 := eq8(binary.LittleEndian.Uint64(s0[8:16]), c0)
	m2 := eq8(binary.LittleEndian.Uint64(s0[16:24]), c0)
	m3 := eq8(binary.LittleEndian.Uint64(s0[24:32]), c0)
	var r0, r1, r2, r3 uint64
	d := 1
	for j := 1; j < sc.nb; j++ {
		s := sc.slices[j][off : off+32 : off+32]
		c := c[j]
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
	return movemask4(r0, r1, r2, r3), d
}

// rangeCmpStrict is the monolithic Lt/Gt scan loop. Without an or-equal
// fold the exact per-lane still-equal masks are pure early-stop plumbing,
// so the hot first-slice path replaces them with anyEq4 and only the rare
// segments whose gate fires pay for exact masks and deeper slices
// (deep32). The main loop runs two segments — 64 codes, one aligned
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
		sc.putSegment(seg, out, dh)
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
		var x uint64
		switch {
		case lt && !c0hi:
			x = ltc8lo(w0, c0lo)>>7 | ltc8lo(w1, c0lo)>>6 | ltc8lo(w2, c0lo)>>5 | ltc8lo(w3, c0lo)>>4 |
				ltc8lo(w4, c0lo)>>3 | ltc8lo(w5, c0lo)>>2 | ltc8lo(w6, c0lo)>>1 | ltc8lo(w7, c0lo)
		case lt:
			x = ltc8hi(w0, c0lo)>>7 | ltc8hi(w1, c0lo)>>6 | ltc8hi(w2, c0lo)>>5 | ltc8hi(w3, c0lo)>>4 |
				ltc8hi(w4, c0lo)>>3 | ltc8hi(w5, c0lo)>>2 | ltc8hi(w6, c0lo)>>1 | ltc8hi(w7, c0lo)
		case !c0hi:
			x = gtc8lo(w0, c0or)>>7 | gtc8lo(w1, c0or)>>6 | gtc8lo(w2, c0or)>>5 | gtc8lo(w3, c0or)>>4 |
				gtc8lo(w4, c0or)>>3 | gtc8lo(w5, c0or)>>2 | gtc8lo(w6, c0or)>>1 | gtc8lo(w7, c0or)
		default:
			x = gtc8hi(w0, c0or)>>7 | gtc8hi(w1, c0or)>>6 | gtc8hi(w2, c0or)>>5 | gtc8hi(w3, c0or)>>4 |
				gtc8hi(w4, c0or)>>3 | gtc8hi(w5, c0or)>>2 | gtc8hi(w6, c0or)>>1 | gtc8hi(w7, c0or)
		}
		x = transpose8(x)
		d0, d1 := 1, 1
		if g0 {
			r, dd := sc.deep32(off, &sc.c1, lt)
			x |= uint64(r)
			d0 = dd
		}
		if g1 {
			r, dd := sc.deep32(off+core.SegmentSize, &sc.c1, lt)
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
		sc.putSegment(seg, out, dh)
	}
}

// rangeBetween is the monolithic open-interval Between loop, shaped like
// rangeCmpStrict: two segments per iteration over the first byte slice
// only — a lane is inside when its byte lies strictly between the bounds'
// first bytes — with one anyEq4 tie gate per bound and segment, and
// betweenDeep for the lanes a gate sends deeper. The lower bound's first
// byte never exceeds the upper's, so the constant-specialised compares
// take three high-bit shapes.
//
//bsvet:hotloop
func (sc *scanner) rangeBetween(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) {
	s0, a, b, nb := sc.slices[0], sc.c1[0], sc.c2[0], sc.nb
	aOr, aHi, bLo, bHi := a|msb, a&msb != 0, b&^uint64(msb), b&msb != 0
	seg := segLo
	if seg < segHi && seg&1 == 1 {
		sc.putSegment(seg, out, dh)
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
		var ga0, gb0, ga1, gb1 bool
		if nb > 1 {
			ga0 = anyEq4(w0^a, w1^a, w2^a, w3^a)
			gb0 = anyEq4(w0^b, w1^b, w2^b, w3^b)
			ga1 = anyEq4(w4^a, w5^a, w6^a, w7^a)
			gb1 = anyEq4(w4^b, w5^b, w6^b, w7^b)
		}
		var x uint64
		switch {
		case !bHi:
			x = in8lolo(w0, aOr, bLo)>>7 | in8lolo(w1, aOr, bLo)>>6 | in8lolo(w2, aOr, bLo)>>5 | in8lolo(w3, aOr, bLo)>>4 |
				in8lolo(w4, aOr, bLo)>>3 | in8lolo(w5, aOr, bLo)>>2 | in8lolo(w6, aOr, bLo)>>1 | in8lolo(w7, aOr, bLo)
		case !aHi:
			x = (gtc8lo(w0, aOr)&ltc8hi(w0, bLo))>>7 | (gtc8lo(w1, aOr)&ltc8hi(w1, bLo))>>6 |
				(gtc8lo(w2, aOr)&ltc8hi(w2, bLo))>>5 | (gtc8lo(w3, aOr)&ltc8hi(w3, bLo))>>4 |
				(gtc8lo(w4, aOr)&ltc8hi(w4, bLo))>>3 | (gtc8lo(w5, aOr)&ltc8hi(w5, bLo))>>2 |
				(gtc8lo(w6, aOr)&ltc8hi(w6, bLo))>>1 | gtc8lo(w7, aOr)&ltc8hi(w7, bLo)
		default:
			x = in8hihi(w0, aOr, bLo)>>7 | in8hihi(w1, aOr, bLo)>>6 | in8hihi(w2, aOr, bLo)>>5 | in8hihi(w3, aOr, bLo)>>4 |
				in8hihi(w4, aOr, bLo)>>3 | in8hihi(w5, aOr, bLo)>>2 | in8hihi(w6, aOr, bLo)>>1 | in8hihi(w7, aOr, bLo)
		}
		x = transpose8(x)
		d0, d1 := 1, 1
		if ga0 || gb0 {
			r, dd := sc.betweenDeep(off, ga0, gb0)
			x |= uint64(r)
			d0 = dd
		}
		if ga1 || gb1 {
			r, dd := sc.betweenDeep(off+core.SegmentSize, ga1, gb1)
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
		sc.putSegment(seg, out, dh)
	}
}
