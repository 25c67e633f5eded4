// Package core implements ByteSlice, the paper's storage layout (§3), and
// its scan/lookup framework: Algorithm 1 scans for all comparison
// operators, the early-stopping rule, the column-first pipelined scan
// (Algorithm 2), the predicate-first pipelined multi-column scan, lookups,
// and the two studied variants (16-bit bank width from Appendix A, and the
// Option-2 VBP tail from §3).
//
// ByteSlice vertically distributes the bytes of a k-bit code across
// ⌈k/8⌉ contiguous memory regions ("byte slices"): byte j of code i is
// byte i of slice j. A 256-bit SIMD word therefore holds the j-th bytes of
// a segment of 32 consecutive codes, and a scan compares 32 codes per
// instruction, early-stopping a segment as soon as no code in it can still
// match the constant in the bytes examined so far.
package core

import (
	"encoding/binary"
	"fmt"

	"byteslice/internal/bitvec"
	"byteslice/internal/cache"
	"byteslice/internal/layout"
	"byteslice/internal/perf"
	"byteslice/internal/simd"
)

// SegmentSize is the number of codes per ByteSlice segment: one byte per
// code in a 256-bit word (S/8).
const SegmentSize = simd.Bytes

// segmentOverhead is the modelled scalar housekeeping (pointer advance,
// bound check, loop branch) per segment of the outer scan loop. ByteSlice's
// inner byte loop carries no such charge: it runs at most ⌈k/8⌉ ≤ 4
// iterations and production implementations — including the authors'
// reference code — specialise the scan kernel per code width and fully
// unroll it. The baseline layouts whose inner loops cannot be unrolled
// (VBP's k-iteration bit loop) carry their own per-iteration charges.
const segmentOverhead = 2

// ByteSlice is a column of n k-bit codes in ByteSlice format (Option 1:
// the last byte of a code whose width is not a multiple of 8 is padded
// with low-order zero bits, §3.1.1).
type ByteSlice struct {
	k  int // code width in bits
	nb int // number of byte slices, ⌈k/8⌉
	n  int // number of codes
	// pad is the left-shift applied to codes so comparisons on padded
	// bytes agree with comparisons on codes: 8·nb − k.
	pad uint
	// slices[j][i] is the j-th most significant byte of padded code i.
	// Each slice is padded to a whole number of segments.
	slices [][]byte
	addrs  []uint64
	// earlyStop can be disabled for the Figure 10 ablation.
	earlyStop bool
	// zones holds the optional per-segment first-byte zone map (zonemap.go).
	zones *zoneMap
}

// New builds a ByteSlice column from codes of width k. The arena assigns
// the simulated addresses of the byte slices; it may be nil when cache
// behaviour is not being modelled.
func New(codes []uint32, k int, arena *cache.Arena) *ByteSlice {
	layout.CheckArgs(codes, k)
	nb := (k + 7) / 8
	padded := (len(codes) + SegmentSize - 1) / SegmentSize * SegmentSize
	if padded == 0 {
		padded = SegmentSize
	}
	slices := make([][]byte, nb)
	for j := range slices {
		slices[j] = make([]byte, 0, padded)
	}
	AppendCodes(slices, k, codes)
	for j := range slices {
		slices[j] = slices[j][:padded]
	}
	b := Adopt(slices, k, len(codes))
	b.Register(arena)
	return b
}

// AppendCodes appends codes of width k to a column's byte slices, one
// slice per byte of the padded code, most significant first: byte j of
// each code lands at the end of slices[j]. It is the transposition New
// builds with and an append-only delta grows by. Every slice must hold the
// same number of codes, and len(slices) must be ⌈k/8⌉.
func AppendCodes(slices [][]byte, k int, codes []uint32) {
	nb := len(slices)
	pad := uint(8*nb - k)
	n := len(slices[0])
	for j, s := range slices {
		slices[j] = append(s, make([]byte, len(codes))...)
	}
	for i, v := range codes {
		p := v << pad
		for j := 0; j < nb; j++ {
			slices[j][n+i] = byte(p >> uint(8*(nb-1-j)))
		}
	}
}

// Adopt wraps byte slices laid out as AppendCodes writes them as a column
// of n k-bit codes, without copying. Every slice must hold the same whole
// number (at least one) of segments covering n codes, with zero bytes past
// n, and nobody may write the slices afterwards.
func Adopt(slices [][]byte, k, n int) *ByteSlice {
	nb := (k + 7) / 8
	if k < 1 || k > 32 || len(slices) != nb {
		panic("core: adopt needs ⌈k/8⌉ byte slices of a width in [1,32]")
	}
	for _, s := range slices {
		if len(s) != len(slices[0]) || len(s) < n || len(s) == 0 || len(s)%SegmentSize != 0 {
			panic("core: adopted byte slices must be equal whole segments covering n codes")
		}
	}
	return &ByteSlice{
		k:         k,
		nb:        nb,
		n:         n,
		pad:       uint(8*nb - k),
		slices:    slices,
		addrs:     make([]uint64, nb),
		earlyStop: true,
	}
}

// CheckSlices reports why slices cannot be adopted as a column of n
// k-bit codes, or nil when they can: they must be ⌈k/8⌉ equal runs of
// whole segments (at least one) covering n codes, as AppendCodes and New
// lay them out, with no padding bit set below a code's last byte and
// every byte past n zero. A stored column's slices pass it before Adopt.
func CheckSlices(slices [][]byte, k, n int) error {
	nb := (k + 7) / 8
	if k < 1 || k > 32 || len(slices) != nb || n < 0 {
		return fmt.Errorf("core: %d byte slices for %d-bit codes", len(slices), k)
	}
	for j, s := range slices {
		if len(s) != len(slices[0]) || len(s) < n || len(s) == 0 || len(s)%SegmentSize != 0 {
			return fmt.Errorf("core: byte slice %d holds %d bytes, not whole segments covering %d codes", j, len(s), n)
		}
		for _, v := range s[n:] {
			if v != 0 {
				return fmt.Errorf("core: byte slice %d has a non-zero byte past row %d", j, n)
			}
		}
	}
	if pad := 8*nb - k; pad > 0 {
		var acc uint64
		last := slices[nb-1]
		for i := 0; i < len(last); i += 8 {
			acc |= binary.LittleEndian.Uint64(last[i:])
		}
		if padBits := (uint64(1)<<pad - 1) * 0x0101010101010101; acc&padBits != 0 {
			return fmt.Errorf("core: padding bits set below %d-bit codes", k)
		}
	}
	return nil
}

// Register assigns the byte slices their simulated addresses, one arena
// region per slice in slice order, as New does for the slices it builds;
// an adopted column registers through it to take the same regions. A nil
// arena leaves the addresses zero.
func (b *ByteSlice) Register(arena *cache.Arena) {
	if arena == nil {
		return
	}
	for j := range b.addrs {
		b.addrs[j] = arena.Alloc(uint64(len(b.slices[j])))
	}
}

// NewBuilder adapts New to the layout.Builder signature.
func NewBuilder(codes []uint32, k int, arena *cache.Arena) layout.Layout {
	return New(codes, k, arena)
}

// Name implements layout.Layout.
func (b *ByteSlice) Name() string { return "ByteSlice" }

// Width implements layout.Layout.
//
//bsvet:hotloop
func (b *ByteSlice) Width() int { return b.k }

// Len implements layout.Layout.
//
//bsvet:hotloop
func (b *ByteSlice) Len() int { return b.n }

// SizeBytes implements layout.Layout.
func (b *ByteSlice) SizeBytes() uint64 {
	var s uint64
	for _, sl := range b.slices {
		s += uint64(len(sl))
	}
	return s
}

// SetEarlyStop toggles the early-stopping check (Figure 10 studies scans
// with it disabled). It is enabled by default.
func (b *ByteSlice) SetEarlyStop(on bool) { b.earlyStop = on }

// Segments returns the number of 32-code segments (including the final
// padded one).
//
//bsvet:hotloop
func (b *ByteSlice) Segments() int { return len(b.slices[0]) / SegmentSize }

// padConst pads a comparison constant the same way codes are padded.
// Comparison results are unchanged by the shared shift (§3.1).
func (b *ByteSlice) padConst(c uint32) uint32 { return c << b.pad }

// constByte returns byte j (0 = most significant) of a padded constant.
func (b *ByteSlice) constByte(c uint32, j int) byte {
	return byte(c >> uint(8*(b.nb-1-j)))
}

// scanConsts holds the per-scan broadcast constant registers and the
// predictor site ids for the scan's static branches.
type scanConsts struct {
	op  layout.Op
	wc1 []simd.Vec // byte j of C1 broadcast to all banks
	wc2 []simd.Vec // byte j of C2 (Between only)
	// branch predictor sites: one early-stop site per byte iteration (a
	// history-based predictor distinguishes loop iterations, and the
	// per-iteration outcome is heavily biased — the §3.1.1 argument that
	// the Algorithm 1 branch is highly predictable), plus the pipelined
	// segment-skip site.
	esSites  []int
	skipSite int
}

// prepare broadcasts the constant bytes into registers (Algorithm 1 lines
// 1–3). The ≤ 8 broadcast registers stay register-resident for the whole
// scan, one of ByteSlice's structural advantages over VBP, whose k
// comparison words must be re-loaded from memory each iteration.
func (b *ByteSlice) prepare(e *simd.Engine, p layout.Predicate) *scanConsts {
	sc := &scanConsts{
		op:       p.Op,
		wc1:      make([]simd.Vec, b.nb),
		esSites:  make([]int, b.nb),
		skipSite: e.P.Pred.Site(),
	}
	for j := range sc.esSites {
		sc.esSites[j] = e.P.Pred.Site()
	}
	c1 := b.padConst(p.C1)
	for j := 0; j < b.nb; j++ {
		sc.wc1[j] = e.Broadcast8(b.constByte(c1, j))
	}
	if p.Op == layout.Between {
		sc.wc2 = make([]simd.Vec, b.nb)
		c2 := b.padConst(p.C2)
		for j := 0; j < b.nb; j++ {
			sc.wc2[j] = e.Broadcast8(b.constByte(c2, j))
		}
	}
	return sc
}

// scanSegment evaluates the prepared predicate over segment seg, with the
// per-bank evaluation restricted to banks set in initMeq (all-ones for an
// unrestricted scan; the previous predicate's bank mask when pipelining
// predicate-first). It returns the segment's bank-level result mask: bank i
// is all-ones iff code 32·seg+i satisfies the predicate and was not
// restricted away.
func (b *ByteSlice) scanSegment(e *simd.Engine, sc *scanConsts, seg int, initMeq simd.Vec, restricted bool) simd.Vec {
	off := seg * SegmentSize
	// The j = 0 early-stopping test is elided in unrestricted scans: Meq
	// starts all-ones, so the unrolled kernel never emits it (Algorithm
	// 1's first test is trivially false). A restricted initMeq (predicate-
	// first pipelining) can be all-zero, so there the test stays.
	switch sc.op {
	case layout.Eq, layout.Ne:
		meq := initMeq
		for j := 0; j < b.nb; j++ {
			if b.earlyStop && (j > 0 || restricted) && e.P.Branch(sc.esSites[j], e.TestZero(meq)) {
				break
			}
			w := e.Load(b.slices[j][off:], b.addrs[j]+uint64(off))
			meq = e.And(meq, e.CmpEq8(w, sc.wc1[j]))
		}
		if sc.op == layout.Ne {
			return e.AndNot(meq, initMeq)
		}
		return meq

	case layout.Lt, layout.Le, layout.Gt, layout.Ge:
		meq := initMeq
		mcmp := simd.Zero()
		lt := sc.op == layout.Lt || sc.op == layout.Le
		for j := 0; j < b.nb; j++ {
			if b.earlyStop && (j > 0 || restricted) && e.P.Branch(sc.esSites[j], e.TestZero(meq)) {
				break
			}
			w := e.Load(b.slices[j][off:], b.addrs[j]+uint64(off))
			var cmp simd.Vec
			if lt {
				cmp = e.CmpLtU8(w, sc.wc1[j])
			} else {
				cmp = e.CmpGtU8(w, sc.wc1[j])
			}
			mcmp = e.Or(mcmp, e.And(meq, cmp))
			meq = e.And(meq, e.CmpEq8(w, sc.wc1[j]))
		}
		if sc.op == layout.Le || sc.op == layout.Ge {
			return e.Or(mcmp, meq)
		}
		return mcmp

	case layout.Between:
		// Fused single-pass BETWEEN: one load per byte serves both bounds
		// (the paper evaluates BETWEEN as a conjunction of two scans; the
		// fused form is the natural refinement and is what exec uses).
		meq1, meq2 := initMeq, initMeq
		mgt1, mlt2 := simd.Zero(), simd.Zero()
		for j := 0; j < b.nb; j++ {
			if b.earlyStop && (j > 0 || restricted) && e.P.Branch(sc.esSites[j], e.TestZero(e.Or(meq1, meq2))) {
				break
			}
			w := e.Load(b.slices[j][off:], b.addrs[j]+uint64(off))
			mgt1 = e.Or(mgt1, e.And(meq1, e.CmpGtU8(w, sc.wc1[j])))
			meq1 = e.And(meq1, e.CmpEq8(w, sc.wc1[j]))
			mlt2 = e.Or(mlt2, e.And(meq2, e.CmpLtU8(w, sc.wc2[j])))
			meq2 = e.And(meq2, e.CmpEq8(w, sc.wc2[j]))
		}
		return e.And(e.Or(mgt1, meq1), e.Or(mlt2, meq2))
	}
	panic("core: unknown operator")
}

// Scan implements layout.Layout with Algorithm 1 (generalised to all
// comparison operators per Appendix B).
func (b *ByteSlice) Scan(e *simd.Engine, p layout.Predicate, out *bitvec.Vector) {
	layout.CheckPredicate(p, b.k)
	out.Reset()
	sc := b.prepare(e, p)
	ones := simd.Ones()
	for seg := 0; seg < b.Segments(); seg++ {
		e.Scalar(segmentOverhead)
		res := b.scanSegment(e, sc, seg, ones, false)
		r := e.Movemask8(res)
		e.Scalar(1) // store of the condensed segment result
		out.Append32(r)
	}
}

// ScanPipelined is Algorithm 2, the column-first pipelined scan. The
// previous predicate's condensed result bits gate each segment — a
// segment none of whose codes can still qualify is skipped entirely — and
// the early-stopping test becomes (r_prev & movemask(Meq)) == 0. With
// negate=false the output is prev AND result (conjunction); with
// negate=true the scan considers only rows where prev is unset and
// outputs prev OR result (disjunction, §4.1.3 / Appendix E).
func (b *ByteSlice) ScanPipelined(e *simd.Engine, p layout.Predicate, prev *bitvec.Vector, negate bool, out *bitvec.Vector) {
	if prev.Len() != b.n {
		panic("core: pipelined scan with mismatched previous result length")
	}
	layout.CheckPredicate(p, b.k)
	out.Reset()
	sc := b.prepare(e, p)
	for seg := 0; seg < b.Segments(); seg++ {
		e.Scalar(segmentOverhead)
		var rprev uint32
		if off := seg * SegmentSize; off < b.n {
			rprev = prev.Word32(off)
		}
		e.Scalar(1) // extract r_prev
		gate := rprev
		if negate {
			gate = ^rprev
			e.Scalar(1)
		}
		// Skip the segment outright when no row in it is still live; this
		// is the degenerate early-stop before the first byte.
		if e.P.Branch(sc.skipSite, gate == 0) {
			if negate {
				out.Append32(rprev)
			} else {
				out.Append32(0)
			}
			continue
		}
		res := b.scanSegmentGated(e, sc, seg, gate)
		r := e.Movemask8(res)
		e.Scalar(1)
		if negate {
			out.Append32(r | rprev)
		} else {
			out.Append32(r & rprev)
		}
		e.Scalar(1)
	}
}

// scanSegmentGated is scanSegment with the Algorithm 2 early-stop test:
// the segment stops as soon as (gate & movemask(Meq)) == 0, i.e. every
// still-live row has been determined.
func (b *ByteSlice) scanSegmentGated(e *simd.Engine, sc *scanConsts, seg int, gate uint32) simd.Vec {
	off := seg * SegmentSize
	stop := func(j int, meq simd.Vec) bool {
		if !b.earlyStop || j == 0 {
			// The caller's gate test already covered "no live rows".
			return false
		}
		m := e.Movemask8(meq)
		e.Scalar(1) // AND with the gate
		return e.P.Branch(sc.esSites[j], gate&m == 0)
	}
	switch sc.op {
	case layout.Eq, layout.Ne:
		meq := simd.Ones()
		for j := 0; j < b.nb; j++ {
			if stop(j, meq) {
				break
			}
			w := e.Load(b.slices[j][off:], b.addrs[j]+uint64(off))
			meq = e.And(meq, e.CmpEq8(w, sc.wc1[j]))
		}
		if sc.op == layout.Ne {
			return e.Not(meq)
		}
		return meq

	case layout.Lt, layout.Le, layout.Gt, layout.Ge:
		meq := simd.Ones()
		mcmp := simd.Zero()
		lt := sc.op == layout.Lt || sc.op == layout.Le
		for j := 0; j < b.nb; j++ {
			if stop(j, meq) {
				break
			}
			w := e.Load(b.slices[j][off:], b.addrs[j]+uint64(off))
			var cmp simd.Vec
			if lt {
				cmp = e.CmpLtU8(w, sc.wc1[j])
			} else {
				cmp = e.CmpGtU8(w, sc.wc1[j])
			}
			mcmp = e.Or(mcmp, e.And(meq, cmp))
			meq = e.And(meq, e.CmpEq8(w, sc.wc1[j]))
		}
		if sc.op == layout.Le || sc.op == layout.Ge {
			return e.Or(mcmp, meq)
		}
		return mcmp

	case layout.Between:
		meq1, meq2 := simd.Ones(), simd.Ones()
		mgt1, mlt2 := simd.Zero(), simd.Zero()
		for j := 0; j < b.nb; j++ {
			if stop(j, e.Or(meq1, meq2)) {
				break
			}
			w := e.Load(b.slices[j][off:], b.addrs[j]+uint64(off))
			mgt1 = e.Or(mgt1, e.And(meq1, e.CmpGtU8(w, sc.wc1[j])))
			meq1 = e.And(meq1, e.CmpEq8(w, sc.wc1[j]))
			mlt2 = e.Or(mlt2, e.And(meq2, e.CmpLtU8(w, sc.wc2[j])))
			meq2 = e.And(meq2, e.CmpEq8(w, sc.wc2[j]))
		}
		return e.And(e.Or(mgt1, meq1), e.Or(mlt2, meq2))
	}
	panic("core: unknown operator")
}

// Lookup implements layout.Layout (§3.2): the code's ⌈k/8⌉ bytes are
// fetched from their slices and stitched back together — per byte one load,
// one shift and one add — and the padding bits are removed with a final
// right shift. At most ⌈k/8⌉ cache lines are touched, and because all
// slice addresses are known upfront the loads overlap in the pipeline,
// which is what keeps ByteSlice lookups competitive with HBP (Figure 8).
func (b *ByteSlice) Lookup(e *simd.Engine, i int) uint32 {
	var spans [4]perf.Span
	for j := 0; j < b.nb; j++ {
		spans[j] = perf.Span{Addr: b.addrs[j] + uint64(i), Size: 1}
	}
	e.ScalarLoadGroup(spans[:b.nb])
	var v uint32
	for j := 0; j < b.nb; j++ {
		e.Scalar(2) // shift + add
		v = v<<8 + uint32(b.slices[j][i])
	}
	e.Scalar(1) // remove padding
	return v >> b.pad
}

// SliceByte exposes byte j of code i for the §6 extensions (partitioning,
// sorting, searching operate directly on byte slices) and for bsinspect.
//
//bsvet:hotloop
func (b *ByteSlice) SliceByte(j, i int) byte { return b.slices[j][i] }

// NumSlices returns ⌈k/8⌉.
//
//bsvet:hotloop
func (b *ByteSlice) NumSlices() int { return b.nb }

// SliceAddr returns the simulated base address of slice j.
func (b *ByteSlice) SliceAddr(j int) uint64 { return b.addrs[j] }

// Slice returns the backing bytes of slice j (padded to whole segments).
// The returned slice must not be modified.
//
//bsvet:hotloop
func (b *ByteSlice) Slice(j int) []byte { return b.slices[j] }
