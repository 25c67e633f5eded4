package kernel

import (
	"math/bits"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// The AVX2 range loops. On amd64 hosts whose CPU and operating system
// support AVX2, the plain and zoned scans run hand-written assembly
// (avx2_amd64.s) instead of the SWAR loops: one 32-byte load holds byte j
// of a whole segment's 32 codes, so the first-slice compare is one
// instruction per segment, as in the paper's Algorithm 1, and every
// segment's 32 result bits are stored straight into the bit vector.
//
// A scan runs one zone window (256 segments) at a time, and each window
// narrows the segments it loads through one chain of bitmaps, one bit per
// segment. On a zoned column the zone walk decides 32 segments per
// compare, stores each decided segment as an all-zeros or all-ones word
// and marks the undecided ones; a plain scan, or a pipelined scan's live
// run, starts from all of its segments. The decide pass then loads the
// first byte slice of those segments only, stores their first-slice bits
// and marks the segments where some lane ties the constant's first byte,
// without a branch on the data. The resolve pass loads the deeper slices
// of the marked segments only, while any lane is still tied, so the
// byte-level early stop and the per-segment depth counts hold. A
// one-slice column runs the decide pass alone.
//
// The SWAR loops stay the portable path: other architectures and hosts
// without AVX2 run them, and they are the oracle the AVX2 loops are tested
// against, for results and for every statistic a scan records. The
// assembly covers whole segments only; the column's partial last segment
// (and any padding segment after it) goes through the SWAR loops, which
// truncate at the vector's length.

// Features is what the start-up CPU probe found.
type Features struct {
	// Model is the CPU's brand string, "" where the probe cannot read one.
	Model string
	// AVX2 and AVX512F report instruction sets that both the CPU and the
	// operating system support.
	AVX2, AVX512F bool
}

// cpu is the start-up probe's finding (probe is per architecture).
var cpu = probe()

// useAVX2 selects the AVX2 range loops, the scans' and the aggregates'
// (aggregate.go). It is set once at start-up from the probe; tests switch
// it off to run the SWAR oracle on the same host.
var useAVX2 = cpu.AVX2

// The registry reports the start-up path in /stats and expvar.
func init() { obs.KernelPath = Path() }

// CPU returns what the start-up probe found.
func CPU() Features { return cpu }

// Path names the range loops the scans and aggregates run: "avx2" or
// "swar".
func Path() string {
	if useAVX2 {
		return "avx2"
	}
	return "swar"
}

// zoneWindowWords is the number of 32-segment chunks one window covers,
// so a window's undecided or tied segments fit one
// [zoneWindowWords]uint32.
const (
	zoneWindowWords = 8
	zoneWindow      = zoneWindowWords * 32
)

// The zone walk's decision shapes: the groups of operators
// core.ZoneDecisionBytes decides alike.
const (
	zoneBelow   = iota // Lt, Le: all match below the constant, none above
	zoneAbove          // Gt, Ge: all match above, none below
	zoneEq             // none match below or above
	zoneNe             // all match below or above
	zoneBetween        // all match strictly inside, none outside
)

// zoneKind maps an operator to its zone-walk shape.
func zoneKind(op layout.Op) int {
	switch op {
	case layout.Lt, layout.Le:
		return zoneBelow
	case layout.Gt, layout.Ge:
		return zoneAbove
	case layout.Eq:
		return zoneEq
	case layout.Ne:
		return zoneNe
	}
	return zoneBetween
}

// scanRangeAVX2 runs the AVX2 passes over the whole segments of
// [segLo, segHi), one window at a time, and returns the first segment it
// left to the SWAR loops.
//
//bsvet:hotloop
func (sc *scanner) scanRangeAVX2(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) int {
	full := min(segHi, sc.n/core.SegmentSize)
	if segLo >= full {
		return segLo
	}
	words := out.Words()
	var deep obs.DepthCounts
	for lo := segLo; lo < full; lo += zoneWindow {
		sc.bodyAVX2(lo, min(lo+zoneWindow, full), nil, words, &deep)
	}
	if dh != nil {
		addDeep(dh, &deep, full-segLo)
	}
	return full
}

// zonedRangeAVX2 runs the AVX2 zone walk and passes over the whole
// segments of [segLo, segHi), one window at a time. It returns the
// segments the zone maps decided and the first segment it left to the
// SWAR loop.
//
//bsvet:hotloop
func (sc *scanner) zonedRangeAVX2(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) (pruned, next int) {
	full := min(segHi, sc.n/core.SegmentSize)
	if segLo >= full {
		return 0, segLo
	}
	words := out.Words()
	var deep obs.DepthCounts
	var und [zoneWindowWords]uint32
	for lo := segLo; lo < full; lo += zoneWindow {
		hi := min(lo+zoneWindow, full)
		zoneAVX2(&sc.zone, lo, hi, words, &und)
		live := 0
		for _, u := range &und {
			live += bits.OnesCount32(u)
		}
		pruned += hi - lo - live
		if live > 0 {
			sc.bodyAVX2(lo, hi, &und, words, &deep)
		}
	}
	if dh != nil {
		addDeep(dh, &deep, full-segLo-pruned)
	}
	return pruned, full
}

// bodyAVX2 runs the operator's two AVX2 passes over one window
// [segLo, segHi) of at most zoneWindow segments: every segment when und is
// nil, else the segments und's bits name (bit i of und[w] is segment
// segLo+32w+i). The decide pass marks the tied segments in tie, and the
// resolve pass, on columns with deeper slices, walks those; deep counts
// the segments it resolved, by depth.
//
//bsvet:hotloop
func (sc *scanner) bodyAVX2(segLo, segHi int, und *[zoneWindowWords]uint32, words []uint64, deep *obs.DepthCounts) {
	var tie [zoneWindowWords]uint32
	resolve := sc.nb > 1
	switch sc.p.Op {
	case layout.Eq, layout.Ne:
		ne := uint32(0)
		if sc.p.Op == layout.Ne {
			ne = ^uint32(0)
		}
		eqFirstAVX2(sc, segLo, segHi, und, words, &tie, ne)
		if resolve {
			eqAVX2(sc, ne, segLo, segHi, &tie, words, deep)
		}
	case layout.Lt, layout.Gt:
		flip := uint32(0x80)
		if sc.p.Op == layout.Gt {
			flip = 0x7F
		}
		cmpFirstAVX2(sc, segLo, segHi, und, words, &tie, flip)
		if resolve {
			cmpAVX2(sc, flip, segLo, segHi, &tie, words, deep)
		}
	case layout.Between:
		betweenFirstAVX2(sc, segLo, segHi, und, words, &tie)
		if resolve {
			same := uint32(0)
			if sc.c1[0] == sc.c2[0] {
				same = 1
			}
			betweenAVX2(sc, same, segLo, segHi, &tie, words, deep)
		}
	default:
		panic("kernel: unknown operator")
	}
}

// addDeep folds one AVX2 run's deep-slice counts into dh: of its bodies
// evaluated segments, those not counted deeper stopped at depth 1.
//
//bsvet:hotloop
func addDeep(dh, deep *obs.DepthCounts, bodies int) {
	dh[1] += int64(bodies) - deep[2] - deep[3] - deep[4]
	dh[2] += deep[2]
	dh[3] += deep[3]
	dh[4] += deep[4]
}
