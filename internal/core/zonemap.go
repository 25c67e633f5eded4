package core

import (
	"byteslice/internal/bitvec"
	"byteslice/internal/layout"
	"byteslice/internal/simd"
)

// Zone maps over ByteSlice segments: an optional per-segment (min, max) of
// the most significant byte slice — two bytes of metadata per 32 codes, a
// ~6% overhead on one slice. A zoned scan consults the pair before
// touching the segment:
//
//   - when no first byte in the zone can satisfy the predicate, the
//     segment is skipped without a single load (stronger than early
//     stopping, which still loads the first word);
//   - when every first byte already decides the predicate positively, the
//     segment completes as all-match, also without loads.
//
// On clustered or sorted data (common for date-ordered fact tables) most
// segments resolve from the zone map alone. This is an extension beyond
// the paper, in the spirit of its future-work list; it changes no result,
// only work, and is opt-in via BuildZoneMaps + ScanZoned.

// zoneMap stores per-segment min/max of the first byte slice.
type zoneMap struct {
	min, max []byte
}

// BuildZoneMaps computes the per-segment zone map. It must be called once
// before ScanZoned; building is idempotent.
func (b *ByteSlice) BuildZoneMaps() {
	if b.zones != nil {
		return
	}
	segs := b.Segments()
	z := &zoneMap{min: make([]byte, segs), max: make([]byte, segs)}
	for seg := 0; seg < segs; seg++ {
		lo, hi := seg*SegmentSize, (seg+1)*SegmentSize
		if lo >= b.n {
			// Padding-only segment: an empty zone that never matches.
			z.min[seg], z.max[seg] = 0xFF, 0x00
			continue
		}
		if hi > b.n {
			hi = b.n
		}
		mn, mx := byte(0xFF), byte(0x00)
		for _, v := range b.slices[0][lo:hi] {
			mn, mx = min(mn, v), max(mx, v)
		}
		z.min[seg], z.max[seg] = mn, mx
	}
	b.zones = z
}

// HasZoneMaps reports whether BuildZoneMaps has run.
func (b *ByteSlice) HasZoneMaps() bool { return b.zones != nil }

// ZoneDecisionBytes classifies a segment against a predicate using only
// the first-byte zone: it takes the segment's first-byte bounds [mn, mx]
// and the predicate's padded constants' first bytes c1, c2, and returns
// -1 when no row can match, +1 when every row matches, 0 when undecided.
// Classification works on the predicate's first constant byte: e.g. for
// v < c, max(byte₁) < c[1] implies every code's first byte is below the
// constant's, so every code matches; min(byte₁) > c[1] implies none does.
// The native zoned kernels in internal/kernel share the core pruning
// rules through this; it is the implementation, not a wrapper, so it
// stays within the inlining budget at their per-segment call sites.
//
//bsvet:hotloop
func ZoneDecisionBytes(op layout.Op, mn, mx, c1, c2 byte) int {
	// The shared compares keep this small enough to inline into the native
	// kernels' per-segment loops (budget 80); below/above are "every first
	// byte below/above c1".
	below, above := mx < c1, mn > c1
	if mn > mx {
		return -1 // padding-only segment
	}
	switch op {
	case layout.Lt, layout.Le:
		if below {
			return 1
		}
		if above {
			return -1
		}
	case layout.Gt, layout.Ge:
		if above {
			return 1
		}
		if below {
			return -1
		}
	case layout.Eq:
		if below || above {
			return -1
		}
	case layout.Ne:
		if below || above {
			return 1
		}
	case layout.Between:
		if above && mx < c2 {
			return 1
		}
		if below || mn > c2 {
			return -1
		}
	}
	return 0
}

// ZoneBounds exposes the zone map's per-segment min/max byte arrays for
// the native kernels in internal/kernel (nil, nil when no zone map is
// built). The returned slices must not be modified.
func (b *ByteSlice) ZoneBounds() (mn, mx []byte) {
	if b.zones == nil {
		return nil, nil
	}
	return b.zones.min, b.zones.max
}

// ZoneFirstBytes returns the first (most significant) bytes of p's padded
// constants — the bytes zone decisions compare against.
func (b *ByteSlice) ZoneFirstBytes(p layout.Predicate) (c1, c2 byte) {
	c1 = b.constByte(b.padConst(p.C1), 0)
	c2 = c1
	if p.Op == layout.Between {
		c2 = b.constByte(b.padConst(p.C2), 0)
	}
	return c1, c2
}

// pruneRateSamples bounds the work of a ZonePruneRate estimate: planning a
// query must stay far cheaper than running it, so large columns are
// strided rather than walked segment by segment.
const pruneRateSamples = 512

// ZonePruneRate estimates the fraction of segments whose zone map decides
// p outright (all-match or no-match), or 0 when no zone map is built.
// Columns of up to pruneRateSamples segments are measured exactly; larger
// ones are sampled with a fixed stride (deterministic, and accurate for
// the clustered distributions zone maps exist for). The cost-based planner
// in internal/plan uses it to estimate how much of a zoned scan is free;
// bsinspect reports it as zone-map coverage.
func (b *ByteSlice) ZonePruneRate(p layout.Predicate) float64 {
	if b.zones == nil {
		return 0
	}
	layout.CheckPredicate(p, b.k)
	c1, c2 := b.ZoneFirstBytes(p)
	segs := b.Segments()
	stride := 1
	if segs > pruneRateSamples {
		stride = segs / pruneRateSamples
	}
	decided, sampled := 0, 0
	for seg := 0; seg < segs; seg += stride {
		if ZoneDecisionBytes(p.Op, b.zones.min[seg], b.zones.max[seg], c1, c2) != 0 {
			decided++
		}
		sampled++
	}
	return float64(decided) / float64(sampled)
}

// ScanZoned is Scan with zone-map pruning; BuildZoneMaps must have run.
func (b *ByteSlice) ScanZoned(e *simd.Engine, p layout.Predicate, out *bitvec.Vector) {
	if b.zones == nil {
		panic("core: ScanZoned without BuildZoneMaps")
	}
	layout.CheckPredicate(p, b.k)
	out.Reset()
	sc := b.prepare(e, p)
	c1 := b.constByte(b.padConst(p.C1), 0)
	c2 := c1
	if p.Op == layout.Between {
		c2 = b.constByte(b.padConst(p.C2), 0)
	}
	skipSite := e.P.Pred.Site()
	ones := simd.Ones()
	for seg := 0; seg < b.Segments(); seg++ {
		e.Scalar(segmentOverhead)
		// The zone test: two byte loads (same metadata cache line for 32
		// consecutive segments) and two compares.
		e.Scalar(4)
		d := ZoneDecisionBytes(p.Op, b.zones.min[seg], b.zones.max[seg], c1, c2)
		if e.P.Branch(skipSite, d != 0) {
			if d > 0 {
				out.Append32(^uint32(0))
			} else {
				out.Append32(0)
			}
			e.Scalar(1)
			continue
		}
		res := b.scanSegment(e, sc, seg, ones, false)
		r := e.Movemask8(res)
		e.Scalar(1)
		out.Append32(r)
	}
}
