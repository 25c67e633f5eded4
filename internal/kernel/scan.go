package kernel

import (
	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// The single-column ByteSlice scan. One entry point, Scan, covers the four
// shapes the facade runs — plain, zone-map-pruned, pipelined (gated by a
// previous result) and pipelined with zone maps — choosing the range loop
// once, when the scanner is prepared.
//
// A zone map (internal/core/zonemap.go) keeps the per-segment min/max of
// the first byte slice; when that pair already decides the predicate —
// every first byte below the constant's, say — the segment's 32 result
// bits are written without loading a single data byte. This is strictly
// stronger than early stopping, which still pays for the first slice: on
// sorted or clustered columns nearly every segment resolves from two
// metadata bytes, and the scan degenerates to a walk over the zone arrays
// (64 bytes of metadata per 2048 codes — one cache line per 64 segments).
//
// Every range loop takes a nil-able *obs.DepthCounts: with a Stage
// attached each worker batch accumulates a local early-stop depth
// histogram (one plain increment per 32-code segment; zone-resolved
// segments count as depth 0) and flushes it into the shared Stage with a
// handful of atomic adds. Byte accounting follows the layout: 32 column
// bytes per byte slice examined, 2 zone-metadata bytes per zone-consulted
// segment, and 4 gate-mask bytes per segment a pipelined scan inspects.
//
// A pipelined scan pays per survivor: it walks the gate a 64-bit word at
// a time, settles a dead word with one store, and runs the same loop as
// the plain scan over each run of live words.

// zoneMetaBytes is the zone-map metadata cost per consulted segment: one
// min and one max byte.
const zoneMetaBytes = 2

// gateMaskBytes is the previous-result word a pipelined scan reads per
// segment.
const gateMaskBytes = 4

// zoneInfo snapshots a column's zone arrays and the original (not
// strict-rewritten) predicate's operator and first constant bytes for the
// per-segment decision test, so zone verdicts match the modelled engine's.
type zoneInfo struct {
	mn, mx []byte
	op     layout.Op
	kind   int // zoneKind(op), the AVX2 walk's decision shape
	c1, c2 byte
	ok     bool
}

func zoneFor(b *core.ByteSlice, p layout.Predicate) zoneInfo {
	mn, mx := b.ZoneBounds()
	if mn == nil {
		return zoneInfo{}
	}
	c1, c2 := b.ZoneFirstBytes(p)
	return zoneInfo{mn: mn, mx: mx, op: p.Op, kind: zoneKind(p.Op), c1: c1, c2: c2, ok: true}
}

// Scan evaluates p over the whole column into out, which must have length
// b.Len() and is overwritten. Zone maps are used whenever the column has
// them. A non-nil prev gates the scan (column-first Algorithm 2): with
// negate=false the output is prev AND p, and 64-row words with no live
// prev row are skipped without touching the data; with negate=true the
// scan considers the rows prev leaves unset and outputs prev OR p. It returns
// the number of segments decided without loading data: by the zone map,
// or all of them for a domain-edge predicate (see strict).
func Scan(x Exec, b *core.ByteSlice, p layout.Predicate, prev *bitvec.Vector, negate bool, out *bitvec.Vector) (int, error) {
	if out.Len() != b.Len() {
		panic("kernel: result vector length mismatch")
	}
	if prev != nil && prev.Len() != b.Len() {
		panic("kernel: pipelined scan with mismatched previous result length")
	}
	sc := prepare(b, p)
	sc.prev, sc.negate = prev, negate && prev != nil
	var meta int64
	if sc.zone.ok {
		meta += zoneMetaBytes
	}
	if prev != nil {
		meta += gateMaskBytes
	}
	st := x.Stage
	tot, err := parallelRanges(x, b.Segments(), core.SegmentSize, func(lo, hi int) scanPartial {
		var part scanPartial
		if st == nil {
			part.pruned, _ = sc.run(lo, hi, out, nil)
		} else {
			part.pruned, part.masked = sc.run(lo, hi, out, &part.dh)
		}
		return part
	}, addScan)
	if err != nil {
		return 0, err
	}
	if st != nil {
		// The batches' counts merged locally: the stage's shared counters
		// take one round of atomic adds per scan.
		st.AddDepths(&tot.dh)
		if tot.masked > 0 {
			st.AddMaskSkipped(int64(tot.masked))
		}
		if meta > 0 {
			st.AddBytes(int64(b.Segments()) * meta)
		}
	}
	return tot.pruned, nil
}

// scanPartial carries a range's zone-resolved and gate-skipped segment
// counts and, with a stage attached, its early-stop depths through the
// merge.
type scanPartial struct {
	pruned, masked int
	dh             obs.DepthCounts
}

func addScan(a, b scanPartial) scanPartial {
	a.pruned += b.pruned
	a.masked += b.masked
	for i := range a.dh {
		a.dh[i] += b.dh[i]
	}
	return a
}

// run evaluates segments [segLo, segHi) with the range loop the prepared
// options select, returning the zone-resolved and gate-skipped segment
// counts. A fixed verdict runs through gatedRange, which writes it
// without loading data; a gated scan runs the plain loops over its live
// words only.
func (sc *scanner) run(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) (pruned, masked int) {
	switch {
	case sc.prev != nil || sc.fixed != 0:
		return sc.gatedRange(segLo, segHi, out, dh)
	case sc.zone.ok:
		return sc.zonedRange(segLo, segHi, out, dh), 0
	}
	sc.scanRange(segLo, segHi, out, dh)
	return 0, 0
}

// zonedRange is the zone-map-pruned scan loop over segments
// [segLo, segHi); it returns the number of segments the zone map decided.
// With AVX2 the whole segments run through the AVX2 zone walk, which needs
// zone arrays of at least one 32-segment chunk, and the loop below takes
// only what it leaves.
//
//bsvet:hotloop
func (sc *scanner) zonedRange(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) int {
	pruned := 0
	if useAVX2 && len(sc.zone.mn) >= 32 {
		pruned, segLo = sc.zonedRangeAVX2(segLo, segHi, out, dh)
	}
	// Hoisting the zone arrays and constants lets ZoneDecisionBytes inline
	// into the loop: the decided case is then two byte loads and a couple of
	// compares per segment, with no call.
	mn, mx := sc.zone.mn, sc.zone.mx
	op, c1, c2 := sc.zone.op, sc.zone.c1, sc.zone.c2
	for seg := segLo; seg < segHi; seg++ {
		off := seg * core.SegmentSize
		switch core.ZoneDecisionBytes(op, mn[seg], mx[seg], c1, c2) {
		case 1:
			out.SetWord32(off, ^uint32(0))
			pruned++
		case -1:
			out.SetWord32(off, 0)
			pruned++
		default:
			r, d := sc.segmentDepth(seg)
			out.SetWord32(off, r)
			if dh != nil {
				dh[d]++
			}
		}
	}
	if dh != nil {
		dh[0] += int64(pruned)
	}
	return pruned
}

// gatedRange is the pipelined scan loop over segments [segLo, segHi),
// which start on a 64-row word (parallelRanges partitions evenly). It
// walks the previous result one word at a time. A dead word — no row live
// under the gate — keeps prev's word without touching the data (0 for a
// conjunction, all ones for the disjunctive form). A maximal run of live
// words goes through the loop the column's plain scan runs (scanRange, or
// zonedRange when zoned), and the gate is folded into the run word-wise
// afterwards: AND for a conjunction, OR for a disjunction, which also
// settles a dead half of a live word whatever the plain loop wrote there.
// A fixed verdict runs through fixedRange. It returns the zone-resolved
// and gate-skipped segment counts.
//
//bsvet:hotloop
func (sc *scanner) gatedRange(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) (pruned, masked int) {
	if sc.fixed != 0 {
		return sc.fixedRange(segLo, segHi, out, dh)
	}
	pw, ow := sc.prev.Words(), out.Words()
	ow = ow[:len(pw)]
	dead, lastDead := sc.deadWords()
	last := len(pw) - 1
	w, end := segLo/2, min((segHi+1)/2, len(pw))
	live := 0
	for w < end {
		if p := pw[w]; p == dead || (w == last && p == lastDead) {
			ow[w] = p
			w++
			continue
		}
		r := w + 1
		for r < end && pw[r] != dead && (r != last || pw[r] != lastDead) {
			r++
		}
		runLo, runHi := 2*w, min(2*r, segHi)
		live += runHi - runLo
		if sc.zone.ok {
			pruned += sc.zonedRange(runLo, runHi, out, dh)
		} else {
			sc.scanRange(runLo, runHi, out, dh)
		}
		if sc.negate {
			for ; w < r; w++ {
				ow[w] |= pw[w]
			}
		} else {
			for ; w < r; w++ {
				ow[w] &= pw[w]
			}
		}
	}
	return pruned, segHi - segLo - live
}

// deadWords returns the previous-result word that leaves no row live
// under the gate — 0 for a conjunction, all ones for the disjunctive
// form — and its value for the vector's last word, which holds no rows
// past the end.
//
//bsvet:hotloop
func (sc *scanner) deadWords() (dead, lastDead uint64) {
	if !sc.negate {
		return 0, 0
	}
	lastDead = ^uint64(0)
	if tail := uint(sc.n & 63); tail != 0 {
		lastDead = 1<<tail - 1
	}
	return ^uint64(0), lastDead
}

// fixedRange writes a fixed verdict over segments [segLo, segHi) without
// loading data: a word fill without a gate; with one, prev's word copied
// or cleared for a conjunction, copied or filled for a disjunction.
// Segments of a dead word count as gate-skipped, the rest as
// zone-resolved.
//
//bsvet:hotloop
func (sc *scanner) fixedRange(segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) (pruned, masked int) {
	ow := out.Words()
	fill := uint64(0)
	if sc.fixed > 0 {
		fill = ^uint64(0)
	}
	last, lastFill := len(ow)-1, fill
	if tail := uint(sc.n & 63); tail != 0 {
		lastFill &= 1<<tail - 1
	}
	var pw []uint64
	if sc.prev != nil {
		pw = sc.prev.Words()
	}
	dead, lastDead := sc.deadWords()
	for w, end := segLo/2, min((segHi+1)/2, len(ow)); w < end; w++ {
		v := fill
		if w == last {
			v = lastFill
		}
		if pw != nil {
			switch p := pw[w]; {
			case p == dead || (w == last && p == lastDead):
				masked += min(2*w+2, segHi) - 2*w
				v = p
			case sc.negate:
				v |= p
			default:
				v &= p
			}
		}
		ow[w] = v
	}
	pruned = segHi - segLo - masked
	if dh != nil {
		dh[0] += int64(pruned)
	}
	return pruned, masked
}
