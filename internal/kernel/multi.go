package kernel

import (
	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// Native predicate-first evaluation (§3.1.2 strategy 2, on the SWAR path):
// all predicates of a conjunction or disjunction are evaluated per 32-code
// segment before moving to the next segment, short-circuiting inside the
// segment as soon as its result word is decided. Compared with the
// column-first pipeline this never materialises an intermediate bit
// vector and keeps one segment of every column hot in cache, at the cost
// of running the generic (per-segment dispatched) kernels instead of the
// monolithic single-column loops. The cost-based planner in internal/plan
// chooses between the two.
//
// Zone maps compose per predicate: a column with BuildZoneMaps run
// resolves its conjunct from the segment's first-byte bounds whenever they
// decide it, without loading the column's data.

// ScanMulti evaluates the conjunction (disjunct=false) or disjunction
// (disjunct=true) of preds over the whole column set into out. All columns
// must have the same length. It returns the number of per-predicate
// segment evaluations the zone maps resolved. Stage segment and depth
// counts are per predicate evaluation too: a conjunction over k columns
// contributes up to k entries per 32-code segment.
func ScanMulti(x Exec, cols []*core.ByteSlice, preds []layout.Predicate, disjunct bool, out *bitvec.Vector) (int, error) {
	if len(cols) == 0 || len(cols) != len(preds) {
		panic("kernel: ScanMulti needs matching columns and predicates")
	}
	if out.Len() != cols[0].Len() {
		panic("kernel: result vector length mismatch")
	}
	scs := make([]scanner, len(cols))
	for i, b := range cols {
		if b.Len() != cols[0].Len() {
			panic("kernel: ScanMulti columns have different lengths")
		}
		scs[i] = prepare(b, preds[i])
	}
	st := x.Stage
	return parallelRanges(x, cols[0].Segments(), func(lo, hi int) int {
		if st == nil {
			return scanMultiRange(scs, disjunct, lo, hi, out, nil)
		}
		var dh obs.DepthCounts
		pruned := scanMultiRange(scs, disjunct, lo, hi, out, &dh)
		st.AddDepths(&dh)
		return pruned
	}, addInt)
}

// scanMultiRange is the predicate-first loop over segments [segLo, segHi);
// dh, when non-nil, accumulates per-predicate-evaluation depths
// (zone-resolved conjuncts count as depth 0).
func scanMultiRange(scs []scanner, disjunct bool, segLo, segHi int, out *bitvec.Vector, dh *obs.DepthCounts) int {
	pruned := 0
	for seg := segLo; seg < segHi; seg++ {
		off := seg * core.SegmentSize
		var m uint32
		if !disjunct {
			m = ^uint32(0)
		}
		for i := range scs {
			sc := &scs[i]
			d := sc.decide(seg)
			if d != 0 {
				pruned++
			}
			if disjunct {
				// d > 0: every row matches, the segment is all-ones.
				// d < 0: the conjunct contributes nothing.
				if d > 0 {
					m = ^uint32(0)
					break
				}
				if d < 0 {
					continue
				}
				r, dep := sc.segmentDepth(seg)
				if dh != nil {
					dh[dep]++
				}
				m |= r
				if m == ^uint32(0) {
					break
				}
			} else {
				if d > 0 {
					continue
				}
				if d < 0 {
					m = 0
					break
				}
				r, dep := sc.segmentDepth(seg)
				if dh != nil {
					dh[dep]++
				}
				m &= r
				if m == 0 {
					break
				}
			}
		}
		out.SetWord32(off, m)
	}
	if dh != nil {
		dh[0] += int64(pruned)
	}
	return pruned
}
