// Package plan is the cost-based planner for the native (unprofiled)
// execution path. Given per-predicate statistics — histogram selectivity
// estimates, zone-map prune rates, code widths — it chooses the physical
// shape of a multi-predicate query: the conjunct order (subsuming the
// facade's OrderBySelectivity sort), the evaluation strategy (column-first
// pipelining or independent baseline scans), and the worker-pool size.
// Predicate-first evaluation is the modelled path's alone: the native path
// has no executor for it, so Plan never returns it. The cost model is
// calibrated against the measured per-kernel throughput of the native
// kernels (BENCH_scan.json; see the constants below), not the paper's
// modelled cycle counts: the planner optimises wall clock, the profile
// engine reproduces the paper.
//
// Decisions carry an Explain rendering so tests, bsinspect and callers of
// Result.Explain can assert on what the planner chose and why.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Strategy is the physical evaluation shape of a multi-predicate query
// (§3.1.2). The facade exports it as byteslice.Strategy.
type Strategy int

// Strategies.
const (
	// Auto leaves the choice to the planner; Plan never returns it.
	Auto Strategy = iota
	// Baseline scans every predicate independently and combines bit
	// vectors; it is also the fallback when pipelining cannot apply.
	Baseline
	// ColumnFirst pipelines each predicate's condensed result into the
	// next column's scan (Algorithm 2, the paper's recommendation).
	ColumnFirst
	// PredicateFirst evaluates all predicates per 32-code segment,
	// materialising no intermediate vectors. Only the modelled path runs
	// it; Plan never returns it, and a native pin runs Baseline.
	PredicateFirst
)

// String names the strategy as Explain prints it.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case ColumnFirst:
		return "column-first"
	case PredicateFirst:
		return "predicate-first"
	case Baseline:
		return "baseline"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Pred is one conjunct's planning statistics.
type Pred struct {
	// Col is the column name, used only for Explain.
	Col string
	// Slices is the column's byte-slice count ⌈k/8⌉ (0 for a match-all
	// pseudo predicate, which costs nothing to evaluate).
	Slices int
	// Sel is the histogram estimate of the predicate's selectivity in
	// [0, 1].
	Sel float64
	// ZonePrune is the estimated fraction of segments the column's zone
	// map decides outright for this predicate (0 without a zone map).
	ZonePrune float64
	// HasZoneMap reports whether the column carries a zone map at all.
	HasZoneMap bool
	// Compressed marks a column stored in the compressed ByteSlice layout
	// (internal/compress); its scans decode 512-code blocks on the fly.
	Compressed bool
	// CompBytesPerRow is the compressed column's bytes moved per row
	// (control + data streams).
	CompBytesPerRow float64
	// BlockPrune is the estimated fraction of 512-code blocks the exact
	// block bounds decide outright.
	BlockPrune float64
	// Uniform1 is the fraction of blocks on the no-decode direct-compare
	// path (frame of reference, all values one byte).
	Uniform1 float64
}

// Query describes the whole conjunction or disjunction being planned.
type Query struct {
	// Rows and Segments size the table.
	Rows, Segments int
	// Disjunct is true for OR queries.
	Disjunct bool
	// AsWritten pins the evaluation order to the order of the Plan call's
	// predicates (OrderAsWritten): Plan costs that order instead of its
	// own selectivity sort.
	AsWritten bool
	// Workers pins the worker count when > 0 (WithParallelism); 0 lets the
	// planner size the pool.
	Workers int
	// MaxWorkers bounds the auto-sized pool (runtime.NumCPU at the call
	// site).
	MaxWorkers int
}

// Cost-model constants, in nanoseconds, calibrated from BENCH_scan.json on
// the development machine (1M-row serial native scans: 5.6 ns/segment at
// one byte slice, ~2.8 ns per additional slice amortised over early
// stopping on uniform data). Absolute accuracy is unnecessary — only the
// ratios steer the choices — but keeping real units makes Explain legible.
// nsGate comes from bsbench's multi_clustered row (4Mi rows, serial): the
// row minus its zoned leading scan and the plain-scan cost of the 10% live
// segments, split over the two pipelined scans, is 1.44 ns per segment on
// a host whose plain k=12 scan runs 12.9 ns per segment — 0.6 ns at
// nsSegFirst's scale.
const (
	nsSegFirst    = 5.6  // first byte slice of a monolithic scan, per segment
	nsSegSlice    = 2.8  // each additional byte slice, amortised
	nsSegDispatch = 4.0  // per-segment dispatch penalty of the generic kernels
	nsZoneTest    = 0.6  // zone-map min/max test, per segment
	nsGate        = 0.6  // pipelined gate walk (dead words, fold), per segment
	nsCombine     = 0.3  // bit-vector AND/OR word ops, per segment per pass
	nsWorkerSpawn = 8000 // goroutine spawn/join, per worker

	// Bytes-moved model for compressed columns. A memory-bandwidth-bound
	// scan's floor is the bytes it streams: nsPerByte prices one column
	// byte at the measured DRAM bandwidth (~9 GB/s effective per core on
	// the calibration machine), and nsSegDecode prices unpacking one
	// 32-code segment from the control-byte walk into the SWAR scratch
	// planes.
	nsPerByte   = 0.11
	nsSegDecode = 7.0
	// blockSegments is the 512-code compressed block in segments.
	blockSegments = 16
)

// Decision is the planner's output.
type Decision struct {
	Strategy Strategy
	// Order is the chosen permutation of the input predicates (indices
	// into the Plan call's preds slice).
	Order []int
	// Workers is the chosen worker-pool size (the pinned count when the
	// query pinned one).
	Workers int
	// Cost is the estimated serial cost in ns of the chosen strategy;
	// CostColumnFirst/CostBaseline record the candidates.
	Cost            float64
	CostColumnFirst float64
	CostBaseline    float64

	q     Query
	preds []Pred   // in chosen order
	pin   Strategy // the caller's pin (Auto when the planner chose)
}

// Pin records a caller's strategy pin. ran is the strategy that executes:
// the pin itself, or the baseline a pinned predicate-first falls back to
// on the native path. Strategy and Cost become ran's, so Explain and the
// statistics name what ran rather than the planner's pick.
func (d *Decision) Pin(pin, ran Strategy) {
	d.pin, d.Strategy = pin, ran
	switch ran {
	case ColumnFirst:
		d.Cost = d.CostColumnFirst
	case Baseline:
		d.Cost = d.CostBaseline
	}
}

// rawSegScanCost is the raw monolithic per-segment scan formula for a
// column of the given byte-slice count.
func rawSegScanCost(slices int) float64 {
	return nsSegFirst + nsSegSlice*float64(slices-1)
}

// segScanCost is the per-segment cost of scanning one predicate with the
// monolithic single-column kernel.
func segScanCost(p Pred) float64 {
	if p.Slices == 0 {
		return 0 // match-all pseudo predicate: no scan at all
	}
	if p.Compressed {
		return compressedSegCost(p)
	}
	return rawSegScanCost(p.Slices)
}

// compressedSegCost is the per-segment cost of the fused decode→compare
// scan over a compressed column: the amortised exact-bounds test per
// block, and for undecided blocks either the direct one-byte SWAR compare
// (uniform blocks, no decode) or the control-byte decode into scratch
// planes plus the raw compare body — in both cases paying the bytes-moved
// bandwidth term for the compressed streams instead of the raw slices.
func compressedSegCost(p Pred) float64 {
	if p.Slices == 0 {
		return 0
	}
	decode := p.Uniform1*(nsSegFirst+nsSegDispatch) +
		(1-p.Uniform1)*(nsSegDecode+rawSegScanCost(p.Slices)+nsSegDispatch) +
		nsPerByte*p.CompBytesPerRow*32
	return nsZoneTest/blockSegments + (1-p.BlockPrune)*decode
}

// CompressedWins is the build-time compression decision: true when the
// compressed fused scan prices below the raw monolithic scan with its
// bytes-moved floor. internal/compress consults it per column.
func CompressedWins(slices int, compBytesPerRow, blockPrune, uniform1 float64) bool {
	if slices <= 0 {
		return false
	}
	comp := compressedSegCost(Pred{
		Slices:          slices,
		Compressed:      true,
		CompBytesPerRow: compBytesPerRow,
		BlockPrune:      blockPrune,
		Uniform1:        uniform1,
	})
	raw := rawSegScanCost(slices) + nsPerByte*float64(slices)*32
	return comp < raw
}

// Delta-merge constants (the write path's sibling of the layout choice,
// after Krueger et al.'s merge cost model, cited in the paper's §2): a
// merge rewrites every row of base plus delta once, and each query pays a
// per-row penalty for every row still unmerged.
const (
	// nsDeltaRow is that per-row penalty. The delta scans with the same
	// SWAR kernels as the base, so this is not a measured scan cost: it is
	// the value that holds the merge cadence the ingest benchmark measures.
	nsDeltaRow = 15.0
	nsMergeRow = 60.0 // materialise + rebuild during a merge, per row
	// mergeAmortQueries is the number of scans a merge is amortised over:
	// the advisory assumes roughly this many queries arrive before the
	// next merge would be due anyway.
	mergeAmortQueries = 16
	// minMergeDelta keeps tiny deltas unmerged — below this the fixed
	// costs of an epoch switch (snapshot write, WAL rotation) dominate
	// any scan saving.
	minMergeDelta = 1024
)

// ShouldMerge is the cost-based merge advisory: true when the per-row
// penalty of keeping deltaRows unmerged, accumulated over the queries
// expected before the next merge, exceeds the one-time cost of rewriting
// base plus delta into a fresh read-optimised epoch.
// The ingest facade consults it after each append to trigger its
// background merger; callers with their own cadence can ignore it.
func ShouldMerge(baseRows, deltaRows int) bool {
	if deltaRows < minMergeDelta {
		return false
	}
	penalty := mergeAmortQueries * float64(deltaRows) * (nsDeltaRow - nsSegFirst/32)
	rebuild := float64(baseRows+deltaRows) * nsMergeRow
	return penalty > rebuild
}

// perSegCost is the per-segment cost of one predicate priced as a
// per-segment dispatched scan, with the zone map resolving its share of
// segments for free: a zone-mapped predicate scanned alone (fullScanCost)
// and a later disjunct of a column-first disjunction. Compressed columns
// always run their own block-gated kernel, whose cost already amortises
// the bounds test.
func perSegCost(p Pred) float64 {
	if p.Slices == 0 {
		return 0
	}
	if p.Compressed {
		return compressedSegCost(p)
	}
	c := rawSegScanCost(p.Slices) + nsSegDispatch
	if p.HasZoneMap {
		return nsZoneTest + (1-p.ZonePrune)*c
	}
	return c
}

// fullScanCost is the per-segment cost of predicate p scanned alone:
// monolithic when unzoned, zone-gated generic when zoned.
func fullScanCost(p Pred) float64 {
	if p.HasZoneMap {
		return perSegCost(p)
	}
	return segScanCost(p)
}

// liveSegProb is the probability that a 32-code segment still needs work
// after predicates with combined match fraction `matched` (conjunction:
// fraction still live; disjunction: fraction still unmatched) have run,
// assuming row independence.
func liveSegProb(frac float64) float64 {
	// 1 - (1-frac)^32: the segment is skippable only when all 32 rows are
	// settled.
	return 1 - math.Pow(1-frac, 32)
}

// Plan chooses order, strategy and workers for the query.
func Plan(q Query, preds []Pred) Decision {
	d := Decision{q: q}
	d.Order = order(q, preds)
	d.preds = make([]Pred, len(preds))
	for i, idx := range d.Order {
		d.preds[i] = preds[idx]
	}

	S := float64(q.Segments)
	d.CostColumnFirst = S * columnFirstCost(q, d.preds)
	d.CostBaseline = S * baselineCost(d.preds)

	d.Strategy, d.Cost = ColumnFirst, d.CostColumnFirst
	if d.CostBaseline < d.Cost {
		d.Strategy, d.Cost = Baseline, d.CostBaseline
	}
	if len(preds) == 1 {
		// A single predicate has one physical shape; call it column-first
		// so the facade's dispatch stays on the plain scan.
		d.Strategy, d.Cost = ColumnFirst, d.CostColumnFirst
	}

	d.Workers = chooseWorkers(q, d.Cost)
	return d
}

// order returns the evaluation order: the input order when the query
// pins it (AsWritten), else ascending selectivity for conjunctions (most
// selective predicate settles the most rows first), descending for
// disjunctions, with zone-map prune rate breaking ties — a zone-pruned
// predicate is nearly free to evaluate, so among equally selective
// conjuncts the pruned one should lead.
func order(q Query, preds []Pred) []int {
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	if q.AsWritten {
		return idx
	}
	const eps = 0.02
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := preds[idx[a]].Sel, preds[idx[b]].Sel
		if math.Abs(sa-sb) <= eps {
			return preds[idx[a]].ZonePrune > preds[idx[b]].ZonePrune
		}
		if q.Disjunct {
			return sa > sb
		}
		return sa < sb
	})
	return idx
}

// columnFirstCost estimates the per-segment cost of the column-first
// pipeline over the ordered predicates. A pipelined conjunct runs the
// column's plain scan loop over the live words of its gate, so it costs
// its full-scan rate on the live fraction of segments. Behind a
// zone-mapped conjunct that fraction is at most (1 − ZonePrune) + Sel: a
// zone-decided segment is all-false or all-true, and all-true segments
// hold at most Sel of the rows. Otherwise it is the row-independence
// liveSegProb. Disjunctions keep the generic per-segment price.
func columnFirstCost(q Query, preds []Pred) float64 {
	if len(preds) == 0 {
		return 0
	}
	cost := fullScanCost(preds[0])
	frac := settledFrac(q, 0, preds[0].Sel)
	bound := zoneLiveBound(preds[0])
	for _, p := range preds[1:] {
		live := liveSegProb(frac)
		if q.Disjunct {
			cost += nsGate + live*perSegCost(p)
		} else {
			cost += nsGate + math.Min(live, bound)*fullScanCost(p)
			bound = math.Min(bound, zoneLiveBound(p))
		}
		frac = settledFrac(q, frac, p.Sel)
	}
	return cost
}

// zoneLiveBound bounds the fraction of segments a conjunct leaves live:
// (1 − ZonePrune) + Sel behind a zone map, 1 without one.
func zoneLiveBound(p Pred) float64 {
	if !p.HasZoneMap {
		return 1
	}
	return math.Min(1, 1-p.ZonePrune+p.Sel)
}

// settledFrac folds predicate selectivity s into the running fraction of
// rows still requiring work: the live fraction of a conjunction, the
// unmatched fraction of a disjunction.
func settledFrac(q Query, acc, s float64) float64 {
	if acc == 0 {
		acc = 1
	}
	if q.Disjunct {
		return acc * (1 - s)
	}
	return acc * s
}

// baselineCost estimates the per-segment cost of independent scans plus
// the bit-vector combines.
func baselineCost(preds []Pred) float64 {
	var cost float64
	for _, p := range preds {
		cost += fullScanCost(p)
	}
	cost += nsCombine * float64(len(preds)-1)
	return cost
}

// chooseWorkers sizes the worker pool: the pinned count when one was
// given, otherwise the w minimising cost/w + spawn·w (i.e. √(cost/spawn)),
// clamped to the CPU count and to at least 64 segments per worker so tiny
// scans stay serial.
func chooseWorkers(q Query, cost float64) int {
	if q.Workers > 0 {
		return q.Workers
	}
	w := int(math.Sqrt(cost / nsWorkerSpawn))
	if max := q.MaxWorkers; w > max {
		w = max
	}
	if max := q.Segments / 64; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ms renders a ns cost for Explain.
func ms(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}

// Explain renders the decision for humans and golden tests. The output is
// deterministic given the same Query and predicates.
func (d Decision) Explain() string {
	var b strings.Builder
	kind := "conjunction"
	if d.q.Disjunct {
		kind = "disjunction"
	}
	fmt.Fprintf(&b, "plan: %d predicate(s) over %d rows (%d segments), %s\n",
		len(d.preds), d.q.Rows, d.q.Segments, kind)
	b.WriteString("  order:")
	for i, p := range d.preds {
		if i > 0 {
			b.WriteString(" →")
		}
		fmt.Fprintf(&b, " %s(sel=%.3f", p.Col, p.Sel)
		if p.HasZoneMap {
			fmt.Fprintf(&b, ", zone=%.2f", p.ZonePrune)
		}
		if p.Compressed {
			fmt.Fprintf(&b, ", compressed %.2fB/row", p.CompBytesPerRow)
		}
		b.WriteString(")")
	}
	b.WriteString("\n")
	how := ""
	switch d.pin {
	case Auto:
	case d.Strategy:
		how = " (pinned)"
	default:
		how = fmt.Sprintf(" (pinned %s, falls back)", d.pin)
	}
	fmt.Fprintf(&b, "  strategy: %s%s (est %s; column-first %s, baseline %s)\n",
		d.Strategy, how, ms(d.Cost), ms(d.CostColumnFirst), ms(d.CostBaseline))
	pin := "auto"
	if d.q.Workers > 0 {
		pin = "pinned"
	}
	fmt.Fprintf(&b, "  workers: %d (%s)", d.Workers, pin)
	return b.String()
}
