package plan

import (
	"math"
	"strings"
	"testing"
)

func q(segments int) Query {
	return Query{Rows: segments * 32, Segments: segments, MaxWorkers: 8}
}

func TestOrderBySelectivity(t *testing.T) {
	preds := []Pred{
		{Col: "a", Slices: 2, Sel: 0.5},
		{Col: "b", Slices: 2, Sel: 0.01},
		{Col: "c", Slices: 2, Sel: 0.9},
	}
	d := Plan(q(1024), preds)
	if got := []int{d.Order[0], d.Order[1], d.Order[2]}; got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("conjunction order = %v, want most selective first [1 0 2]", d.Order)
	}

	dis := q(1024)
	dis.Disjunct = true
	d = Plan(dis, preds)
	if d.Order[0] != 2 || d.Order[2] != 1 {
		t.Fatalf("disjunction order = %v, want least selective first [2 0 1]", d.Order)
	}

	// OrderAsWritten pins the input order, which Plan then costs and
	// prints.
	pinned := q(1024)
	pinned.AsWritten = true
	d = Plan(pinned, preds)
	if d.Order[0] != 0 || d.Order[1] != 1 || d.Order[2] != 2 {
		t.Fatalf("as-written order = %v, want [0 1 2]", d.Order)
	}
	if want := 1024 * columnFirstCost(pinned, preds); d.CostColumnFirst != want {
		t.Fatalf("column-first cost %v, want the as-written order's %v", d.CostColumnFirst, want)
	}
	if !strings.Contains(d.Explain(), "order: a(sel=0.500) → b(sel=0.010) → c(sel=0.900)") {
		t.Fatalf("Explain should print the as-written order:\n%s", d.Explain())
	}
}

func TestOrderTieBrokenByZonePrune(t *testing.T) {
	preds := []Pred{
		{Col: "plain", Slices: 2, Sel: 0.10},
		{Col: "zoned", Slices: 2, Sel: 0.11, HasZoneMap: true, ZonePrune: 0.95},
	}
	d := Plan(q(1024), preds)
	if d.Order[0] != 1 {
		t.Fatalf("order = %v: equal selectivities should prefer the zone-pruned column", d.Order)
	}
}

func TestSinglePredicateIsColumnFirst(t *testing.T) {
	d := Plan(q(1024), []Pred{{Col: "a", Slices: 2, Sel: 0.5}})
	if d.Strategy != ColumnFirst {
		t.Fatalf("single predicate chose %v", d.Strategy)
	}
	if math.IsNaN(d.Cost) || d.Cost <= 0 {
		t.Fatalf("cost = %v", d.Cost)
	}
}

// TestPlanNeverChoosesPredicateFirst sweeps query shapes — selective and
// unselective leading predicates, narrow and wide columns, zone-mapped or
// not, both polarities — and checks that the planner only ever picks one of the two
// native executors, and that Explain prices only those two.
func TestPlanNeverChoosesPredicateFirst(t *testing.T) {
	for _, disjunct := range []bool{false, true} {
		for _, sel := range []float64{0.001, 0.05, 0.5, 0.99} {
			for _, slices := range []int{1, 2, 4} {
				for _, zone := range []float64{0, 0.9} {
					qq := q(4096)
					qq.Disjunct = disjunct
					d := Plan(qq, []Pred{
						{Col: "a", Slices: slices, Sel: sel, HasZoneMap: zone > 0, ZonePrune: zone},
						{Col: "b", Slices: 1, Sel: 0.5},
						{Col: "c", Slices: 4, Sel: 1 - sel},
					})
					if d.Strategy != ColumnFirst && d.Strategy != Baseline {
						t.Fatalf("disjunct=%v sel=%v slices=%d zone=%v: chose %v", disjunct, sel, slices, zone, d.Strategy)
					}
					if strings.Contains(d.Explain(), "predicate-first") {
						t.Fatalf("Explain prices predicate-first:\n%s", d.Explain())
					}
				}
			}
		}
	}
}

func TestSelectiveDriverFavoursPipelining(t *testing.T) {
	// A 0.1% driver predicate settles nearly every segment; the pipeline
	// should beat independent baseline scans over wide trailing columns.
	preds := []Pred{
		{Col: "sel", Slices: 1, Sel: 0.001},
		{Col: "wide1", Slices: 4, Sel: 0.9},
		{Col: "wide2", Slices: 4, Sel: 0.9},
	}
	d := Plan(q(32768), preds)
	if d.CostColumnFirst >= d.CostBaseline {
		t.Fatalf("column-first %v should beat baseline %v with a highly selective driver",
			d.CostColumnFirst, d.CostBaseline)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		Auto: "auto", Baseline: "baseline", ColumnFirst: "column-first",
		PredicateFirst: "predicate-first", Strategy(9): "Strategy(9)",
	} {
		if s.String() != want {
			t.Fatalf("String = %q, want %q", s.String(), want)
		}
	}
}

func TestZonePruneCutsCost(t *testing.T) {
	unzoned := Plan(q(4096), []Pred{{Col: "a", Slices: 2, Sel: 0.01}})
	zoned := Plan(q(4096), []Pred{{Col: "a", Slices: 2, Sel: 0.01, HasZoneMap: true, ZonePrune: 0.98}})
	if zoned.Cost >= unzoned.Cost {
		t.Fatalf("zoned cost %v should be below unzoned %v", zoned.Cost, unzoned.Cost)
	}
}

func TestChooseWorkers(t *testing.T) {
	pinned := q(1 << 15)
	pinned.Workers = 3
	if d := Plan(pinned, []Pred{{Col: "a", Slices: 4, Sel: 0.5}}); d.Workers != 3 {
		t.Fatalf("pinned workers = %d, want 3", d.Workers)
	}
	if d := Plan(q(4), []Pred{{Col: "a", Slices: 4, Sel: 0.5}}); d.Workers != 1 {
		t.Fatalf("tiny scan workers = %d, want 1 (not worth a goroutine)", d.Workers)
	}
	big := Plan(q(1<<20), []Pred{{Col: "a", Slices: 4, Sel: 0.5}})
	if big.Workers < 2 {
		t.Fatalf("1M-segment scan workers = %d, want a pool", big.Workers)
	}
	if big.Workers > 8 {
		t.Fatalf("workers = %d exceed MaxWorkers", big.Workers)
	}
}

func TestMatchAllPredicateIsFree(t *testing.T) {
	with := Plan(q(4096), []Pred{
		{Col: "a", Slices: 2, Sel: 0.3},
		{Col: "null-only", Slices: 0, Sel: 1},
	})
	alone := Plan(q(4096), []Pred{{Col: "a", Slices: 2, Sel: 0.3}})
	// The pseudo predicate adds bookkeeping (a gate/combine) but no scan.
	if with.Cost > alone.Cost*1.5 {
		t.Fatalf("match-all pseudo predicate should be nearly free: %v vs %v", with.Cost, alone.Cost)
	}
}

func TestCompressedWins(t *testing.T) {
	// Uniform random data: no block pruning, no uniform blocks, ~k/8+0.25
	// bytes per row — compression moves as many bytes as raw and adds
	// decode work, so it must lose at every width.
	for _, slices := range []int{1, 2, 3, 4} {
		if CompressedWins(slices, float64(slices)+0.25, 0, 0) {
			t.Fatalf("incompressible %d-slice column should stay raw", slices)
		}
	}
	// Clustered data: tiny per-block spans prune nearly every block.
	if !CompressedWins(2, 2.25, 0.98, 0) {
		t.Fatal("block-prunable column should compress")
	}
	// Low-entropy wide column: every block on the 1-byte direct path
	// moves ~1.25 bytes per row instead of 3 — wins on bytes alone.
	if !CompressedWins(3, 1.25, 0, 1) {
		t.Fatal("uniform-1-byte wide column should compress")
	}
	if CompressedWins(0, 1, 1, 1) {
		t.Fatal("match-all pseudo predicate cannot compress")
	}
}

func TestCompressedCostAndExplain(t *testing.T) {
	comp := Pred{Col: "c", Slices: 2, Sel: 0.1, Compressed: true,
		CompBytesPerRow: 1.5, BlockPrune: 0.95, Uniform1: 0.5}
	raw := Pred{Col: "c", Slices: 2, Sel: 0.1}
	dc := Plan(q(4096), []Pred{comp})
	dr := Plan(q(4096), []Pred{raw})
	if dc.Cost >= dr.Cost {
		t.Fatalf("pruned compressed scan %v should cost below raw %v", dc.Cost, dr.Cost)
	}
	if out := dc.Explain(); !strings.Contains(out, "compressed 1.50B/row") {
		t.Fatalf("Explain missing the compression annotation:\n%s", out)
	}
	if out := dr.Explain(); strings.Contains(out, "compressed") {
		t.Fatalf("raw Explain must not mention compression:\n%s", out)
	}
}

func TestExplainDeterministicAndComplete(t *testing.T) {
	preds := []Pred{
		{Col: "price", Slices: 2, Sel: 0.05, HasZoneMap: true, ZonePrune: 0.9},
		{Col: "qty", Slices: 1, Sel: 0.4},
	}
	d1 := Plan(q(2048), preds)
	d2 := Plan(q(2048), preds)
	if d1.Explain() != d2.Explain() {
		t.Fatal("Explain must be deterministic")
	}
	out := d1.Explain()
	for _, want := range []string{
		"plan: 2 predicate(s)", "conjunction",
		"price(sel=0.050, zone=0.90)", "qty(sel=0.400)",
		"strategy:", "column-first", "baseline", "workers:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}

// TestColumnFirstLiveSegmentBound pins the pipelined pricing: behind a
// zone-mapped conjunct a later conjunct pays its full-scan rate on at most
// (1 − ZonePrune) + Sel of the segments, while disjunctions keep the
// row-independence live fraction and the generic per-segment price.
func TestColumnFirstLiveSegmentBound(t *testing.T) {
	ship := Pred{Col: "shipdate", Slices: 2, Sel: 0.129, HasZoneMap: true, ZonePrune: 0.94}
	disc := Pred{Col: "discount", Slices: 1, Sel: 0.27}
	qty := Pred{Col: "quantity", Slices: 1, Sel: 0.5}
	preds := []Pred{ship, disc, qty}

	bound := 1 - ship.ZonePrune + ship.Sel
	want := fullScanCost(ship) +
		nsGate + bound*segScanCost(disc) +
		nsGate + math.Min(liveSegProb(ship.Sel*disc.Sel), bound)*segScanCost(qty)
	got := columnFirstCost(q(131072), preds)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("column-first cost = %v ns/segment, want %v", got, want)
	}
	if d := Plan(q(131072), preds); d.Strategy != ColumnFirst {
		t.Fatalf("clustered conjunction chose %v:\n%s", d.Strategy, d.Explain())
	}

	// Without a zone map the row-independence fraction stands.
	uniform := []Pred{disc, qty}
	want = segScanCost(disc) + nsGate + liveSegProb(disc.Sel)*segScanCost(qty)
	if got := columnFirstCost(q(131072), uniform); math.Abs(got-want) > 1e-9 {
		t.Fatalf("unzoned column-first cost = %v, want %v", got, want)
	}

	// Disjunctions are priced as before the bound.
	dis := q(131072)
	dis.Disjunct = true
	frac := 1 - ship.Sel
	want = fullScanCost(ship) + nsGate + liveSegProb(frac)*perSegCost(disc)
	frac *= 1 - disc.Sel
	want += nsGate + liveSegProb(frac)*perSegCost(qty)
	if got := columnFirstCost(dis, preds); math.Abs(got-want) > 1e-9 {
		t.Fatalf("disjunctive column-first cost = %v, want %v", got, want)
	}
}

// TestExplainMarksPin pins the strategy line of a pinned decision: the
// strategy that ran, its estimate, and (pinned) — or the fallback.
func TestExplainMarksPin(t *testing.T) {
	preds := []Pred{{Col: "a", Slices: 2, Sel: 0.2}, {Col: "b", Slices: 1, Sel: 0.5}}
	d := Plan(q(1024), preds)
	if strings.Contains(d.Explain(), "pinned") {
		t.Fatalf("auto decision marked pinned:\n%s", d.Explain())
	}
	d.Pin(Baseline, Baseline)
	if !strings.Contains(d.Explain(), "strategy: baseline (pinned) (est "+ms(d.CostBaseline)) || d.Cost != d.CostBaseline {
		t.Fatalf("pinned baseline:\n%s", d.Explain())
	}
	d.Pin(PredicateFirst, Baseline)
	if !strings.Contains(d.Explain(), "strategy: baseline (pinned predicate-first, falls back)") {
		t.Fatalf("fallback:\n%s", d.Explain())
	}
}
