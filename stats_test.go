package byteslice_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"byteslice"
)

// TestStatsZonedScanPartition pins the headline accounting invariant: on
// a zoned scan, segments scanned plus zone-skipped equals the column's
// segment count, and the zone-skipped segments appear as depth 0 in the
// early-stop histogram.
func TestStatsZonedScanPartition(t *testing.T) {
	const n = 1 << 16
	tbl, _, _, _ := planTable(t, n)
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Between, 1000, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Stats()
	if qs == nil {
		t.Fatal("Stats() must be non-nil on a default native query")
	}
	segs := int64(n / 32)
	if got := qs.SegmentsScanned() + qs.ZoneSkipped(); got != segs {
		t.Fatalf("segments %d + zone-skipped %d = %d, want %d",
			qs.SegmentsScanned(), qs.ZoneSkipped(), got, segs)
	}
	if qs.ZoneSkipped() == 0 {
		t.Fatal("sorted zone-mapped column should zone-skip segments")
	}
	d := qs.EarlyStopDepths()
	if d[0] != qs.ZoneSkipped() {
		t.Fatalf("depth[0] = %d, want zone-skipped %d", d[0], qs.ZoneSkipped())
	}
	if qs.BytesTouched() == 0 {
		t.Fatal("bytes touched must be recorded")
	}
	if qs.Plan == "" || qs.Strategy == "" || qs.Workers == 0 {
		t.Fatalf("planner decision missing from stats: %+v", qs)
	}
	if qs.WallNs <= 0 {
		t.Fatal("wall time must be recorded")
	}
}

// TestStatsEarlyStopHistogram pins the paper's byte-level early stop as
// observable evidence: a low-selectivity scan over a multi-byte column
// must resolve the overwhelming majority of segments at depth 1, with the
// depth histogram non-empty and summing to the segment count.
func TestStatsEarlyStopHistogram(t *testing.T) {
	const n = 1 << 16
	tbl, _, _, c := planTable(t, n)
	_ = c
	// Column "c" is uniform on [0, 9999] (14-bit codes, 2 byte slices) with
	// no zone maps; Eq against one value is ~0.01% selective, so nearly
	// every segment early-stops after its first byte slice.
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("c", byteslice.Eq, 1234),
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Stats()
	if qs == nil {
		t.Fatal("Stats() must be non-nil")
	}
	d := qs.EarlyStopDepths()
	segs := int64(n / 32)
	var sum int64
	for depth := 1; depth < len(d); depth++ {
		sum += d[depth]
	}
	if sum != segs {
		t.Fatalf("depth histogram sums to %d, want %d (hist %v)", sum, segs, d)
	}
	if d[1] == 0 {
		t.Fatalf("low-selectivity multi-byte scan must early-stop at depth 1: %v", d)
	}
	if d[1] < segs/2 {
		t.Fatalf("expected most segments to stop at depth 1, got %d of %d: %v", d[1], segs, d)
	}
}

// TestExplainAnalyze pins the enriched Explain: the planner's block is
// followed by the executed-stage analyze section.
func TestExplainAnalyze(t *testing.T) {
	tbl, _, _, _ := planTable(t, 1<<14)
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 5000),
		byteslice.IntFilter("b", byteslice.Gt, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain()
	for _, want := range []string{"plan:", "analyze:", "segments", "wall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}

// TestWithObservabilityDisabled pins the off switch: Stats() is nil and
// the query still answers correctly.
func TestWithObservabilityDisabled(t *testing.T) {
	tbl, a, _, _ := planTable(t, 1<<14)
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 5000),
	}, byteslice.WithObservability(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats() != nil {
		t.Fatal("Stats() must be nil with observability disabled")
	}
	want := 0
	for _, v := range a {
		if v < 5000 {
			want++
		}
	}
	if res.Count() != want {
		t.Fatalf("count = %d, want %d", res.Count(), want)
	}
	if strings.Contains(res.Explain(), "analyze:") {
		t.Fatal("Explain must not contain an analyze section when disabled")
	}
}

// TestTracerSpans pins the pluggable tracer hooks: one span per executed
// plan stage, opened and closed in order.
func TestTracerSpans(t *testing.T) {
	tbl, _, _, _ := planTable(t, 1<<14)
	var mu sync.Mutex
	var started, ended []string
	tr := byteslice.TracerFunc(func(name string) func() {
		mu.Lock()
		started = append(started, name)
		mu.Unlock()
		return func() {
			mu.Lock()
			ended = append(ended, name)
			mu.Unlock()
		}
	})
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 5000),
		byteslice.IntFilter("b", byteslice.Gt, 100),
	}, byteslice.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Stats()
	if qs == nil {
		t.Fatal("stats expected")
	}
	if len(started) != len(qs.Stages) || len(ended) != len(started) {
		t.Fatalf("spans started %d / ended %d, want %d (one per stage)",
			len(started), len(ended), len(qs.Stages))
	}
	for i, st := range qs.Stages {
		if started[i] != st.Name {
			t.Fatalf("span %d = %q, want stage %q", i, started[i], st.Name)
		}
	}
}

// TestStatsExprAbsorb pins stats flowing through expression evaluation:
// the combined result carries every group's stages.
func TestStatsExprAbsorb(t *testing.T) {
	tbl, _, _, _ := planTable(t, 1<<14)
	res, err := tbl.Query(byteslice.Any(
		byteslice.AllFilters(
			byteslice.IntFilter("a", byteslice.Lt, 2000),
			byteslice.IntFilter("b", byteslice.Gt, 8000),
		),
		byteslice.Leaf(byteslice.IntFilter("c", byteslice.Gt, 9900)),
	))
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Stats()
	if qs == nil {
		t.Fatal("expression result must carry stats")
	}
	if len(qs.Stages) < 2 {
		t.Fatalf("expected stages from both groups, got %d: %+v", len(qs.Stages), qs.Stages)
	}
	if strings.Count(qs.Plan, "plan:") < 2 {
		t.Fatalf("expected both groups' plans joined:\n%s", qs.Plan)
	}
}

// TestStatsProjectionStage pins the scan-to-lookup stage landing in the
// same result's stats.
func TestStatsProjectionStage(t *testing.T) {
	tbl, _, _, _ := planTable(t, 1<<14)
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 500),
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := tbl.ProjectInt("c", res)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Stats()
	var proj *byteslice.StageStats
	for i := range qs.Stages {
		if qs.Stages[i].Kind == "project" {
			proj = &qs.Stages[i]
		}
	}
	if proj == nil {
		t.Fatalf("projection stage missing: %+v", qs.Stages)
	}
	if proj.Rows != int64(len(rows)) {
		t.Fatalf("projection rows = %d, want %d", proj.Rows, len(rows))
	}
}

// TestStatsProjectionWorkers pins the projection stage's Workers to the
// fan-out width the lookup actually ran with: four on an explicit
// WithParallelism(4) over a large selection, one by default.
func TestStatsProjectionWorkers(t *testing.T) {
	tbl, _, _, _ := planTable(t, 1<<17)
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 9000),
	}, byteslice.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	projectWorkers := func(opts ...byteslice.QueryOption) int {
		t.Helper()
		if _, _, err := tbl.ProjectInt("c", res, opts...); err != nil {
			t.Fatal(err)
		}
		qs := res.Stats()
		for i := len(qs.Stages) - 1; i >= 0; i-- {
			if qs.Stages[i].Kind == "project" {
				return qs.Stages[i].Workers
			}
		}
		t.Fatalf("projection stage missing: %+v", qs.Stages)
		return 0
	}
	if w := projectWorkers(byteslice.WithParallelism(4)); w != 4 {
		t.Fatalf("parallel projection workers = %d, want 4", w)
	}
	if w := projectWorkers(); w != 1 {
		t.Fatalf("default projection workers = %d, want 1", w)
	}
}

// TestRegistryAggregation pins the process-wide fold: query counts and
// segment counters advance across evaluations, and aggregates register
// their own stages.
func TestRegistryAggregation(t *testing.T) {
	before := byteslice.StatsSnapshot()
	tbl, _, _, _ := planTable(t, 1<<14)
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.SumInt("c", res); err != nil {
		t.Fatal(err)
	}
	after := byteslice.StatsSnapshot()
	if after.Queries < before.Queries+2 {
		t.Fatalf("queries %d -> %d, want at least +2 (filter + aggregate)", before.Queries, after.Queries)
	}
	if after.Segments+after.ZoneSkipped <= before.Segments+before.ZoneSkipped {
		t.Fatal("segment counters must advance")
	}
	if after.Bytes <= before.Bytes {
		t.Fatal("byte counter must advance")
	}
	if after.QueryNs.Count <= before.QueryNs.Count {
		t.Fatal("query wall-time histogram must advance")
	}
}

// TestEdgeFiltersSkipScan pins the domain-edge rule: a range filter whose
// constant sits on an edge of the column's codes (v <= max, v >= min,
// BETWEEN min AND max, v < min, v > max; for strings the first and last
// dictionary entries) is decided without a kernel — no scan stage runs —
// and still answers exactly, NULLs excluded.
func TestEdgeFiltersSkipScan(t *testing.T) {
	const n = 1000
	ints := make([]int64, n)
	codes := make([]uint32, n)
	strs := make([]string, n)
	words := []string{"air", "mail", "rail", "ship"}
	var nulls []int
	for i := 0; i < n; i++ {
		ints[i] = int64(i * 13 % 256)
		codes[i] = uint32(i * 7 % 1024)
		strs[i] = words[i%len(words)]
		if i%9 == 0 {
			nulls = append(nulls, i)
		}
	}
	a := intColumn(t, "a", ints, 0, 255, byteslice.WithNulls(nulls))
	c, err := byteslice.NewCodeColumn("c", codes, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := byteslice.NewStringColumn("s", strs)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(a, c, s)
	if err != nil {
		t.Fatal(err)
	}
	nonNullA := func(i int) bool { return i%9 != 0 }
	all := func(int) bool { return true }
	none := func(int) bool { return false }
	cases := []struct {
		name    string
		filters []byteslice.Filter
		want    func(i int) bool
		scanned string // the one column still scanned, if any
	}{
		{"a<=max", []byteslice.Filter{byteslice.IntFilter("a", byteslice.Le, 255)}, nonNullA, ""},
		{"a>=min", []byteslice.Filter{byteslice.IntFilter("a", byteslice.Ge, 0)}, nonNullA, ""},
		{"a between min,max", []byteslice.Filter{byteslice.IntFilter("a", byteslice.Between, 0, 255)}, nonNullA, ""},
		{"a<min", []byteslice.Filter{byteslice.IntFilter("a", byteslice.Lt, 0)}, none, ""},
		{"a>max", []byteslice.Filter{byteslice.IntFilter("a", byteslice.Gt, 255)}, none, ""},
		{"c<=max", []byteslice.Filter{byteslice.CodeFilter("c", byteslice.Le, 1023)}, all, ""},
		{"c>=0", []byteslice.Filter{byteslice.CodeFilter("c", byteslice.Ge, 0)}, all, ""},
		{"c between 0,max", []byteslice.Filter{byteslice.CodeFilter("c", byteslice.Between, 0, 1023)}, all, ""},
		{"c<0", []byteslice.Filter{byteslice.CodeFilter("c", byteslice.Lt, 0)}, none, ""},
		{"c>max", []byteslice.Filter{byteslice.CodeFilter("c", byteslice.Gt, 1023)}, none, ""},
		{"s>=first", []byteslice.Filter{byteslice.StringFilter("s", byteslice.Ge, "air")}, all, ""},
		{"s<=last", []byteslice.Filter{byteslice.StringFilter("s", byteslice.Le, "ship")}, all, ""},
		{"s between first,last", []byteslice.Filter{byteslice.StringFilter("s", byteslice.Between, "air", "ship")}, all, ""},
		{"s>last", []byteslice.Filter{byteslice.StringFilter("s", byteslice.Gt, "ship")}, none, ""},
		{"a>=min and c<500", []byteslice.Filter{
			byteslice.IntFilter("a", byteslice.Ge, 0), byteslice.CodeFilter("c", byteslice.Lt, 500),
		}, func(i int) bool { return nonNullA(i) && codes[i] < 500 }, "c"},
	}
	for _, tc := range cases {
		res, err := tbl.Filter(tc.filters)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for i := 0; i < n; i++ {
			if tc.want(i) {
				want = append(want, int32(i))
			}
		}
		if got := res.Rows(); !slices.Equal(got, want) {
			t.Fatalf("%s: %d rows, want %d", tc.name, len(got), len(want))
		}
		for _, st := range res.Stats().Stages {
			if strings.HasPrefix(st.Name, "scan(") && st.Name != "scan("+tc.scanned+")" {
				t.Fatalf("%s: stage %q ran; an edge filter must not reach a kernel", tc.name, st.Name)
			}
		}
	}
}
