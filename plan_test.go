package byteslice_test

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"byteslice"
)

// planTable builds a three-column table over the given distributions:
// "a" sorted with zone maps, "b" clustered with zone maps, "c" uniform
// without. All columns share the [0, 9999] domain.
func planTable(t *testing.T, n int) (*byteslice.Table, []int64, []int64, []int64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 7)) //nolint:gosec
	a := make([]int64, n)
	b := make([]int64, n)
	c := make([]int64, n)
	for i := range a {
		a[i] = int64(i * 10000 / n) // sorted
		if i%512 == 0 {
			// New cluster band every 512 rows.
			b[i] = int64(rng.IntN(9000))
		} else {
			b[i] = b[i-1] + int64(rng.IntN(3))
			if b[i] > 9999 {
				b[i] = 9999
			}
		}
		c[i] = int64(rng.IntN(10000))
	}
	tbl, err := byteslice.NewTable(
		intColumn(t, "a", a, 0, 9999, byteslice.WithZoneMaps()),
		intColumn(t, "b", b, 0, 9999, byteslice.WithZoneMaps()),
		intColumn(t, "c", c, 0, 9999),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, a, b, c
}

// TestNativeZoneMapPruning is the regression test for the dispatch bug
// where the zone-map arm was unreachable on the native path: a native scan
// over a sorted zone-mapped column must actually skip segments.
func TestNativeZoneMapPruning(t *testing.T) {
	tbl, a, _, _ := planTable(t, 1<<16)
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Between, 1000, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range a {
		if v >= 1000 && v <= 2000 {
			want++
		}
	}
	if res.Count() != want {
		t.Fatalf("count = %d, want %d", res.Count(), want)
	}
	segs := (1 << 16) / 32
	if res.ZoneSkipped() < segs/2 {
		t.Fatalf("ZoneSkipped = %d, want most of %d segments pruned on sorted data", res.ZoneSkipped(), segs)
	}
	if !strings.Contains(res.Explain(), "zone=") {
		t.Fatalf("Explain should report the zone prune rate:\n%s", res.Explain())
	}

	// Zone maps must also prune when the zoned column is a non-driving
	// conjunct (the pipelined-zoned kernel).
	res2, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("c", byteslice.Lt, 5000),
		byteslice.IntFilter("a", byteslice.Lt, 500),
	}, byteslice.WithFilterOrder(byteslice.OrderAsWritten))
	if err != nil {
		t.Fatal(err)
	}
	if res2.ZoneSkipped() == 0 {
		t.Fatal("pipelined scan over a zoned column should prune segments")
	}
}

// TestExplain pins the Result.Explain surface on both execution paths.
func TestExplain(t *testing.T) {
	tbl, _, _, _ := planTable(t, 1<<14)
	filters := []byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 2000),
		byteslice.IntFilter("c", byteslice.Ge, 5000),
	}
	res, err := tbl.Filter(filters)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan: 2 predicate(s)", "order:", "strategy:", "workers:"} {
		if !strings.Contains(res.Explain(), want) {
			t.Fatalf("Explain missing %q:\n%s", want, res.Explain())
		}
	}
	prof, err := tbl.Filter(filters, byteslice.WithProfile(byteslice.NewProfile()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prof.Explain(), "modelled") {
		t.Fatalf("profiled Explain should note the modelled path:\n%s", prof.Explain())
	}
	if prof.ZoneSkipped() != 0 {
		t.Fatalf("modelled path reports pruning via the profile, not ZoneSkipped (= %d)", prof.ZoneSkipped())
	}

	// Query joins one plan block per homogeneous group.
	qres, err := tbl.Query(byteslice.Any(
		byteslice.Leaf(byteslice.IntFilter("a", byteslice.Lt, 100)),
		byteslice.All(
			byteslice.Leaf(byteslice.IntFilter("b", byteslice.Lt, 5000)),
			byteslice.Leaf(byteslice.IntFilter("c", byteslice.Lt, 5000)),
		),
	))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(qres.Explain(), "plan:") < 2 {
		t.Fatalf("Query Explain should join the groups' plans:\n%s", qres.Explain())
	}
}

// TestPlannerMatchesBaseline is the differential test for the cost-based
// planner: whatever order, strategy and worker count it chooses, the result
// must be bit-identical to the unplanned baseline (StrategyBaseline with
// OrderAsWritten) and to the modelled engine path.
func TestPlannerMatchesBaseline(t *testing.T) {
	tbl, _, _, _ := planTable(t, 1<<15+13) // odd length exercises padding
	queries := [][]byteslice.Filter{
		{byteslice.IntFilter("a", byteslice.Lt, 700)},
		{
			byteslice.IntFilter("a", byteslice.Between, 2000, 6000),
			byteslice.IntFilter("c", byteslice.Lt, 9000),
		},
		{
			byteslice.IntFilter("c", byteslice.Ge, 100),
			byteslice.IntFilter("b", byteslice.Lt, 4000),
			byteslice.IntFilter("a", byteslice.Ne, 5000),
		},
	}
	strategies := []byteslice.Strategy{
		byteslice.StrategyColumnFirst, byteslice.StrategyPredicateFirst, byteslice.StrategyBaseline,
	}
	for qi, filters := range queries {
		for _, disjunct := range []bool{false, true} {
			eval := func(opts ...byteslice.QueryOption) *byteslice.Result {
				var res *byteslice.Result
				var err error
				if disjunct {
					res, err = tbl.FilterAny(filters, opts...)
				} else {
					res, err = tbl.Filter(filters, opts...)
				}
				if err != nil {
					t.Fatalf("query %d disjunct=%v: %v", qi, disjunct, err)
				}
				return res
			}
			want := eval(byteslice.WithStrategy(byteslice.StrategyBaseline),
				byteslice.WithFilterOrder(byteslice.OrderAsWritten),
				byteslice.WithParallelism(1))
			got := eval() // planner decides everything
			if got.Count() != want.Count() {
				t.Fatalf("query %d disjunct=%v: planned count %d, baseline %d\n%s",
					qi, disjunct, got.Count(), want.Count(), got.Explain())
			}
			for _, s := range strategies {
				if res := eval(byteslice.WithStrategy(s)); res.Count() != want.Count() {
					t.Fatalf("query %d disjunct=%v strategy=%v: count %d, baseline %d",
						qi, disjunct, s, res.Count(), want.Count())
				}
			}
			engine := eval(byteslice.WithProfile(byteslice.NewProfile()))
			if engine.Count() != want.Count() {
				t.Fatalf("query %d disjunct=%v: engine count %d, baseline %d",
					qi, disjunct, engine.Count(), want.Count())
			}
		}
	}
}

// TestFilteredAggregatesMatchRowLoop checks the filter-then-aggregate
// path — a Filter result, then SumInt, MinInt, MaxInt, SumDecimal,
// MinDecimal and MaxDecimal over it — natively and profiled, against a
// plain loop over the rows: a zone-mapped filter column, a nullable value
// column, a decimal column, and trivially false and true filters.
func TestFilteredAggregatesMatchRowLoop(t *testing.T) {
	n := 1<<14 + 5
	rng := rand.New(rand.NewPCG(11, 11)) //nolint:gosec
	fv := make([]int64, n)
	iv := make([]int64, n)
	cents := make([]int64, n)
	dv := make([]float64, n)
	for i := range fv {
		fv[i] = int64(rng.IntN(1000))
		iv[i] = int64(rng.IntN(100000)) - 50000
		cents[i] = int64(rng.IntN(10000))
		dv[i] = float64(cents[i]) / 100
	}
	nullRows := map[int]bool{0: true, 7: true, 4097: true}
	fcol := intColumn(t, "f", fv, 0, 999, byteslice.WithZoneMaps())
	icol := intColumn(t, "v", iv, -50000, 50000)
	dcol, err := byteslice.NewDecimalColumn("d", dv, 0, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	nullable := intColumn(t, "nv", iv, -50000, 50000, byteslice.WithNulls([]int{0, 7, 4097}))
	tbl, err := byteslice.NewTable(fcol, icol, dcol, nullable)
	if err != nil {
		t.Fatal(err)
	}

	filters := []struct {
		f    byteslice.Filter
		keep func(int64) bool
	}{
		{byteslice.IntFilter("f", byteslice.Lt, 100), func(x int64) bool { return x < 100 }},
		{byteslice.IntFilter("f", byteslice.Between, 400, 600), func(x int64) bool { return x >= 400 && x <= 600 }},
		{byteslice.IntFilter("f", byteslice.Eq, 512), func(x int64) bool { return x == 512 }},
		{byteslice.IntFilter("f", byteslice.Lt, -3), func(int64) bool { return false }},   // trivially false
		{byteslice.IntFilter("f", byteslice.Ge, -1000), func(int64) bool { return true }}, // trivially true
	}
	type agg struct {
		sum, min, max int64
		n             int
	}
	add := func(a *agg, x int64) {
		if a.n == 0 || x < a.min {
			a.min = x
		}
		if a.n == 0 || x > a.max {
			a.max = x
		}
		a.sum += x
		a.n++
	}
	for fi, tc := range filters {
		var v, nv, d agg
		for i := 0; i < n; i++ {
			if !tc.keep(fv[i]) {
				continue
			}
			add(&v, iv[i])
			add(&d, cents[i])
			if !nullRows[i] {
				add(&nv, iv[i])
			}
		}
		for _, opts := range [][]byteslice.QueryOption{nil, {byteslice.WithProfile(byteslice.NewProfile())}} {
			res, err := tbl.Filter([]byteslice.Filter{tc.f}, opts...)
			if err != nil {
				t.Fatalf("filter %d: %v", fi, err)
			}
			for col, want := range map[string]agg{"v": v, "nv": nv} {
				sum, cnt, err := tbl.SumInt(col, res, opts...)
				if err != nil || sum != want.sum || cnt != want.n {
					t.Fatalf("filter %d profiled=%v: SumInt(%s) = %d/%d (%v), want %d/%d", fi, opts != nil, col, sum, cnt, err, want.sum, want.n)
				}
				mn, ok, err := tbl.MinInt(col, res, opts...)
				if err != nil || ok != (want.n > 0) || ok && mn != want.min {
					t.Fatalf("filter %d profiled=%v: MinInt(%s) = %d/%v (%v), want %d", fi, opts != nil, col, mn, ok, err, want.min)
				}
				mx, ok, err := tbl.MaxInt(col, res, opts...)
				if err != nil || ok != (want.n > 0) || ok && mx != want.max {
					t.Fatalf("filter %d profiled=%v: MaxInt(%s) = %d/%v (%v), want %d", fi, opts != nil, col, mx, ok, err, want.max)
				}
			}
			dsum, dcnt, err := tbl.SumDecimal("d", res, opts...)
			if err != nil || dcnt != d.n || math.Abs(dsum-float64(d.sum)/100) > 1e-6 {
				t.Fatalf("filter %d profiled=%v: SumDecimal = %v/%d (%v), want %v/%d", fi, opts != nil, dsum, dcnt, err, float64(d.sum)/100, d.n)
			}
			dmin, ok, err := tbl.MinDecimal("d", res, opts...)
			if err != nil || ok != (d.n > 0) || ok && dmin != float64(d.min)/100 {
				t.Fatalf("filter %d profiled=%v: MinDecimal = %v/%v (%v), want %v", fi, opts != nil, dmin, ok, err, float64(d.min)/100)
			}
			dmax, ok, err := tbl.MaxDecimal("d", res, opts...)
			if err != nil || ok != (d.n > 0) || ok && dmax != float64(d.max)/100 {
				t.Fatalf("filter %d profiled=%v: MaxDecimal = %v/%v (%v), want %v", fi, opts != nil, dmax, ok, err, float64(d.max)/100)
			}
		}
	}
}

// TestExplainNamesStrategyThatRan pins Explain's strategy line and the
// statistics' strategy to what executed: a pin is named and marked
// (pinned), and a pinned predicate-first, which the native path has no
// executor for, reports the baseline it falls back to on every table.
// Under WithProfile the same pin still runs the modelled predicate-first
// pipeline: column-first's answers, but its own profile counters.
func TestExplainNamesStrategyThatRan(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewPCG(3, 3)) //nolint:gosec
	a := make([]int64, n)
	b := make([]int64, n)
	var nulls []int
	for i := range a {
		a[i] = int64(i * 10000 / n)
		b[i] = int64(rng.IntN(10))
		if i%97 == 0 {
			nulls = append(nulls, i)
		}
	}
	tbl, err := byteslice.NewTable(
		intColumn(t, "a", a, 0, 9999, byteslice.WithZoneMaps()),
		intColumn(t, "b", b, 0, 9),
		intColumn(t, "bn", b, 0, 9, byteslice.WithNulls(nulls)),
	)
	if err != nil {
		t.Fatal(err)
	}
	run := func(col string, s byteslice.Strategy) *byteslice.Result {
		t.Helper()
		res, err := tbl.Filter([]byteslice.Filter{
			byteslice.IntFilter("a", byteslice.Between, 100, 200),
			byteslice.IntFilter(col, byteslice.Between, 3, 5),
		}, byteslice.WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range []struct {
		col  string
		pin  byteslice.Strategy
		line string
		ran  string
	}{
		{"b", byteslice.StrategyColumnFirst, "strategy: column-first (pinned) (est", "column-first"},
		{"b", byteslice.StrategyBaseline, "strategy: baseline (pinned) (est", "baseline"},
		{"b", byteslice.StrategyPredicateFirst, "strategy: baseline (pinned predicate-first, falls back) (est", "baseline"},
		{"bn", byteslice.StrategyPredicateFirst, "strategy: baseline (pinned predicate-first, falls back) (est", "baseline"},
	} {
		res := run(tc.col, tc.pin)
		explain := res.Explain()
		if !strings.Contains(explain, tc.line) {
			t.Fatalf("pin %v on %s: Explain lacks %q:\n%s", tc.pin, tc.col, tc.line, explain)
		}
		if got := res.Stats().Strategy; got != tc.ran {
			t.Fatalf("pin %v on %s: stats strategy %q, want %q", tc.pin, tc.col, got, tc.ran)
		}
		if strings.Contains(explain, "scan(multi)") || strings.Contains(explain, "predicate-first ") {
			t.Fatalf("pin %v on %s: Explain names a predicate-first stage or candidate:\n%s", tc.pin, tc.col, explain)
		}
		for _, st := range res.Stats().Stages {
			if st.Kind == "scan_multi" {
				t.Fatalf("pin %v on %s: ran a scan_multi stage", tc.pin, tc.col)
			}
		}
	}
	if explain := run("b", byteslice.StrategyAuto).Explain(); strings.Contains(explain, "pinned)") {
		t.Fatalf("an unpinned plan is marked pinned:\n%s", explain)
	}

	profiled := func(s byteslice.Strategy) (*byteslice.Result, *byteslice.Profile) {
		t.Helper()
		prof := byteslice.NewProfile()
		res, err := tbl.Filter([]byteslice.Filter{
			byteslice.IntFilter("a", byteslice.Between, 100, 200),
			byteslice.IntFilter("b", byteslice.Between, 3, 5),
		}, byteslice.WithStrategy(s), byteslice.WithProfile(prof))
		if err != nil {
			t.Fatal(err)
		}
		return res, prof
	}
	pf, pfProf := profiled(byteslice.StrategyPredicateFirst)
	cf, cfProf := profiled(byteslice.StrategyColumnFirst)
	if pf.Count() != cf.Count() || pf.Count() == 0 {
		t.Fatalf("modelled predicate-first matched %d rows, column-first %d", pf.Count(), cf.Count())
	}
	for i := 0; i < n; i++ {
		if pf.Contains(i) != cf.Contains(i) {
			t.Fatalf("modelled predicate-first and column-first disagree at row %d", i)
		}
	}
	if pfProf.Instructions() == cfProf.Instructions() && pfProf.Cycles() == cfProf.Cycles() {
		t.Fatalf("modelled predicate-first recorded column-first's counters: %d instructions, %.0f cycles",
			pfProf.Instructions(), pfProf.Cycles())
	}
}

// TestExplainRendersOnRead pins that a native Filter keeps its planner
// decision and formats it only when Explain or Stats reads it: rendering
// the plan costs about twenty allocations, which a caller that never
// reads it must not pay.
func TestExplainRendersOnRead(t *testing.T) {
	const n = 1 << 20
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i * 10000 / n)
	}
	tbl, err := byteslice.NewTable(intColumn(t, "a", v, 0, 9999, byteslice.WithZoneMaps()))
	if err != nil {
		t.Fatal(err)
	}
	filter := func() *byteslice.Result {
		res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("a", byteslice.Between, 1000, 2000)},
			byteslice.WithObservability(false), byteslice.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unread := testing.AllocsPerRun(20, func() { filter() })
	read := testing.AllocsPerRun(20, func() { _ = filter().Explain() })
	if unread > 24 {
		t.Fatalf("Filter made %.0f allocations, want at most 24", unread)
	}
	if read < unread+10 {
		t.Fatalf("Explain should render on read: %.0f allocations with it, %.0f without", read, unread)
	}
	if got := filter().Explain(); !strings.HasPrefix(got, "plan: 1 predicate(s) over 1048576 rows") {
		t.Fatalf("Explain read back:\n%s", got)
	}
}

// TestExplainOrderAsWritten pins Explain to the order that executes: under
// OrderAsWritten the plan prints and costs the filters as written, and the
// analyze block's first scan is the first filter written.
func TestExplainOrderAsWritten(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewPCG(5, 5)) //nolint:gosec
	wide := make([]int64, n)
	narrow := make([]int64, n)
	for i := range wide {
		wide[i] = int64(rng.IntN(1000))
		narrow[i] = int64(rng.IntN(1000))
	}
	tbl, err := byteslice.NewTable(
		intColumn(t, "wide", wide, 0, 999),
		intColumn(t, "narrow", narrow, 0, 999),
	)
	if err != nil {
		t.Fatal(err)
	}
	filters := []byteslice.Filter{
		byteslice.IntFilter("wide", byteslice.Lt, 900),
		byteslice.IntFilter("narrow", byteslice.Lt, 5),
	}
	written, err := tbl.Filter(filters, byteslice.WithFilterOrder(byteslice.OrderAsWritten))
	if err != nil {
		t.Fatal(err)
	}
	explain := written.Explain()
	if !strings.Contains(explain, "order: wide(sel=") || !strings.Contains(explain, "→ narrow(sel=") {
		t.Fatalf("OrderAsWritten should print the written order:\n%s", explain)
	}
	if st := written.Stats().Stages; len(st) != 2 || st[0].Name != "scan(wide)" {
		t.Fatalf("OrderAsWritten should scan wide first, ran %+v", st)
	}
	sorted, err := tbl.Filter(filters)
	if err != nil {
		t.Fatal(err)
	}
	if explain := sorted.Explain(); !strings.Contains(explain, "order: narrow(sel=") {
		t.Fatalf("the default order should lead with the selective filter:\n%s", explain)
	}
	if st := sorted.Stats().Stages; len(st) != 2 || st[0].Name != "scan(narrow)" {
		t.Fatalf("the default order should scan narrow first, ran %+v", st)
	}
	if written.Count() != sorted.Count() {
		t.Fatalf("orders disagree: %d vs %d rows", written.Count(), sorted.Count())
	}
}

// TestClusteredConjunctionPipelines runs the benchmark's Q6 shape — a
// date window over a clustered, zone-mapped column, then a discount band
// and a quantity cap over uniform columns — and checks that the planner
// pipelines it and the later scans skip the segments the date window
// leaves dead.
func TestClusteredConjunctionPipelines(t *testing.T) {
	const n = 1 << 18
	rng := rand.New(rand.NewPCG(6, 6)) //nolint:gosec
	ship := make([]int64, n)
	disc := make([]float64, n)
	qty := make([]int64, n)
	for i := range ship {
		ship[i] = min(max(int64(i*2556/n+rng.IntN(61)-30), 0), 2555)
		disc[i] = float64(rng.IntN(11)) / 100
		qty[i] = int64(1 + rng.IntN(50))
	}
	discCol, err := byteslice.NewDecimalColumn("discount", disc, 0, 0.10, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(
		intColumn(t, "shipdate", ship, 0, 2555, byteslice.WithZoneMaps()),
		discCol,
		intColumn(t, "quantity", qty, 1, 50),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("shipdate", byteslice.Between, 1000, 1350),
		byteslice.DecimalFilter("discount", byteslice.Between, 0.04, 0.06),
		byteslice.IntFilter("quantity", byteslice.Lt, 25),
	}, byteslice.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range ship {
		if ship[i] >= 1000 && ship[i] <= 1350 && disc[i] >= 0.04 && disc[i] <= 0.06 && qty[i] < 25 {
			want++
		}
	}
	if res.Count() != want {
		t.Fatalf("count = %d, want %d", res.Count(), want)
	}
	explain := res.Explain()
	if !strings.Contains(explain, "strategy: column-first (est") {
		t.Fatalf("the clustered conjunction should pipeline:\n%s", explain)
	}
	for _, st := range res.Stats().Stages {
		if st.Name != "scan(discount)" && st.Name != "scan(quantity)" {
			continue
		}
		total := st.Segments + st.ZoneSkipped + st.MaskSkipped
		if float64(st.MaskSkipped) < 0.8*float64(total) {
			t.Fatalf("%s: %d of %d segments mask-skipped, want ≥ 80%%:\n%s", st.Name, st.MaskSkipped, total, explain)
		}
	}
}
