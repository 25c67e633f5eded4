package tpch_test

import (
	"reflect"
	"testing"

	"byteslice"
	"byteslice/internal/layout"
	"byteslice/internal/tpch"
)

func genSmall(t *testing.T, skew float64) *tpch.Dataset {
	t.Helper()
	return tpch.Generate(tpch.Config{Rows: 20000, Seed: 1, Skew: skew})
}

// layoutTables builds the columns in every layout the facade evaluates:
// the paper's four and compressed ByteSlice.
func layoutTables(t *testing.T, specs []tpch.ColumnSpec) map[string]*byteslice.Table {
	t.Helper()
	out := map[string]*byteslice.Table{}
	for _, f := range byteslice.Formats() {
		out[string(f)] = build(t, specs, byteslice.WithFormat(f))
	}
	out["ByteSlice+compression"] = build(t, specs, byteslice.WithCompression())
	return out
}

func build(t *testing.T, specs []tpch.ColumnSpec, opts ...byteslice.ColumnOption) *byteslice.Table {
	t.Helper()
	tb, err := tpch.BuildTable(specs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func queryNamed(t *testing.T, qs []tpch.Query, name string) tpch.Query {
	t.Helper()
	for _, q := range qs {
		if q.Name == name {
			return q
		}
	}
	t.Fatalf("no query %s", name)
	return tpch.Query{}
}

func TestGenerateDeterministicAndInDomain(t *testing.T) {
	a := genSmall(t, 0)
	b := genSmall(t, 0)
	for name, codes := range a.Raw {
		other := b.Raw[name]
		for i := range codes {
			if codes[i] != other[i] {
				t.Fatalf("column %s not deterministic at row %d", name, i)
			}
		}
	}
	// Widths hold (building rejects codes wider than K) and the paper's
	// claim that ~90% of TPC-H columns encode under 24 bits should be
	// visible here.
	build(t, a.Specs)
	under24 := 0
	for _, s := range a.Specs {
		if s.K <= 24 {
			under24++
		}
		if s.K < 1 || s.K > 32 {
			t.Fatalf("column %s has width %d", s.Name, s.K)
		}
	}
	if float64(under24)/float64(len(a.Specs)) < 0.9 {
		t.Fatalf("only %d/%d columns under 24 bits", under24, len(a.Specs))
	}
}

func TestDateCorrelations(t *testing.T) {
	d := genSmall(t, 0)
	ship, order := d.Raw["l_shipdate"], d.Raw["o_orderdate"]
	commit, receipt := d.Raw["l_commitdate"], d.Raw["l_receiptdate"]
	flag := d.Raw["l_commit_lt_receipt"]
	for i := range ship {
		if ship[i] <= order[i] || ship[i] > order[i]+121 {
			t.Fatalf("row %d: shipdate %d not derived from orderdate %d", i, ship[i], order[i])
		}
		if receipt[i] <= ship[i] {
			t.Fatalf("row %d: receipt before ship", i)
		}
		want := uint32(0)
		if commit[i] < receipt[i] {
			want = 1
		}
		if flag[i] != want {
			t.Fatalf("row %d: commit<receipt flag wrong", i)
		}
	}
}

// TestAllQueriesAllLayouts runs every kernel on every layout, uniform and
// skewed, on the modelled path and on the native path: both must match the
// scalar oracle, and the native Q1/Q6 aggregates must equal the modelled
// ones.
func TestAllQueriesAllLayouts(t *testing.T) {
	for _, skew := range []float64{0, 1} {
		d := genSmall(t, skew)
		queries := tpch.Queries(d)
		if len(queries) != 13 {
			t.Fatalf("expected 13 queries, got %d", len(queries))
		}
		for name, tb := range layoutTables(t, d.Specs) {
			s := tpch.StrategyFor(name)
			for _, q := range queries {
				modelled, err := tpch.Run(tb, q, s, byteslice.NewProfile())
				if err != nil {
					t.Fatalf("zipf=%v %s/%s: %v", skew, name, q.Name, err)
				}
				if err := tpch.Validate(d.Raw, q, modelled.Matches); err != nil {
					t.Fatalf("zipf=%v %s modelled: %v", skew, name, err)
				}
				if modelled.ScanInstr == 0 {
					t.Fatalf("%s/%s: no scan instructions recorded", name, q.Name)
				}
				if len(q.Project) > 0 && modelled.Matches > 0 && modelled.LookupInstr == 0 {
					t.Fatalf("%s/%s: no lookup instructions recorded", name, q.Name)
				}

				native, err := tpch.Run(tb, q, s, nil)
				if err != nil {
					t.Fatalf("zipf=%v %s/%s native: %v", skew, name, q.Name, err)
				}
				if err := tpch.Validate(d.Raw, q, native.Matches); err != nil {
					t.Fatalf("zipf=%v %s native: %v", skew, name, err)
				}
				if !reflect.DeepEqual(native.Groups, modelled.Groups) {
					t.Fatalf("zipf=%v %s/%s: native aggregates %v differ from modelled %v",
						skew, name, q.Name, native.Groups, modelled.Groups)
				}
			}
		}
	}
}

// TestQuerySelectivities pins the rough selectivity regimes the paper's
// discussion depends on: Q1 nearly unselective, Q6 a few percent, Q17/Q19
// well under a percent.
func TestQuerySelectivities(t *testing.T) {
	d := tpch.Generate(tpch.Config{Rows: 100000, Seed: 2})
	tb := build(t, d.Specs)
	sel := map[string]float64{}
	for _, q := range tpch.Queries(d) {
		res, err := tpch.Run(tb, q, byteslice.StrategyColumnFirst, nil)
		if err != nil {
			t.Fatal(err)
		}
		sel[q.Name] = float64(res.Matches) / float64(d.Cfg.Rows)
	}
	if sel["Q1"] < 0.9 {
		t.Fatalf("Q1 selectivity %.3f, want ≈0.98", sel["Q1"])
	}
	if sel["Q6"] < 0.002 || sel["Q6"] > 0.06 {
		t.Fatalf("Q6 selectivity %.4f, want a few percent", sel["Q6"])
	}
	if sel["Q17"] > 0.01 {
		t.Fatalf("Q17 selectivity %.4f, want ≪ 1%%", sel["Q17"])
	}
	if sel["Q19"] > 0.01 || sel["Q19"] == 0 {
		t.Fatalf("Q19 selectivity %.5f, want small but non-zero", sel["Q19"])
	}
}

func TestSkewedGeneration(t *testing.T) {
	d := genSmall(t, 1)
	// Zipfian quantity should concentrate near 1.
	small := 0
	for _, q := range d.Raw["l_quantity"] {
		if q <= 5 {
			small++
		}
	}
	if float64(small)/float64(len(d.Raw["l_quantity"])) < 0.5 {
		t.Fatalf("skewed quantities not concentrated: %d/%d ≤ 5", small, len(d.Raw["l_quantity"]))
	}
}

func TestDayEncoding(t *testing.T) {
	if tpch.Day(1992, 1, 1) != 0 {
		t.Fatal("epoch should be day 0")
	}
	if tpch.Day(1992, 1, 2) != 1 || tpch.Day(1993, 1, 1) != 366 { // 1992 is a leap year
		t.Fatalf("day arithmetic wrong: %d %d", tpch.Day(1992, 1, 2), tpch.Day(1993, 1, 1))
	}
	d := genSmall(t, 0)
	if d.DayCode(1991, 1, 1) != 0 {
		t.Fatal("pre-epoch dates should clamp to 0")
	}
}

// TestQ1AndQ6Aggregates checks the completed kernels produce the actual
// query answers, identically across layouts.
func TestQ1AndQ6Aggregates(t *testing.T) {
	d := genSmall(t, 0)
	queries := tpch.Queries(d)
	q1, q6 := queryNamed(t, queries, "Q1"), queryNamed(t, queries, "Q6")
	var wantQ1 map[string][]float64
	var wantQ6 float64
	for _, f := range []byteslice.Format{byteslice.FormatByteSlice, byteslice.FormatHBP} {
		tb := build(t, d.Specs, byteslice.WithFormat(f))
		r1, err := tpch.Run(tb, q1, byteslice.StrategyBaseline, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Groups) != 6 { // 3 return flags × 2 line statuses
			t.Fatalf("%s: Q1 groups = %d, want 6", f, len(r1.Groups))
		}
		groups := map[string][]float64{}
		rows := 0
		for _, g := range r1.Groups {
			groups[g.Key] = g.Sums
			rows += g.Rows
		}
		if rows != r1.Matches {
			t.Fatalf("%s: Q1 group rows %d != matches %d", f, rows, r1.Matches)
		}
		if wantQ1 == nil {
			wantQ1 = groups
		} else {
			for k, sums := range wantQ1 {
				for i := range sums {
					if diff := sums[i] - groups[k][i]; diff > 1e-6 || diff < -1e-6 {
						t.Fatalf("%s: Q1 group %q expr %d differs", f, k, i)
					}
				}
			}
		}

		r6, err := tpch.Run(tb, q6, byteslice.StrategyBaseline, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r6.Groups) != 1 {
			t.Fatalf("%s: Q6 groups = %d", f, len(r6.Groups))
		}
		rev := r6.Groups[0].Sums[0]
		if rev <= 0 {
			t.Fatalf("%s: Q6 revenue = %v", f, rev)
		}
		if wantQ6 == 0 {
			wantQ6 = rev
		} else if diff := rev - wantQ6; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: Q6 revenue differs: %v vs %v", f, rev, wantQ6)
		}
	}
}

// smallSpecs is a three-column table with known contents.
var smallSpecs = []tpch.ColumnSpec{
	{Name: "grp", K: 2, Codes: []uint32{0, 1, 0, 1, 2, 0}},
	{Name: "val", K: 8, Codes: []uint32{10, 20, 30, 40, 50, 60}},
	{Name: "flag", K: 1, Codes: []uint32{1, 1, 1, 1, 1, 0}},
}

func TestBuildTable(t *testing.T) {
	for _, f := range byteslice.Formats() {
		tb := build(t, smallSpecs, byteslice.WithFormat(f))
		if tb.Len() != 6 || len(tb.Columns()) != 3 {
			t.Fatalf("%s: shape %d rows × %d columns", f, tb.Len(), len(tb.Columns()))
		}
		for _, s := range smallSpecs {
			c, err := tb.Column(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if c.Width() != s.K || c.Format() != f {
				t.Fatalf("%s/%s: width %d format %s", f, s.Name, c.Width(), c.Format())
			}
			for i, want := range s.Codes {
				if got := c.LookupCode(nil, i); got != want {
					t.Fatalf("%s/%s row %d: code %d, want %d", f, s.Name, i, got, want)
				}
			}
		}
	}
}

func TestBuildTableErrors(t *testing.T) {
	for name, specs := range map[string][]tpch.ColumnSpec{
		"no columns": nil,
		"ragged":     {{Name: "a", K: 4, Codes: []uint32{1}}, {Name: "b", K: 4, Codes: []uint32{1, 2}}},
		"duplicate":  {{Name: "a", K: 4, Codes: []uint32{1}}, {Name: "a", K: 4, Codes: []uint32{2}}},
		"too wide":   {{Name: "a", K: 2, Codes: []uint32{4}}},
	} {
		if _, err := tpch.BuildTable(specs); err == nil {
			t.Fatalf("%s: BuildTable should fail", name)
		}
	}
}

// TestProjectAndAggregate runs a kernel with a projection and a grouped
// aggregate over a table small enough to check by hand.
func TestProjectAndAggregate(t *testing.T) {
	tb := build(t, smallSpecs)
	q := tpch.Query{
		Name:    "small",
		Where:   tpch.And(tpch.Cmp("flag", layout.Eq, 1)),
		Project: []string{"grp", "val"},
		Agg: &tpch.Aggregate{
			Exprs:   []string{"sum_val", "sum_sq"},
			Inputs:  []string{"val"},
			GroupBy: []string{"grp"},
			Eval: func(v []uint32) []float64 {
				x := float64(v[0])
				return []float64{x, x * x}
			},
		},
	}
	for _, prof := range []*byteslice.Profile{nil, byteslice.NewProfile()} {
		res, err := tpch.Run(tb, q, byteslice.StrategyBaseline, prof)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != 5 {
			t.Fatalf("matches = %d, want 5", res.Matches)
		}
		// Groups in first-seen order: 0 → {10,30}, 1 → {20,40}, 2 → {50}.
		want := []tpch.GroupResult{
			{Key: "0|", Sums: []float64{40, 1000}, Rows: 2},
			{Key: "1|", Sums: []float64{60, 2000}, Rows: 2},
			{Key: "2|", Sums: []float64{50, 2500}, Rows: 1},
		}
		if !reflect.DeepEqual(res.Groups, want) {
			t.Fatalf("profiled=%v: groups = %+v, want %+v", prof != nil, res.Groups, want)
		}
	}

	unprojected := q
	unprojected.Project = []string{"grp"}
	if _, err := tpch.Run(tb, unprojected, byteslice.StrategyBaseline, nil); err == nil {
		t.Fatal("aggregating an unprojected column should fail")
	}
}

// TestRunResidualAndErrors checks the residual drops survivors on both
// paths and charges its comparisons, and that unknown columns fail.
func TestRunResidualAndErrors(t *testing.T) {
	tb := build(t, smallSpecs)
	q := tpch.Query{
		Name:     "residual",
		Where:    tpch.And(tpch.Cmp("val", layout.Ge, 20)),
		Residual: &tpch.Residual{Cols: []string{"grp", "flag"}, Keep: func(v []uint32) bool { return v[0] < v[1] }},
	}
	// val ≥ 20 keeps rows 1..5; grp < flag keeps only row 2 (0 < 1).
	if err := tpch.Validate(map[string][]uint32{"grp": smallSpecs[0].Codes, "val": smallSpecs[1].Codes,
		"flag": smallSpecs[2].Codes}, q, 1); err != nil {
		t.Fatal(err)
	}
	for _, prof := range []*byteslice.Profile{nil, byteslice.NewProfile()} {
		res, err := tpch.Run(tb, q, byteslice.StrategyColumnFirst, prof)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != 1 {
			t.Fatalf("profiled=%v: matches = %d, want 1", prof != nil, res.Matches)
		}
		if prof != nil && res.LookupInstr == 0 {
			t.Fatal("residual lookups and comparisons should be charged to the lookup phase")
		}
	}

	for _, bad := range []tpch.Query{
		{Name: "filter", Where: tpch.And(tpch.Cmp("zzz", layout.Eq, 1))},
		{Name: "project", Where: q.Where, Project: []string{"zzz"}},
		{Name: "residual", Where: q.Where, Residual: &tpch.Residual{Cols: []string{"zzz"}, Keep: q.Residual.Keep}},
	} {
		if _, err := tpch.Run(tb, bad, byteslice.StrategyBaseline, nil); err == nil {
			t.Fatalf("%s: unknown column should error", bad.Name)
		}
	}
}
