package byteslice_test

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"byteslice"
)

func TestSumIntAllFormats(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 30)) //nolint:gosec
	n := 5000
	vals := make([]int64, n)
	var total int64
	for i := range vals {
		vals[i] = int64(rng.IntN(2000)) - 1000
		total += vals[i]
	}
	for _, f := range byteslice.Formats() {
		col := intColumn(t, "v", vals, -1000, 1000, byteslice.WithFormat(f))
		tbl, _ := byteslice.NewTable(col)
		sum, count, err := tbl.SumInt("v", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum != total || count != n {
			t.Fatalf("%s: SumInt = %d (%d rows), want %d (%d)", f, sum, count, total, n)
		}

		// Filtered sum.
		res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Gt, 0)})
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		wc := 0
		for _, v := range vals {
			if v > 0 {
				want += v
				wc++
			}
		}
		sum, count, err = tbl.SumInt("v", res)
		if err != nil || sum != want || count != wc {
			t.Fatalf("%s: filtered SumInt = %d/%d, want %d/%d (%v)", f, sum, count, want, wc, err)
		}
	}
}

func TestMinMaxIntAndDecimal(t *testing.T) {
	vals := []int64{-3, 17, 0, 42, -9, 8}
	col := intColumn(t, "v", vals, -100, 100)
	prices := []float64{1.25, 0.10, 9.99, 5.00, 3.33, 2.50}
	price, err := byteslice.NewDecimalColumn("p", prices, 0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := byteslice.NewTable(col, price)

	if mn, ok, _ := tbl.MinInt("v", nil); !ok || mn != -9 {
		t.Fatalf("MinInt = %d (%v)", mn, ok)
	}
	if mx, ok, _ := tbl.MaxInt("v", nil); !ok || mx != 42 {
		t.Fatalf("MaxInt = %d (%v)", mx, ok)
	}
	res, _ := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Ge, 0)})
	if mn, ok, _ := tbl.MinInt("v", res); !ok || mn != 0 {
		t.Fatalf("filtered MinInt = %d (%v)", mn, ok)
	}
	// Rows with v ≥ 0 are 1,2,3,5 → prices 0.10, 9.99, 5.00, 2.50.
	if mn, ok, _ := tbl.MinDecimal("p", res); !ok || mn != 0.10 {
		t.Fatalf("filtered MinDecimal = %v (%v)", mn, ok)
	}
	if mx, ok, _ := tbl.MaxDecimal("p", nil); !ok || mx != 9.99 {
		t.Fatalf("MaxDecimal = %v (%v)", mx, ok)
	}
	sum, count, err := tbl.SumDecimal("p", nil)
	if err != nil || count != 6 || math.Abs(sum-22.17) > 1e-9 {
		t.Fatalf("SumDecimal = %v/%d (%v)", sum, count, err)
	}

	// Empty selection.
	empty, _ := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Gt, 99)})
	if _, ok, _ := tbl.MinInt("v", empty); ok {
		t.Fatal("empty selection should report not-ok")
	}
	if sum, count, _ := tbl.SumInt("v", empty); sum != 0 || count != 0 {
		t.Fatalf("empty SumInt = %d/%d", sum, count)
	}
}

func TestMinMaxString(t *testing.T) {
	vals := []string{"pear", "apple", "mango", "fig", "apple"}
	col, err := byteslice.NewStringColumn("s", vals)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := byteslice.NewTable(col)
	if mn, ok, _ := tbl.MinString("s", nil); !ok || mn != "apple" {
		t.Fatalf("MinString = %q", mn)
	}
	if mx, ok, _ := tbl.MaxString("s", nil); !ok || mx != "pear" {
		t.Fatalf("MaxString = %q", mx)
	}
	res, _ := tbl.Filter([]byteslice.Filter{byteslice.StringFilter("s", byteslice.Ne, "apple")})
	if mn, ok, _ := tbl.MinString("s", res); !ok || mn != "fig" {
		t.Fatalf("filtered MinString = %q", mn)
	}
}

func TestAggregatesExcludeNulls(t *testing.T) {
	vals := []int64{10, 999, 30, 999, 50} // 999 at the NULL positions
	col := intColumn(t, "v", vals, 0, 1000, byteslice.WithNulls([]int{1, 3}))
	tbl, _ := byteslice.NewTable(col)
	sum, count, err := tbl.SumInt("v", nil)
	if err != nil || sum != 90 || count != 3 {
		t.Fatalf("SumInt over nullable = %d/%d (%v)", sum, count, err)
	}
	if mx, ok, _ := tbl.MaxInt("v", nil); !ok || mx != 50 {
		t.Fatalf("MaxInt over nullable = %d", mx)
	}
}

func TestAggregateErrors(t *testing.T) {
	col := intColumn(t, "v", []int64{1}, 0, 10)
	tbl, _ := byteslice.NewTable(col)
	if _, _, err := tbl.SumInt("zzz", nil); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, _, err := tbl.SumDecimal("v", nil); err == nil {
		t.Fatal("kind mismatch should error")
	}
	if _, _, err := tbl.MinString("v", nil); err == nil {
		t.Fatal("kind mismatch should error")
	}
	if _, _, err := tbl.MaxDecimal("v", nil); err == nil {
		t.Fatal("kind mismatch should error")
	}
}

// TestResultRowCountMismatch: a Result evaluated over a different row
// count — a pinned ingest view with one appended row, or another table —
// is an error for every Table method that reads one: no panic, no row
// the table does not have, and no counted kernel fault.
func TestResultRowCountMismatch(t *testing.T) {
	intTable := func(n int) *byteslice.Table {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i % 20)
		}
		tbl, err := byteslice.NewTable(intColumn(t, "v", vals, 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	lt10 := []byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 10)}
	it, err := byteslice.CreateIngest(t.TempDir(), intTable(100))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { it.Close() }) //nolint:errcheck // second close is a no-op
	if err := it.Append(map[string]any{"v": int64(3)}); err != nil {
		t.Fatal(err)
	}
	pin := it.Pin()
	appended, err := pin.Filter(lt10)
	if err != nil {
		t.Fatal(err)
	}
	other, err := intTable(5000).Filter(lt10)
	if err != nil {
		t.Fatal(err)
	}

	tbl := pin.Base()
	faults := byteslice.StatsSnapshot().Faults
	for name, res := range map[string]*byteslice.Result{"appended": appended, "other table": other} {
		for op, call := range map[string]func() error{
			"SumInt":     func() error { _, _, err := tbl.SumInt("v", res); return err },
			"MinInt":     func() error { _, _, err := tbl.MinInt("v", res); return err },
			"SumIntBy":   func() error { _, err := tbl.SumIntBy("v", "v", res); return err },
			"ProjectInt": func() error { _, _, err := tbl.ProjectInt("v", res); return err },
			"OrderBy":    func() error { _, err := tbl.OrderBy("v", res); return err },
		} {
			err := call()
			if err == nil || errors.Is(err, byteslice.ErrQueryFault) {
				t.Errorf("%s: %s err = %v, want a row-count error", name, op, err)
			}
		}
	}
	if got := byteslice.StatsSnapshot().Faults; got != faults {
		t.Fatalf("kernel faults moved %d → %d", faults, got)
	}
}

// TestSIMDAggregationCheaperThanLookups verifies the point of the SIMD
// path: summing via byte slices costs far fewer instructions than
// looking up every row.
func TestSIMDAggregationCheaperThanLookups(t *testing.T) {
	n := 100000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 4096)
	}
	bs := intColumn(t, "v", vals, 0, 4095)
	bp := intColumn(t, "v", vals, 0, 4095, byteslice.WithFormat(byteslice.FormatBitPacked))
	tbs, _ := byteslice.NewTable(bs)
	tbp, _ := byteslice.NewTable(bp)

	p1 := byteslice.NewProfile()
	s1, _, _ := tbs.SumInt("v", nil, byteslice.WithProfile(p1))
	p2 := byteslice.NewProfile()
	s2, _, _ := tbp.SumInt("v", nil, byteslice.WithProfile(p2))
	if s1 != s2 {
		t.Fatalf("sums differ: %d vs %d", s1, s2)
	}
	if float64(p1.Instructions())*3 > float64(p2.Instructions()) {
		t.Fatalf("SIMD aggregation should be ≥3× cheaper: %d vs %d instructions",
			p1.Instructions(), p2.Instructions())
	}
}

func TestSumByGroups(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 31)) //nolint:gosec
	n := 20000
	vals := make([]int64, n)
	small := make([]string, n) // low cardinality: scan-per-group path
	big := make([]int64, n)    // high cardinality: per-row fallback
	words := []string{"A", "N", "R"}
	for i := 0; i < n; i++ {
		vals[i] = int64(rng.IntN(1000))
		small[i] = words[rng.IntN(3)]
		big[i] = int64(rng.IntN(100000))
	}
	sc, err := byteslice.NewStringColumn("flag", small)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(
		intColumn(t, "v", vals, 0, 999),
		sc,
		intColumn(t, "wide", big, 0, 99999),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Ge, 500)})
	if err != nil {
		t.Fatal(err)
	}

	groups, err := tbl.SumIntBy("v", "flag", res)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	wantSum := map[string]float64{}
	wantCount := map[string]int{}
	for i := 0; i < n; i++ {
		if vals[i] >= 500 {
			wantSum[small[i]] += float64(vals[i])
			wantCount[small[i]]++
		}
	}
	prev := ""
	for _, g := range groups {
		key := g.Key.(string)
		if key <= prev {
			t.Fatalf("groups not in ascending key order: %v", groups)
		}
		prev = key
		if g.Sum != wantSum[key] || g.Count != wantCount[key] {
			t.Fatalf("group %q: %v/%d, want %v/%d", key, g.Sum, g.Count, wantSum[key], wantCount[key])
		}
	}

	// High-cardinality group column takes the fallback path; spot check.
	wide, err := tbl.SumIntBy("v", "wide", res)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	rows := 0
	for _, g := range wide {
		total += g.Sum
		rows += g.Count
	}
	if rows != res.Count() {
		t.Fatalf("fallback group rows = %d, want %d", rows, res.Count())
	}
	sum, _, _ := tbl.SumInt("v", res)
	if math.Abs(total-float64(sum)) > 1e-6 {
		t.Fatalf("fallback group total = %v, want %d", total, sum)
	}
}

// TestSumByCompressedValue: a grouped sum over a compressed value column
// scans per group and sums through the compressed kernel, under the
// sum_by stage, and answers exactly as the raw layout does, with and
// without a filter result and with NULL group keys.
func TestSumByCompressedValue(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewPCG(31, 31)) //nolint:gosec
	vals, ps, gs := make([]int64, n), make([]float64, n), make([]int64, n)
	var gNulls []int
	for i := range vals {
		vals[i] = int64(i * 50_000 / n) // sorted: compresses to delta blocks
		ps[i] = float64(i/4) / 100
		gs[i] = int64(rng.IntN(4))
		if i%13 == 0 {
			gNulls = append(gNulls, i)
		}
	}
	build := func(opts ...byteslice.ColumnOption) *byteslice.Table {
		v := intColumn(t, "v", vals, 0, 49_999, opts...)
		p, err := byteslice.NewDecimalColumn("p", ps, 0, float64(n)/400, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := byteslice.NewTable(v, p, intColumn(t, "g", gs, 0, 3, byteslice.WithNulls(gNulls)))
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	raw, comp := build(), build(byteslice.WithCompression())
	for _, c := range []string{"v", "p"} {
		if col, _ := comp.Column(c); !col.Compressed() {
			t.Fatalf("column %s did not compress", c)
		}
	}
	var spans []string
	tr := byteslice.TracerFunc(func(name string) func() {
		spans = append(spans, name)
		return func() {}
	})
	for _, filtered := range []bool{false, true} {
		var rawRes, compRes *byteslice.Result
		if filtered {
			f := []byteslice.Filter{byteslice.IntFilter("v", byteslice.Between, 10_000, 30_000)}
			var err error
			if rawRes, err = raw.Filter(f); err != nil {
				t.Fatal(err)
			}
			if compRes, err = comp.Filter(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			name string
			sum  func(tbl *byteslice.Table, res *byteslice.Result, opts ...byteslice.QueryOption) ([]byteslice.GroupSum, error)
		}{
			{"SumIntBy", func(tbl *byteslice.Table, res *byteslice.Result, opts ...byteslice.QueryOption) ([]byteslice.GroupSum, error) {
				return tbl.SumIntBy("v", "g", res, opts...)
			}},
			{"SumDecimalBy", func(tbl *byteslice.Table, res *byteslice.Result, opts ...byteslice.QueryOption) ([]byteslice.GroupSum, error) {
				return tbl.SumDecimalBy("p", "g", res, opts...)
			}},
		} {
			want, err := c.sum(raw, rawRes)
			if err != nil {
				t.Fatal(err)
			}
			spans = spans[:0]
			got, err := c.sum(comp, compRes, byteslice.WithTracer(tr), byteslice.WithParallelism(2))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) != 4 {
				t.Fatalf("%s filtered=%v: %d groups, raw layout %d", c.name, filtered, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s filtered=%v: group %d = %+v, raw layout %+v", c.name, filtered, i, got[i], want[i])
				}
			}
			if len(spans) != 1 || !strings.HasPrefix(spans[0], "sum_by(") {
				t.Fatalf("%s filtered=%v: spans %q, want one sum_by stage", c.name, filtered, spans)
			}
		}
	}
}

func TestSumDecimalByAndNulls(t *testing.T) {
	price, err := byteslice.NewDecimalColumn("p", []float64{1.5, 2.5, 3.5, 4.5}, 0, 10, 1,
		byteslice.WithNulls([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	grp := intColumn(t, "g", []int64{0, 0, 1, 1}, 0, 1, byteslice.WithNulls([]int{3}))
	tbl, _ := byteslice.NewTable(price, grp)
	groups, err := tbl.SumDecimalBy("p", "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 (price NULL) and row 3 (group NULL) excluded:
	// group 0 → {1.5}, group 1 → {3.5}.
	if len(groups) != 2 || groups[0].Sum != 1.5 || groups[1].Sum != 3.5 {
		t.Fatalf("groups = %+v", groups)
	}
	if groups[0].Key.(int64) != 0 || groups[1].Key.(int64) != 1 {
		t.Fatalf("keys = %+v", groups)
	}

	if _, err := tbl.SumIntBy("p", "g", nil); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := tbl.SumDecimalBy("p", "zzz", nil); err == nil {
		t.Fatal("unknown group column accepted")
	}
}

// resultGuardTable builds a table whose value columns come with and
// without NULLs ("v"/"vn" integers, "d"/"dn" decimals) plus a small group
// column "g" with NULLs, and a filter result over it.
func resultGuardTable(t *testing.T) (*byteslice.Table, *byteslice.Result) {
	t.Helper()
	rng := rand.New(rand.NewPCG(21, 21)) //nolint:gosec
	const n = 3000
	ints := make([]int64, n)
	decs := make([]float64, n)
	groups := make([]int64, n)
	var nulls, groupNulls []int
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.IntN(1000))
		decs[i] = float64(rng.IntN(10000)) / 100
		groups[i] = int64(rng.IntN(6))
		if i%7 == 3 {
			nulls = append(nulls, i)
		}
		if i%5 == 1 {
			groupNulls = append(groupNulls, i)
		}
	}
	dec := func(name string, opts ...byteslice.ColumnOption) *byteslice.Column {
		c, err := byteslice.NewDecimalColumn(name, decs, 0, 100, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	tbl, err := byteslice.NewTable(
		intColumn(t, "v", ints, 0, 999),
		intColumn(t, "vn", ints, 0, 999, byteslice.WithNulls(nulls)),
		dec("d"),
		dec("dn", byteslice.WithNulls(nulls)),
		intColumn(t, "g", groups, 0, 5, byteslice.WithNulls(groupNulls)),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 250)})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, res
}

// TestGroupedSumLeavesResultUnchanged pins that a grouped sum clearing the
// group column's NULLs never writes through to the caller's result, which
// an aggregate over a column without NULLs reads in place.
func TestGroupedSumLeavesResultUnchanged(t *testing.T) {
	tbl, res := resultGuardTable(t)
	want := res.Count()
	if _, err := tbl.SumIntBy("v", "g", res); err != nil {
		t.Fatal(err)
	}
	if got := res.Count(); got != want {
		t.Fatalf("SumIntBy changed the result's Count from %d to %d", want, got)
	}
}

// TestAggregatesLeaveResultUnchanged runs every aggregate over a result,
// on columns with and without NULLs, on both execution paths, and checks
// the result's Count and Rows afterwards.
func TestAggregatesLeaveResultUnchanged(t *testing.T) {
	tbl, res := resultGuardTable(t)
	wantCount, wantRows := res.Count(), res.Rows()
	for _, path := range []struct {
		name string
		opts []byteslice.QueryOption
	}{
		{"native", nil},
		{"modelled", []byteslice.QueryOption{byteslice.WithProfile(byteslice.NewProfile())}},
	} {
		for _, cols := range [][2]string{{"v", "d"}, {"vn", "dn"}} {
			iv, dv := cols[0], cols[1]
			calls := map[string]func() error{
				"SumInt":     func() error { _, _, err := tbl.SumInt(iv, res, path.opts...); return err },
				"SumDecimal": func() error { _, _, err := tbl.SumDecimal(dv, res, path.opts...); return err },
				"MinInt":     func() error { _, _, err := tbl.MinInt(iv, res, path.opts...); return err },
				"MaxInt":     func() error { _, _, err := tbl.MaxInt(iv, res, path.opts...); return err },
				"MinDecimal": func() error { _, _, err := tbl.MinDecimal(dv, res, path.opts...); return err },
				"MaxDecimal": func() error { _, _, err := tbl.MaxDecimal(dv, res, path.opts...); return err },
				"SumIntBy":   func() error { _, err := tbl.SumIntBy(iv, "g", res, path.opts...); return err },
				"SumDecimalBy": func() error {
					_, err := tbl.SumDecimalBy(dv, "g", res, path.opts...)
					return err
				},
			}
			for name, call := range calls {
				if err := call(); err != nil {
					t.Fatalf("%s %s(%s): %v", path.name, name, iv, err)
				}
				rows := res.Rows()
				if res.Count() != wantCount || len(rows) != len(wantRows) {
					t.Fatalf("%s %s(%s): result now has %d rows, want %d", path.name, name, iv, res.Count(), wantCount)
				}
				for i := range rows {
					if rows[i] != wantRows[i] {
						t.Fatalf("%s %s(%s): row %d is %d, want %d", path.name, name, iv, i, rows[i], wantRows[i])
					}
				}
			}
		}
	}
}
