package byteslice_test

import (
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"byteslice"
)

func intColumn(t *testing.T, name string, vals []int64, min, max int64, opts ...byteslice.ColumnOption) *byteslice.Column {
	t.Helper()
	c, err := byteslice.NewIntColumn(name, vals, min, max, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQuickstartFlow(t *testing.T) {
	temps := []int64{12, 35, 28, 41, 7, 33, 35}
	cities := []string{"Melbourne", "Melbourne", "Sydney", "Perth", "Hobart", "Melbourne", "Sydney"}
	temp := intColumn(t, "temp_c", temps, -40, 60)
	city, err := byteslice.NewStringColumn("city", cities)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(temp, city)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("temp_c", byteslice.Gt, 30),
		byteslice.StringFilter("city", byteslice.Eq, "Melbourne"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 5 {
		t.Fatalf("rows = %v, want [1 5]", rows)
	}
	v, err := temp.LookupInt(nil, int(rows[0]))
	if err != nil || v != 35 {
		t.Fatalf("LookupInt = %d, %v", v, err)
	}
	s, err := city.LookupString(nil, 3)
	if err != nil || s != "Perth" {
		t.Fatalf("LookupString = %q, %v", s, err)
	}
}

// TestAllFormatsAgree runs the same query on every format.
func TestAllFormatsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5)) //nolint:gosec
	n := 3000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.IntN(10000)) - 5000
	}
	var want []int32
	for _, f := range byteslice.Formats() {
		col := intColumn(t, "v", vals, -5000, 5000, byteslice.WithFormat(f))
		if col.Format() != f {
			t.Fatalf("Format = %s, want %s", col.Format(), f)
		}
		tbl, _ := byteslice.NewTable(col)
		res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Between, -100, 250)})
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Rows()
		if want == nil {
			want = rows
			// Verify against the data directly.
			cnt := 0
			for _, v := range vals {
				if v >= -100 && v <= 250 {
					cnt++
				}
			}
			if len(rows) != cnt {
				t.Fatalf("%s: %d rows, want %d", f, len(rows), cnt)
			}
			continue
		}
		if len(rows) != len(want) {
			t.Fatalf("%s disagrees: %d vs %d rows", f, len(rows), len(want))
		}
		for i := range rows {
			if rows[i] != want[i] {
				t.Fatalf("%s disagrees at %d", f, i)
			}
		}
	}
}

func TestOutOfDomainConstants(t *testing.T) {
	col := intColumn(t, "v", []int64{10, 20, 30}, 10, 30)
	tbl, _ := byteslice.NewTable(col)
	cases := []struct {
		f    byteslice.Filter
		want int
	}{
		{byteslice.IntFilter("v", byteslice.Lt, 5), 0},
		{byteslice.IntFilter("v", byteslice.Lt, 100), 3},
		{byteslice.IntFilter("v", byteslice.Ge, 100), 0},
		{byteslice.IntFilter("v", byteslice.Le, 5), 0},
		{byteslice.IntFilter("v", byteslice.Gt, 5), 3},
		{byteslice.IntFilter("v", byteslice.Eq, 99), 0},
		{byteslice.IntFilter("v", byteslice.Ne, 99), 3},
		{byteslice.IntFilter("v", byteslice.Between, -5, 15), 1},
		{byteslice.IntFilter("v", byteslice.Between, 15, 99), 2},
		{byteslice.IntFilter("v", byteslice.Between, 40, 50), 0},
		{byteslice.IntFilter("v", byteslice.Between, -9, 99), 3},
	}
	for i, c := range cases {
		res, err := tbl.Filter([]byteslice.Filter{c.f})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Count() != c.want {
			t.Fatalf("case %d: count %d, want %d", i, res.Count(), c.want)
		}
	}
}

func TestTrivialFilterCombination(t *testing.T) {
	col := intColumn(t, "v", []int64{1, 2, 3, 4}, 0, 10)
	tbl, _ := byteslice.NewTable(col)

	// Neutral trivial filter in a conjunction: v < 100 AND v > 2.
	res, err := tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("v", byteslice.Lt, 100),
		byteslice.IntFilter("v", byteslice.Gt, 2),
	})
	if err != nil || res.Count() != 2 {
		t.Fatalf("count = %d, %v", res.Count(), err)
	}
	// Absorbing trivial filter: v < -5 AND anything = nothing.
	res, _ = tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("v", byteslice.Lt, -5),
		byteslice.IntFilter("v", byteslice.Gt, 2),
	})
	if res.Count() != 0 {
		t.Fatalf("absorbing false: count = %d", res.Count())
	}
	// Disjunction with an absorbing true: v > 100 OR v ≥ -7 = everything.
	res, _ = tbl.FilterAny([]byteslice.Filter{
		byteslice.IntFilter("v", byteslice.Gt, 100),
		byteslice.IntFilter("v", byteslice.Ge, -7),
	})
	if res.Count() != 4 {
		t.Fatalf("absorbing true: count = %d", res.Count())
	}
	// Disjunction of only-neutral filters = nothing.
	res, _ = tbl.FilterAny([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Gt, 100)})
	if res.Count() != 0 {
		t.Fatalf("neutral disjunction: count = %d", res.Count())
	}
	// Conjunction of only-neutral filters = everything.
	res, _ = tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 100)})
	if res.Count() != 4 {
		t.Fatalf("neutral conjunction: count = %d", res.Count())
	}
}

func TestStringRangeSemantics(t *testing.T) {
	vals := []string{"apple", "banana", "cherry", "banana", "fig"}
	col, err := byteslice.NewStringColumn("fruit", vals)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := byteslice.NewTable(col)
	cases := []struct {
		f    byteslice.Filter
		want int
	}{
		{byteslice.StringFilter("fruit", byteslice.Eq, "banana"), 2},
		{byteslice.StringFilter("fruit", byteslice.Eq, "durian"), 0},
		{byteslice.StringFilter("fruit", byteslice.Ne, "durian"), 5},
		{byteslice.StringFilter("fruit", byteslice.Lt, "banana"), 1},
		{byteslice.StringFilter("fruit", byteslice.Lt, "blueberry"), 3}, // apple + 2×banana
		{byteslice.StringFilter("fruit", byteslice.Le, "banana"), 3},
		{byteslice.StringFilter("fruit", byteslice.Gt, "banana"), 2}, // cherry, fig
		{byteslice.StringFilter("fruit", byteslice.Gt, "blueberry"), 2},
		{byteslice.StringFilter("fruit", byteslice.Ge, "cherry"), 2},
		{byteslice.StringFilter("fruit", byteslice.Ge, "zzz"), 0},
		{byteslice.StringFilter("fruit", byteslice.Lt, "aaa"), 0},
		{byteslice.StringFilter("fruit", byteslice.Lt, "zzz"), 5},
		{byteslice.StringFilter("fruit", byteslice.Between, "b", "c"), 2},
		{byteslice.StringFilter("fruit", byteslice.Between, "banana", "cherry"), 3},
		{byteslice.StringFilter("fruit", byteslice.Between, "x", "z"), 0},
	}
	for i, c := range cases {
		res, err := tbl.Filter([]byteslice.Filter{c.f})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Count() != c.want {
			t.Fatalf("case %d: count = %d, want %d", i, res.Count(), c.want)
		}
	}
}

func TestDecimalColumn(t *testing.T) {
	prices := []float64{9.99, 10.00, 10.01, 99.95}
	col, err := byteslice.NewDecimalColumn("price", prices, 0, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := byteslice.NewTable(col)
	res, err := tbl.Filter([]byteslice.Filter{byteslice.DecimalFilter("price", byteslice.Le, 10.00)})
	if err != nil || res.Count() != 2 {
		t.Fatalf("count = %d, %v", res.Count(), err)
	}
	v, err := col.LookupDecimal(nil, 3)
	if err != nil || v != 99.95 {
		t.Fatalf("LookupDecimal = %v, %v", v, err)
	}
}

func TestStrategiesAgreePublic(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6)) //nolint:gosec
	n := 2000
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i], b[i] = int64(rng.IntN(1000)), int64(rng.IntN(1000))
	}
	tbl, _ := byteslice.NewTable(
		intColumn(t, "a", a, 0, 999),
		intColumn(t, "b", b, 0, 999),
	)
	filters := []byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 100),
		byteslice.IntFilter("b", byteslice.Ge, 500),
	}
	var baseAnd, baseOr int
	for i, s := range []byteslice.Strategy{byteslice.StrategyBaseline, byteslice.StrategyColumnFirst, byteslice.StrategyPredicateFirst, byteslice.StrategyAuto} {
		and, err := tbl.Filter(filters, byteslice.WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		or, err := tbl.FilterAny(filters, byteslice.WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			baseAnd, baseOr = and.Count(), or.Count()
			continue
		}
		if and.Count() != baseAnd || or.Count() != baseOr {
			t.Fatalf("strategy %d disagrees: %d/%d vs %d/%d", s, and.Count(), or.Count(), baseAnd, baseOr)
		}
	}
}

// TestStrategiesAgreeAllFormats checks every strategy against a scalar
// oracle on every format, on the native and the modelled path, for a
// three-column conjunction and disjunction, over uniform codes and over
// codes sorted across their domain (the shape ByteSliceC compresses).
func TestStrategiesAgreeAllFormats(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 12)) //nolint:gosec
	const n = 4567
	names, widths := []string{"a", "b", "c"}, []int{12, 17, 6}
	for _, sorted := range []bool{false, true} {
		raw := make([][]uint32, len(widths))
		for i, k := range widths {
			raw[i] = make([]uint32, n)
			for j := range raw[i] {
				raw[i][j] = uint32(rng.Uint64N(1 << uint(k)))
				if sorted {
					raw[i][j] = uint32(j << uint(k) / n)
				}
			}
		}
		strategiesAgree(t, names, widths, raw, sorted)
	}
}

// strategiesAgree runs TestStrategiesAgreeAllFormats over one data shape.
// Only sorted codes compress, so the ByteSliceC arm runs on those alone.
func strategiesAgree(t *testing.T, names []string, widths []int, raw [][]uint32, sorted bool) {
	t.Helper()
	n := len(raw[0])
	filters := []byteslice.Filter{
		byteslice.CodeFilter("a", byteslice.Lt, 2000),
		byteslice.CodeFilter("b", byteslice.Gt, 60000),
		byteslice.CodeFilter("c", byteslice.Between, 10, 40),
	}
	want := func(row int, disjunct bool) bool {
		a, b, c := raw[0][row] < 2000, raw[1][row] > 60000, raw[2][row] >= 10 && raw[2][row] <= 40
		if disjunct {
			return a || b || c
		}
		return a && b && c
	}
	for _, f := range append(byteslice.Formats(), byteslice.FormatByteSliceC) {
		if f == byteslice.FormatByteSliceC && !sorted {
			continue
		}
		cols := make([]*byteslice.Column, len(names))
		for i, name := range names {
			c, err := byteslice.NewCodeColumn(name, raw[i], widths[i], byteslice.WithFormat(f))
			if err != nil {
				t.Fatal(err)
			}
			if c.Format() != f {
				t.Fatalf("column %s: built as %s, want %s", name, c.Format(), f)
			}
			cols[i] = c
		}
		tbl, err := byteslice.NewTable(cols...)
		if err != nil {
			t.Fatal(err)
		}
		for _, disjunct := range []bool{false, true} {
			eval := tbl.Filter
			if disjunct {
				eval = tbl.FilterAny
			}
			for _, s := range []byteslice.Strategy{byteslice.StrategyBaseline, byteslice.StrategyColumnFirst, byteslice.StrategyPredicateFirst} {
				for _, prof := range []*byteslice.Profile{nil, byteslice.NewProfile()} {
					res, err := eval(filters, byteslice.WithStrategy(s), byteslice.WithProfile(prof))
					if err != nil {
						t.Fatalf("%s/%v: %v", f, s, err)
					}
					for row := 0; row < n; row++ {
						if res.Contains(row) != want(row, disjunct) {
							t.Fatalf("%s/%v sorted=%v disjunct=%v profiled=%v: row %d wrong", f, s, sorted, disjunct, prof != nil, row)
						}
					}
				}
			}
		}
	}
}

// TestConcurrentColumnBuilds builds columns from several goroutines at
// once: every constructor, re-layout and background merge allocates its
// simulated address region from one process-wide arena, so building must
// be race-free (this test is meant for -race).
func TestConcurrentColumnBuilds(t *testing.T) {
	codes := make([]uint32, 1000)
	for i := range codes {
		codes[i] = uint32(i % 256)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50 && errs[g] == nil; i++ {
				_, errs[g] = byteslice.NewCodeColumn("c", codes, 8)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestProfileRecords(t *testing.T) {
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64(i % 4096)
	}
	tbl, _ := byteslice.NewTable(intColumn(t, "v", vals, 0, 4095))
	p := byteslice.NewProfile()
	if _, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 100)}, byteslice.WithProfile(p)); err != nil {
		t.Fatal(err)
	}
	if p.Instructions() == 0 || p.Cycles() == 0 {
		t.Fatal("profile recorded nothing")
	}
	perCode := p.Cycles() / float64(len(vals))
	if perCode > 2 {
		t.Fatalf("implausible scan cost: %.2f cycles/code", perCode)
	}
	if !strings.Contains(p.String(), "instr=") {
		t.Fatalf("String() = %q", p.String())
	}
	p.Reset()
	if p.Instructions() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestResultCombinators(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5}
	tbl, _ := byteslice.NewTable(intColumn(t, "v", vals, 0, 10))
	lt4, _ := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 4)})
	gt2, _ := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Gt, 2)})
	if got := lt4.And(gt2).Count(); got != 1 { // {3}
		t.Fatalf("And count = %d", got)
	}
	lt2, _ := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 2)})
	if got := lt2.Or(gt2).Count(); got != 4 { // {1,3,4,5}
		t.Fatalf("Or count = %d", got)
	}
	if !gt2.Contains(4) || gt2.Contains(0) {
		t.Fatal("Contains wrong")
	}
}

func TestErrors(t *testing.T) {
	col := intColumn(t, "v", []int64{1}, 0, 10)
	if _, err := byteslice.NewTable(); err == nil {
		t.Fatal("empty table should error")
	}
	other := intColumn(t, "w", []int64{1, 2}, 0, 10)
	if _, err := byteslice.NewTable(col, other); err == nil {
		t.Fatal("ragged table should error")
	}
	dup := intColumn(t, "v", []int64{2}, 0, 10)
	if _, err := byteslice.NewTable(col, dup); err == nil {
		t.Fatal("duplicate names should error")
	}
	tbl, _ := byteslice.NewTable(col)
	if _, err := tbl.Filter(nil); err == nil {
		t.Fatal("no filters should error")
	}
	if _, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("zzz", byteslice.Lt, 1)}); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, err := tbl.Filter([]byteslice.Filter{byteslice.StringFilter("v", byteslice.Eq, "x")}); err == nil {
		t.Fatal("kind mismatch should error")
	}
	if _, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Between, 1)}); err == nil {
		t.Fatal("arity mismatch should error")
	}
	if _, err := byteslice.NewIntColumn("v", []int64{100}, 0, 10); err == nil {
		t.Fatal("out-of-domain value should error")
	}
	if _, err := byteslice.NewIntColumn("v", []int64{1}, 0, 10, byteslice.WithFormat("Nope")); err == nil {
		t.Fatal("unknown format should error")
	}
	if _, err := byteslice.NewCodeColumn("c", []uint32{8}, 3); err == nil {
		t.Fatal("code exceeding width should error")
	}
	if _, err := byteslice.NewCodeColumn("c", []uint32{1}, 0); err == nil {
		t.Fatal("zero width should error")
	}
	if _, err := col.LookupString(nil, 0); err == nil {
		t.Fatal("LookupString on int column should error")
	}
	if _, err := col.LookupDecimal(nil, 0); err == nil {
		t.Fatal("LookupDecimal on int column should error")
	}
}

func TestCodeColumn(t *testing.T) {
	codes := []uint32{0, 7, 3, 7}
	col, err := byteslice.NewCodeColumn("c", codes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if col.Width() != 3 || col.Kind() != byteslice.KindCode {
		t.Fatalf("width=%d kind=%v", col.Width(), col.Kind())
	}
	tbl, _ := byteslice.NewTable(col)
	res, err := tbl.Filter([]byteslice.Filter{byteslice.CodeFilter("c", byteslice.Eq, 7)})
	if err != nil || res.Count() != 2 {
		t.Fatalf("count = %d, %v", res.Count(), err)
	}
	res, _ = tbl.Filter([]byteslice.Filter{byteslice.CodeFilter("c", byteslice.Le, 100)})
	if res.Count() != 4 {
		t.Fatalf("above-domain Le: count = %d", res.Count())
	}
	for i, want := range codes {
		if got := col.LookupCode(nil, i); got != want {
			t.Fatalf("LookupCode(%d) = %d", i, got)
		}
	}
}

func TestWithParallelism(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 50)) //nolint:gosec
	n := 200000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.IntN(1 << 16))
	}
	tbl, _ := byteslice.NewTable(intColumn(t, "v", vals, 0, 1<<16-1))
	filters := []byteslice.Filter{byteslice.IntFilter("v", byteslice.Between, 1000, 5000)}
	serial, err := tbl.Filter(filters)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := tbl.Filter(filters, byteslice.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if par.Count() != serial.Count() {
			t.Fatalf("workers=%d: %d matches, want %d", workers, par.Count(), serial.Count())
		}
	}
	// Multi-filter query: every scan parallelises, the second pipelined.
	twoCol, _ := byteslice.NewTable(
		intColumn(t, "a", vals, 0, 1<<16-1),
		intColumn(t, "b", vals, 0, 1<<16-1),
	)
	two := []byteslice.Filter{
		byteslice.IntFilter("a", byteslice.Lt, 30000),
		byteslice.IntFilter("b", byteslice.Ge, 10000),
	}
	ser, _ := twoCol.Filter(two)
	par, err := twoCol.Filter(two, byteslice.WithParallelism(4))
	if err != nil || par.Count() != ser.Count() {
		t.Fatalf("multi-filter parallel: %d vs %d (%v)", par.Count(), ser.Count(), err)
	}
}

func TestProjectTyped(t *testing.T) {
	qty := intColumn(t, "qty", []int64{5, 50, 7, 90}, 0, 100, byteslice.WithNulls([]int{2}))
	price, err := byteslice.NewDecimalColumn("price", []float64{1.5, 2.5, 3.5, 4.5}, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := byteslice.NewStringColumn("mode", []string{"a", "b", "a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := byteslice.NewTable(qty, price, mode)
	res, err := tbl.Filter([]byteslice.Filter{byteslice.DecimalFilter("price", byteslice.Ge, 2.5)})
	if err != nil {
		t.Fatal(err)
	}

	rows, vals, err := tbl.ProjectInt("qty", res)
	if err != nil {
		t.Fatal(err)
	}
	// Matching rows are 1,2,3 but row 2 is NULL in qty.
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 3 || vals[0] != 50 || vals[1] != 90 {
		t.Fatalf("ProjectInt = %v %v", rows, vals)
	}
	_, dvals, err := tbl.ProjectDecimal("price", res)
	if err != nil || len(dvals) != 3 || dvals[0] != 2.5 || dvals[2] != 4.5 {
		t.Fatalf("ProjectDecimal = %v (%v)", dvals, err)
	}
	_, svals, err := tbl.ProjectString("mode", res)
	if err != nil || len(svals) != 3 || svals[0] != "b" || svals[2] != "c" {
		t.Fatalf("ProjectString = %v (%v)", svals, err)
	}

	if _, _, err := tbl.ProjectInt("qty", nil); err == nil {
		t.Fatal("nil result should error")
	}
	if _, _, err := tbl.ProjectInt("mode", res); err == nil {
		t.Fatal("kind mismatch should error")
	}
}

func TestOrderBy(t *testing.T) {
	vals := []int64{50, 10, 40, 10, 30, 99}
	for _, f := range byteslice.Formats() {
		col := intColumn(t, "v", vals, 0, 100, byteslice.WithFormat(f))
		tbl, _ := byteslice.NewTable(col)
		res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 60)})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := tbl.OrderBy("v", res)
		if err != nil {
			t.Fatal(err)
		}
		// Values < 60 sorted ascending with stable ties: 10(row1), 10(row3), 30, 40, 50.
		want := []int32{1, 3, 4, 2, 0}
		if len(rows) != len(want) {
			t.Fatalf("%s: rows = %v", f, rows)
		}
		for i := range want {
			if rows[i] != want[i] {
				t.Fatalf("%s: rows = %v, want %v", f, rows, want)
			}
		}
	}

	// NULLs in the sort column are excluded.
	col := intColumn(t, "v", vals, 0, 100, byteslice.WithNulls([]int{4}))
	tbl, _ := byteslice.NewTable(col)
	all, _ := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Ge, 0)})
	rows, err := tbl.OrderBy("v", all)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r == 4 {
			t.Fatal("NULL row in OrderBy output")
		}
	}
	if _, err := tbl.OrderBy("v", nil); err == nil {
		t.Fatal("nil result accepted")
	}
	if _, err := tbl.OrderBy("zzz", all); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestWithZoneMaps(t *testing.T) {
	n := 1 << 16
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) // sorted
	}
	zoned := intColumn(t, "v", vals, 0, int64(n-1), byteslice.WithZoneMaps())
	plain := intColumn(t, "v", vals, 0, int64(n-1))
	tz, _ := byteslice.NewTable(zoned)
	tp, _ := byteslice.NewTable(plain)
	f := []byteslice.Filter{byteslice.IntFilter("v", byteslice.Between, 1000, 2000)}

	pz := byteslice.NewProfile()
	rz, err := tz.Filter(f, byteslice.WithProfile(pz))
	if err != nil {
		t.Fatal(err)
	}
	pp := byteslice.NewProfile()
	rp, err := tp.Filter(f, byteslice.WithProfile(pp))
	if err != nil {
		t.Fatal(err)
	}
	if rz.Count() != rp.Count() || rz.Count() != 1001 {
		t.Fatalf("zone-mapped result differs: %d vs %d", rz.Count(), rp.Count())
	}
	if pz.Instructions()*2 > pp.Instructions() {
		t.Fatalf("zone maps should cut instructions on sorted data: %d vs %d",
			pz.Instructions(), pp.Instructions())
	}
	// Option is a no-op on other formats.
	hbpCol := intColumn(t, "v", vals, 0, int64(n-1), byteslice.WithZoneMaps(), byteslice.WithFormat(byteslice.FormatHBP))
	th, _ := byteslice.NewTable(hbpCol)
	rh, err := th.Filter(f)
	if err != nil || rh.Count() != 1001 {
		t.Fatalf("HBP with zone-map option: %d (%v)", rh.Count(), err)
	}
}

// TestFacadeOddsAndEnds exercises the remaining small surfaces: fallback
// aggregation paths on non-ByteSlice formats, AnyFilters, NullCount.
func TestFacadeOddsAndEnds(t *testing.T) {
	vals := []int64{5, 1, 9, 3}
	col := intColumn(t, "v", vals, 0, 10, byteslice.WithFormat(byteslice.FormatHBP))
	tbl, _ := byteslice.NewTable(col)

	// extremeCode fallback (HBP has no SIMD min/max).
	if mn, ok, _ := tbl.MinInt("v", nil); !ok || mn != 1 {
		t.Fatalf("HBP MinInt = %d", mn)
	}
	if mx, ok, _ := tbl.MaxInt("v", nil); !ok || mx != 9 {
		t.Fatalf("HBP MaxInt = %d", mx)
	}
	res, _ := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Gt, 2)})
	if mn, ok, _ := tbl.MinInt("v", res); !ok || mn != 3 {
		t.Fatalf("HBP filtered MinInt = %d", mn)
	}

	// AnyFilters.
	r2, err := tbl.Query(byteslice.AnyFilters(
		byteslice.IntFilter("v", byteslice.Eq, 1),
		byteslice.IntFilter("v", byteslice.Eq, 9),
	))
	if err != nil || r2.Count() != 2 {
		t.Fatalf("AnyFilters count = %d (%v)", r2.Count(), err)
	}

	// NullCount on a non-nullable column.
	if col.NullCount() != 0 || col.Nullable() {
		t.Fatal("non-nullable column reports nulls")
	}

	// Kind strings.
	for k, want := range map[byteslice.Kind]string{
		byteslice.KindInt: "int", byteslice.KindDecimal: "decimal",
		byteslice.KindString: "string", byteslice.KindCode: "code",
	} {
		if k.String() != want {
			t.Fatalf("Kind.String = %q", k.String())
		}
	}

	// LookupInt error path on a mismatched kind is covered elsewhere; the
	// happy path across formats:
	for _, f := range byteslice.Formats() {
		c := intColumn(t, "x", vals, 0, 10, byteslice.WithFormat(f))
		if v, err := c.LookupInt(nil, 2); err != nil || v != 9 {
			t.Fatalf("%s LookupInt = %d (%v)", f, v, err)
		}
	}
}

// TestPersistDeltaInterplay merges an ingest delta and round-trips the
// merged base, through WriteTo/ReadTable and from the epoch's snapshot
// file on disk.
func TestPersistDeltaInterplay(t *testing.T) {
	col := intColumn(t, "v", []int64{1, 2}, 0, 100)
	tbl, _ := byteslice.NewTable(col)
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, tbl, byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close() //nolint:errcheck // test cleanup
	if err := it.Append(map[string]any{"v": int64(42)}); err != nil {
		t.Fatal(err)
	}
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	fromFile, err := byteslice.LoadFile(filepath.Join(dir, "base-2.bslc"))
	if err != nil {
		t.Fatal(err)
	}
	for what, got := range map[string]*byteslice.Table{
		"round trip": roundTripTable(t, it.Base()),
		"epoch file": fromFile,
	} {
		c, _ := got.Column("v")
		if v, _ := c.LookupInt(nil, 2); v != 42 {
			t.Fatalf("%s: merged value = %d", what, v)
		}
		res, _ := got.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Gt, 10)})
		if res.Count() != 1 {
			t.Fatalf("%s: count = %d", what, res.Count())
		}
	}
}

// TestOnePredicateFilterAllocatesOneVector: a one-predicate Filter
// allocates its result bit vector and little else — no second
// table-length vector for a conjunct that never comes.
func TestOnePredicateFilterAllocatesOneVector(t *testing.T) {
	const rows = 1 << 20
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i*7919) % 1000
	}
	tbl, err := byteslice.NewTable(intColumn(t, "v", vals, 0, 999))
	if err != nil {
		t.Fatal(err)
	}
	f := []byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 100)}
	if _, err := tbl.Filter(f); err != nil { // warm-up: lazily built state
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := tbl.Filter(f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if vector := float64(rows / 8); perRun >= 1.5*vector {
		t.Fatalf("one-predicate Filter allocates %.0f B per run, want < 1.5 × the %.0f B result vector", perRun, vector)
	}
}
