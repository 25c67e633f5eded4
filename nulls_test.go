package byteslice_test

import (
	"testing"

	"byteslice"
)

// nullsTable: v = [10, 20, 30, 40, 50] with rows 1 and 3 NULL,
//
//	w = [1, 2, 3, 4, 5] with no NULLs.
func nullsTable(t *testing.T) (*byteslice.Table, *byteslice.Column) {
	t.Helper()
	v, err := byteslice.NewIntColumn("v", []int64{10, 20, 30, 40, 50}, 0, 100,
		byteslice.WithNulls([]int{1, 3}))
	if err != nil {
		t.Fatal(err)
	}
	w, err := byteslice.NewIntColumn("w", []int64{1, 2, 3, 4, 5}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(v, w)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, v
}

func TestNullMetadata(t *testing.T) {
	_, v := nullsTable(t)
	if !v.Nullable() || v.NullCount() != 2 {
		t.Fatalf("Nullable=%v NullCount=%d", v.Nullable(), v.NullCount())
	}
	if !v.IsNull(1) || !v.IsNull(3) || v.IsNull(0) {
		t.Fatal("IsNull wrong")
	}
}

func TestNullsExcludedFromScans(t *testing.T) {
	tbl, _ := nullsTable(t)
	// v ≥ 20 matches rows 1..4 by value, but 1 and 3 are NULL.
	res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Ge, 20)})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 || rows[0] != 2 || rows[1] != 4 {
		t.Fatalf("rows = %v, want [2 4]", rows)
	}
	// Ne must also exclude NULLs: v ≠ 30 is true for 10, NULL, NULL, 50.
	res, _ = tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Ne, 30)})
	if got := res.Rows(); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("Ne rows = %v, want [0 4]", got)
	}
}

func TestNullsInConjunctionAllStrategies(t *testing.T) {
	tbl, _ := nullsTable(t)
	filters := []byteslice.Filter{
		byteslice.IntFilter("w", byteslice.Ge, 2),  // rows 1..4
		byteslice.IntFilter("v", byteslice.Le, 40), // rows 0..3 by value, NULLs out ⇒ {0,2}
	}
	for _, s := range []byteslice.Strategy{byteslice.StrategyBaseline, byteslice.StrategyColumnFirst, byteslice.StrategyPredicateFirst} {
		res, err := tbl.Filter(filters, byteslice.WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("strategy %d: rows = %v, want [2]", s, got)
		}
	}
}

func TestNullsInDisjunctionAllStrategies(t *testing.T) {
	tbl, _ := nullsTable(t)
	filters := []byteslice.Filter{
		byteslice.IntFilter("v", byteslice.Ge, 40), // {3,4} by value → {4} after NULLs
		byteslice.IntFilter("w", byteslice.Eq, 2),  // {1}
	}
	for _, s := range []byteslice.Strategy{byteslice.StrategyBaseline, byteslice.StrategyColumnFirst, byteslice.StrategyPredicateFirst} {
		res, err := tbl.FilterAny(filters, byteslice.WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
			t.Fatalf("strategy %d: rows = %v, want [1 4]", s, got)
		}
	}
	// Reversed order exercises the nullable column as the pipelined one.
	rev := []byteslice.Filter{filters[1], filters[0]}
	res, err := tbl.FilterAny(rev, byteslice.WithStrategy(byteslice.StrategyColumnFirst))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("reversed disjunction rows = %v", got)
	}
}

// TestNullsWithTrivialFilters pins the three-valued-logic corner: a
// trivially true predicate on a nullable column still excludes its NULLs.
func TestNullsWithTrivialFilters(t *testing.T) {
	tbl, _ := nullsTable(t)
	// v < 1000 is trivially true over the domain — but rows 1,3 are NULL.
	res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("trivially-true rows = %v, want [0 2 4]", got)
	}
	// In a disjunction it must not short-circuit to "everything" either.
	res, err = tbl.FilterAny([]byteslice.Filter{
		byteslice.IntFilter("v", byteslice.Lt, 1000),
		byteslice.IntFilter("w", byteslice.Eq, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Count(); got != 4 { // {0,2,4} ∪ {1}
		t.Fatalf("disjunction count = %d, want 4", got)
	}
	// Trivially false on a nullable column still annihilates an AND.
	res, _ = tbl.Filter([]byteslice.Filter{
		byteslice.IntFilter("v", byteslice.Lt, -5),
		byteslice.IntFilter("w", byteslice.Ge, 0),
	})
	if res.Count() != 0 {
		t.Fatalf("trivially-false AND count = %d", res.Count())
	}
	// A non-nullable trivially-true filter still short-circuits an OR.
	res, _ = tbl.FilterAny([]byteslice.Filter{
		byteslice.IntFilter("w", byteslice.Ge, 0),
		byteslice.IntFilter("v", byteslice.Eq, 30),
	})
	if res.Count() != 5 {
		t.Fatalf("non-nullable trivially-true OR count = %d", res.Count())
	}
}

func TestNullsMixedWithTrivialOnly(t *testing.T) {
	tbl, _ := nullsTable(t)
	// Only a trivially-true nullable filter: result = non-NULL rows.
	res, err := tbl.FilterAny([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Ge, -100)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 3 {
		t.Fatalf("count = %d, want 3", res.Count())
	}
}

func TestWithNullsValidation(t *testing.T) {
	if _, err := byteslice.NewIntColumn("v", []int64{1}, 0, 10, byteslice.WithNulls([]int{5})); err == nil {
		t.Fatal("out-of-range null row should error")
	}
	if _, err := byteslice.NewIntColumn("v", []int64{1}, 0, 10, byteslice.WithNulls([]int{-1})); err == nil {
		t.Fatal("negative null row should error")
	}
	c, err := byteslice.NewIntColumn("v", []int64{1, 2}, 0, 10, byteslice.WithNulls(nil))
	if err != nil || c.Nullable() {
		t.Fatal("empty null set should mean not nullable")
	}
}

// TestMatchAllModelledOrder pins where the selectivity sort puts a
// match-all filter (trivially true on a nullable column) under WithProfile:
// at selectivity 1, last in a conjunction and first in a disjunction. Each
// sorted query must cost exactly the modelled instructions of that order
// written out, with dense and with sparse NULLs.
func TestMatchAllModelledOrder(t *testing.T) {
	const n = 16 << 10
	for _, every := range []int{5, 997} {
		av, bv := make([]int64, n), make([]int64, n)
		var nulls []int
		for i := range av {
			av[i], bv[i] = int64(i%100), int64(i%7)
			if i%every == 0 {
				nulls = append(nulls, i)
			}
		}
		tbl, err := byteslice.NewTable(
			intColumn(t, "a", av, 0, 99, byteslice.WithNulls(nulls)),
			intColumn(t, "b", bv, 0, 6),
		)
		if err != nil {
			t.Fatal(err)
		}
		all := byteslice.IntFilter("a", byteslice.Ge, -5) // below the domain: match-all
		b3 := byteslice.IntFilter("b", byteslice.Eq, 3)
		cost := func(filters []byteslice.Filter, disjunct bool, opts ...byteslice.QueryOption) (uint64, int) {
			t.Helper()
			p := byteslice.NewProfile()
			eval := tbl.Filter
			if disjunct {
				eval = tbl.FilterAny
			}
			res, err := eval(filters, append(opts, byteslice.WithProfile(p))...)
			if err != nil {
				t.Fatal(err)
			}
			return p.Instructions(), res.Count()
		}
		for _, c := range []struct {
			disjunct      bool
			written, want []byteslice.Filter
		}{
			{false, []byteslice.Filter{all, b3}, []byteslice.Filter{b3, all}},
			{true, []byteslice.Filter{b3, all}, []byteslice.Filter{all, b3}},
		} {
			got, gotN := cost(c.written, c.disjunct)
			want, wantN := cost(c.want, c.disjunct, byteslice.WithFilterOrder(byteslice.OrderAsWritten))
			if gotN != wantN || got != want {
				t.Errorf("NULL every %d rows, disjunct %v: sorted query %d matches, %d modelled instructions; want %d, %d",
					every, c.disjunct, gotN, got, wantN, want)
			}
		}
	}
}
