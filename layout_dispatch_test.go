package byteslice_test

import (
	"bytes"
	"math/rand"
	"testing"

	"byteslice"
)

// layoutTestTable builds one table per storage layout over the same values
// so queries can be compared across layouts.
func layoutTestTable(t *testing.T, n int, format byteslice.Format) *byteslice.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	price := make([]int64, n)
	qty := make([]int64, n)
	for i := 0; i < n; i++ {
		price[i] = int64(rng.Intn(100000))
		qty[i] = int64(rng.Intn(50))
	}
	var opts []byteslice.ColumnOption
	if format != "" {
		opts = append(opts, byteslice.WithFormat(format))
	}
	pc, err := byteslice.NewIntColumn("price", price, 0, 100000, opts...)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := byteslice.NewIntColumn("qty", qty, 0, 49, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(pc, qc)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestHBPDispatchDifferential pins the native HBP query path — filter,
// conjunction, disjunction, projection, ORDER BY — row-identical to the
// same queries on the default ByteSlice layout.
func TestHBPDispatchDifferential(t *testing.T) {
	const n = 20000
	bsT := layoutTestTable(t, n, "")
	hbpT := layoutTestTable(t, n, byteslice.FormatHBP)
	if c, _ := hbpT.Column("price"); c.Format() != byteslice.FormatHBP {
		t.Fatalf("format = %s, want HBP", c.Format())
	}

	queries := [][]byteslice.Filter{
		{byteslice.IntFilter("price", byteslice.Lt, 30000)},
		{byteslice.IntFilter("price", byteslice.Between, 20000, 60000),
			byteslice.IntFilter("qty", byteslice.Ge, 25)},
		{byteslice.IntFilter("price", byteslice.Eq, price0(bsT, t)),
			byteslice.IntFilter("qty", byteslice.Ne, 7)},
	}
	for qi, fs := range queries {
		want, err := bsT.Filter(fs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hbpT.Filter(fs)
		if err != nil {
			t.Fatal(err)
		}
		wr, gr := want.Rows(), got.Rows()
		if len(wr) != len(gr) {
			t.Fatalf("query %d: %d rows on HBP, want %d", qi, len(gr), len(wr))
		}
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("query %d row %d: %d != %d", qi, i, gr[i], wr[i])
			}
		}

		wRows, wVals, err := bsT.ProjectInt("price", want)
		if err != nil {
			t.Fatal(err)
		}
		gRows, gVals, err := hbpT.ProjectInt("price", got)
		if err != nil {
			t.Fatal(err)
		}
		if len(wVals) != len(gVals) {
			t.Fatalf("query %d: projection sizes differ", qi)
		}
		for i := range wVals {
			if wRows[i] != gRows[i] || wVals[i] != gVals[i] {
				t.Fatalf("query %d projection %d: (%d,%d) != (%d,%d)", qi, i, gRows[i], gVals[i], wRows[i], wVals[i])
			}
		}

		wOrd, err := bsT.OrderBy("qty", want)
		if err != nil {
			t.Fatal(err)
		}
		gOrd, err := hbpT.OrderBy("qty", got)
		if err != nil {
			t.Fatal(err)
		}
		if len(wOrd) != len(gOrd) {
			t.Fatalf("query %d: order sizes differ", qi)
		}
		for i := range wOrd {
			if wOrd[i] != gOrd[i] {
				t.Fatalf("query %d order %d: %d != %d", qi, i, gOrd[i], wOrd[i])
			}
		}
	}
}

// price0 reads row 0 of price so an Eq filter has a guaranteed match.
func price0(tbl *byteslice.Table, t *testing.T) int64 {
	t.Helper()
	c, err := tbl.Column("price")
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.LookupInt(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWithLayoutRoundTrip converts a column to HBP and back, checking the
// format tag and query results at each step, and that columns already in
// the requested layout pass through while the receiver stays untouched.
func TestWithLayoutRoundTrip(t *testing.T) {
	tbl := layoutTestTable(t, 5000, "")
	want, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("price", byteslice.Lt, 40000)})
	if err != nil {
		t.Fatal(err)
	}
	origPrice, _ := tbl.Column("price")
	origQty, _ := tbl.Column("qty")

	ht, err := tbl.WithLayout(byteslice.FormatHBP, "price")
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := ht.Column("price")
	qc, _ := ht.Column("qty")
	if pc.Format() != byteslice.FormatHBP || qc.Format() != byteslice.FormatByteSlice {
		t.Fatalf("formats after WithLayout: price=%s qty=%s", pc.Format(), qc.Format())
	}
	if qc != origQty {
		t.Fatal("WithLayout rebuilt qty, which it was not asked to re-lay out")
	}
	if c, _ := tbl.Column("price"); c != origPrice || c.Format() != byteslice.FormatByteSlice {
		t.Fatalf("WithLayout modified the receiver: price is %s", c.Format())
	}
	if c, _ := tbl.Column("qty"); c != origQty {
		t.Fatal("WithLayout replaced the receiver's qty column")
	}
	got, err := ht.Filter([]byteslice.Filter{byteslice.IntFilter("price", byteslice.Lt, 40000)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != want.Count() {
		t.Fatalf("HBP count %d, want %d", got.Count(), want.Count())
	}

	back, err := ht.WithLayout(byteslice.FormatByteSlice)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ = back.Column("price")
	if pc.Format() != byteslice.FormatByteSlice {
		t.Fatalf("format after round trip: %s", pc.Format())
	}
	// qty was named (all columns are) but is already ByteSlice.
	if qc, _ := back.Column("qty"); qc != origQty {
		t.Fatal("WithLayout rebuilt qty, already in the requested layout")
	}
	got, err = back.Filter([]byteslice.Filter{byteslice.IntFilter("price", byteslice.Lt, 40000)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != want.Count() {
		t.Fatalf("round-trip count %d, want %d", got.Count(), want.Count())
	}

	if _, err := tbl.WithLayout(byteslice.Format("nope")); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := tbl.WithLayout(byteslice.FormatHBP, "absent"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

// TestChosenLayoutPersists snapshots a re-laid-out table and checks the
// chosen per-column layout — not the build default — comes back from the
// v2 stream, with queries intact.
func TestChosenLayoutPersists(t *testing.T) {
	tbl := layoutTestTable(t, 5000, "")
	ht, err := tbl.WithLayout(byteslice.FormatHBP, "price")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ht.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := byteslice.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := got.Column("price")
	qc, _ := got.Column("qty")
	if pc.Format() != byteslice.FormatHBP || qc.Format() != byteslice.FormatByteSlice {
		t.Fatalf("loaded formats: price=%s qty=%s, want HBP/ByteSlice", pc.Format(), qc.Format())
	}
	want, err := ht.Filter([]byteslice.Filter{byteslice.IntFilter("price", byteslice.Between, 10000, 50000)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Filter([]byteslice.Filter{byteslice.IntFilter("price", byteslice.Between, 10000, 50000)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != want.Count() {
		t.Fatalf("loaded count %d, want %d", res.Count(), want.Count())
	}
}
