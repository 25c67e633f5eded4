package byteslice_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// TestDispatchMatrix runs every operation the layout dispatch serves —
// Filter and FilterAny (a scan of the layout under test, a pipelined raw
// ByteSlice conjunct and a match-all filter), ProjectInt, SumInt,
// MinInt/MaxInt, SumIntBy and LookupCode — on every layout, with and
// without NULLs, natively and profiled, against plain-loop oracles. Each
// profiled case runs at WithParallelism(1) and at WithParallelism(4) and
// must report identical modelled counters: the modelled path runs
// serially whatever the pool size.
func TestDispatchMatrix(t *testing.T) {
	const n = 4099 // a partial final segment; long enough for ByteSliceC
	rng := rand.New(rand.NewSource(29))
	vals := make([]int64, n) // sorted over [0, 999]: ByteSliceC compresses it
	ws := make([]int64, n)   // uniform over [0, 99]
	gs := make([]int64, n)   // group keys in [0, 3]
	ms := make([]int64, n)   // uniform over [0, 9], NULL every 5th row
	var mNulls []int
	for i := range vals {
		vals[i] = int64(i * 1000 / n)
		ws[i], gs[i], ms[i] = int64(rng.Intn(100)), int64(rng.Intn(4)), int64(rng.Intn(10))
		if i%5 == 0 {
			mNulls = append(mNulls, i)
		}
	}
	w := intColumn(t, "w", ws, 0, 99)
	g := intColumn(t, "g", gs, 0, 3)
	m := intColumn(t, "m", ms, 0, 9, byteslice.WithNulls(mNulls))

	mAll := byteslice.IntFilter("m", byteslice.Ge, -1) // below m's domain: match-all
	queries := []struct {
		disjunct bool
		fs       []byteslice.Filter
		want     func(v int64, vNull bool, i int) bool
	}{
		{false, []byteslice.Filter{byteslice.IntFilter("v", byteslice.Between, 200, 700), byteslice.IntFilter("w", byteslice.Lt, 60), mAll},
			func(v int64, vNull bool, i int) bool { return !vNull && v >= 200 && v <= 700 && ws[i] < 60 && i%5 != 0 }},
		{false, []byteslice.Filter{byteslice.IntFilter("w", byteslice.Lt, 60), byteslice.IntFilter("v", byteslice.Ge, 300)},
			func(v int64, vNull bool, i int) bool { return !vNull && v >= 300 && ws[i] < 60 }},
		{true, []byteslice.Filter{byteslice.IntFilter("v", byteslice.Lt, 100), byteslice.IntFilter("w", byteslice.Eq, 7), mAll},
			func(v int64, vNull bool, i int) bool { return !vNull && v < 100 || ws[i] == 7 || i%5 != 0 }},
		{true, []byteslice.Filter{byteslice.IntFilter("w", byteslice.Eq, 7), byteslice.IntFilter("v", byteslice.Gt, 900)},
			func(v int64, vNull bool, i int) bool { return !vNull && v > 900 || ws[i] == 7 }},
	}

	for _, l := range []struct {
		name   string
		opt    byteslice.ColumnOption
		format byteslice.Format
	}{
		{"ByteSlice", byteslice.WithFormat(byteslice.FormatByteSlice), byteslice.FormatByteSlice},
		{"zoned", byteslice.WithZoneMaps(), byteslice.FormatByteSlice},
		{"ByteSliceC", byteslice.WithCompression(), byteslice.FormatByteSliceC},
		{"HBP", byteslice.WithFormat(byteslice.FormatHBP), byteslice.FormatHBP},
		{"BitPacked", byteslice.WithFormat(byteslice.FormatBitPacked), byteslice.FormatBitPacked},
		{"VBP", byteslice.WithFormat(byteslice.FormatVBP), byteslice.FormatVBP},
	} {
		for _, every := range []int{0, 7} {
			opts := []byteslice.ColumnOption{l.opt}
			var vNulls []int
			for i := 0; every > 0 && i < n; i += every {
				vNulls = append(vNulls, i)
			}
			if vNulls != nil {
				opts = append(opts, byteslice.WithNulls(vNulls))
			}
			v := intColumn(t, "v", vals, 0, 999, opts...)
			if v.Format() != l.format || v.HasZoneMaps() != (l.name == "zoned") {
				t.Fatalf("%s: built %s (zone maps %v)", l.name, v.Format(), v.HasZoneMaps())
			}
			tbl, err := byteslice.NewTable(v, w, g, m)
			if err != nil {
				t.Fatal(err)
			}
			isNull := func(i int) bool { return every > 0 && i%every == 0 }

			var counters [2]string
			for mode, workers := range []int{0, 1, 4} {
				var p *byteslice.Profile
				qopts := []byteslice.QueryOption{
					byteslice.WithFilterOrder(byteslice.OrderAsWritten),
					byteslice.WithStrategy(byteslice.StrategyColumnFirst),
				}
				if workers > 0 {
					p = byteslice.NewProfile()
					qopts = append(qopts, byteslice.WithProfile(p), byteslice.WithParallelism(workers))
				}
				name := fmt.Sprintf("%s nulls=%v workers=%d profiled=%v", l.name, every > 0, workers, p != nil)
				for qi, q := range queries {
					var want []int32
					for i := range vals {
						if q.want(vals[i], isNull(i), i) {
							want = append(want, int32(i))
						}
					}
					checkDispatch(t, fmt.Sprintf("%s query %d", name, qi), tbl, q.disjunct, q.fs, qopts, want, vals, gs, isNull)
				}
				for i, want := range vals {
					if got := v.LookupCode(p, i); int64(got) != want {
						t.Fatalf("%s: LookupCode(%d) = %d, want %d", name, i, got, want)
					}
				}
				if p != nil {
					counters[mode-1] = fmt.Sprintf("%s l2=%d", p, p.L2Misses())
				}
			}
			if counters[0] != counters[1] {
				t.Errorf("%s nulls=%v: modelled counters differ by pool size:\n  1 worker:  %s\n  4 workers: %s",
					l.name, every > 0, counters[0], counters[1])
			}
		}
	}
}

// checkDispatch runs one filter and the operations over its result
// against the oracle rows want (ascending) of v's values vals, grouped by
// gs.
func checkDispatch(t *testing.T, name string, tbl *byteslice.Table, disjunct bool, fs []byteslice.Filter, opts []byteslice.QueryOption,
	want []int32, vals, gs []int64, isNull func(int) bool) {
	t.Helper()
	eval := tbl.Filter
	if disjunct {
		eval = tbl.FilterAny
	}
	res, err := eval(fs, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := res.Rows(); !slices.Equal(got, want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}

	var rows []int32
	var sum, lo, hi int64
	groups := map[int64]byteslice.GroupSum{}
	for _, r := range want {
		if isNull(int(r)) {
			continue
		}
		x := vals[r]
		if len(rows) == 0 || x < lo {
			lo = x
		}
		if len(rows) == 0 || x > hi {
			hi = x
		}
		rows = append(rows, r)
		sum += x
		gsum := groups[gs[r]]
		gsum.Sum += float64(x)
		gsum.Count++
		groups[gs[r]] = gsum
	}

	gotRows, gotVals, err := tbl.ProjectInt("v", res, opts...)
	if err != nil || !slices.Equal(gotRows, rows) {
		t.Fatalf("%s: ProjectInt rows %d, want %d (%v)", name, len(gotRows), len(rows), err)
	}
	for i, r := range gotRows {
		if gotVals[i] != vals[r] {
			t.Fatalf("%s: ProjectInt row %d = %d, want %d", name, r, gotVals[i], vals[r])
		}
	}
	if s, c, err := tbl.SumInt("v", res, opts...); err != nil || s != sum || c != len(rows) {
		t.Fatalf("%s: SumInt = %d/%d, want %d/%d (%v)", name, s, c, sum, len(rows), err)
	}
	gotLo, okLo, err1 := tbl.MinInt("v", res, opts...)
	gotHi, okHi, err2 := tbl.MaxInt("v", res, opts...)
	if err1 != nil || err2 != nil || okLo != (len(rows) > 0) || okHi != okLo || okLo && (gotLo != lo || gotHi != hi) {
		t.Fatalf("%s: Min/Max = %d/%d (%v), want %d/%d (%v)", name, gotLo, gotHi, okLo, lo, hi, len(rows) > 0)
	}
	sums, err := tbl.SumIntBy("v", "g", res, opts...)
	if err != nil {
		t.Fatalf("%s: SumIntBy: %v", name, err)
	}
	if len(sums) != len(groups) {
		t.Fatalf("%s: SumIntBy returned %d groups, want %d", name, len(sums), len(groups))
	}
	for _, gsum := range sums {
		k := gsum.Key.(int64)
		if w := groups[k]; gsum.Sum != w.Sum || gsum.Count != w.Count {
			t.Fatalf("%s: SumIntBy group %d = %v/%d, want %v/%d", name, k, gsum.Sum, gsum.Count, w.Sum, w.Count)
		}
	}
}
