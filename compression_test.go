package byteslice_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"byteslice"
)

// compressibleInts builds a sorted (hence highly compressible) int column's
// values plus a second, noisy sequence that should stay raw.
func compressibleInts(n int) (sorted, noisy []int64) {
	rng := rand.New(rand.NewSource(42))
	sorted = make([]int64, n)
	noisy = make([]int64, n)
	v := int64(0)
	for i := 0; i < n; i++ {
		v += int64(rng.Intn(3))
		sorted[i] = v
		noisy[i] = int64(rng.Intn(1 << 20))
	}
	return sorted, noisy
}

// TestWithCompressionOption: the column option routes low-entropy ByteSlice
// columns into the compressed layout and leaves the decision observable.
func TestWithCompressionOption(t *testing.T) {
	sorted, noisy := compressibleInts(20000)
	sc, err := byteslice.NewIntColumn("sorted", sorted, 0, 1<<20, byteslice.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Compressed() || sc.Format() != byteslice.FormatByteSliceC {
		t.Fatalf("sorted column: compressed=%v format=%s, want compressed ByteSliceC", sc.Compressed(), sc.Format())
	}
	st := sc.CompressionStats()
	if st.Ratio <= 1 || st.Bytes >= st.RawBytes || st.Blocks == 0 {
		t.Fatalf("sorted column stats look wrong: %+v", st)
	}

	nc, err := byteslice.NewIntColumn("noisy", noisy, 0, 1<<20-1, byteslice.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	if nc.Compressed() {
		t.Fatalf("noisy column compressed (stats %+v), want raw fallback", nc.CompressionStats())
	}
	if nc.Format() != byteslice.FormatByteSlice {
		t.Fatalf("noisy column format %s, want ByteSlice fallback", nc.Format())
	}

	// The option must not override an explicit non-ByteSlice format.
	vc, err := byteslice.NewIntColumn("v", sorted, 0, 1<<20,
		byteslice.WithFormat(byteslice.FormatVBP), byteslice.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	if vc.Format() != byteslice.FormatVBP {
		t.Fatalf("explicit VBP column became %s", vc.Format())
	}
}

// compressionTables builds one raw and one compressed copy of the same
// table: a sorted int column (compresses), a clustered decimal column, a
// string column and a nullable int column.
func compressionTables(t *testing.T, n int) (raw, comp *byteslice.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sorted := make([]int64, n)
	decs := make([]float64, n)
	strs := make([]string, n)
	nullable := make([]int64, n)
	words := []string{"alder", "birch", "cedar", "elm", "fir", "gum", "hazel"}
	v := int64(0)
	var nulls []int
	for i := 0; i < n; i++ {
		v += int64(rng.Intn(3))
		sorted[i] = v
		decs[i] = float64((i/500)*10) + float64(rng.Intn(8))
		strs[i] = words[i%len(words)]
		nullable[i] = int64(i % 977)
		if i%53 == 0 {
			nulls = append(nulls, i)
		}
	}
	build := func(opts ...byteslice.ColumnOption) *byteslice.Table {
		t.Helper()
		withNulls := append(append([]byteslice.ColumnOption{}, opts...), byteslice.WithNulls(nulls))
		sc, err := byteslice.NewIntColumn("sorted", sorted, 0, 1<<20, opts...)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := byteslice.NewDecimalColumn("dec", decs, 0, float64((n/500)*10+8), 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := byteslice.NewStringColumn("word", strs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nu, err := byteslice.NewIntColumn("nullable", nullable, 0, 1000, withNulls...)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := byteslice.NewTable(sc, dc, st, nu)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	return build(), build(byteslice.WithCompression())
}

func sameRows(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompressedQueriesMatchRaw: every facade entry point — filters over
// all operators (including NULL columns and multi-predicate strategies),
// projections, ordering and aggregates — returns identical results on raw
// and compressed tables.
func TestCompressedQueriesMatchRaw(t *testing.T) {
	raw, comp := compressionTables(t, 30000)

	filters := [][]byteslice.Filter{
		{byteslice.IntFilter("sorted", byteslice.Le, 5000)},
		{byteslice.IntFilter("sorted", byteslice.Between, 2000, 9000)},
		{byteslice.IntFilter("sorted", byteslice.Eq, 123)},
		{byteslice.IntFilter("sorted", byteslice.Ne, 123)},
		{byteslice.IntFilter("sorted", byteslice.Gt, 1<<19)},
		{byteslice.DecimalFilter("dec", byteslice.Ge, 100)},
		{byteslice.IntFilter("nullable", byteslice.Lt, 500)},
		{
			byteslice.IntFilter("sorted", byteslice.Ge, 1000),
			byteslice.StringFilter("word", byteslice.Eq, "cedar"),
		},
		{
			byteslice.IntFilter("sorted", byteslice.Lt, 20000),
			byteslice.IntFilter("nullable", byteslice.Ge, 100),
			byteslice.DecimalFilter("dec", byteslice.Le, 400),
		},
	}
	for fi, fs := range filters {
		rr, err := raw.Filter(fs)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := comp.Filter(fs)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(rr.Rows(), cr.Rows()) {
			t.Fatalf("filter %d: raw %d rows, compressed %d rows diverge", fi, rr.Count(), cr.Count())
		}
		if len(fs) > 1 {
			ra, err := raw.FilterAny(fs)
			if err != nil {
				t.Fatal(err)
			}
			ca, err := comp.FilterAny(fs)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(ra.Rows(), ca.Rows()) {
				t.Fatalf("filterAny %d diverges", fi)
			}
		}
	}

	sel := []byteslice.Filter{byteslice.IntFilter("sorted", byteslice.Between, 3000, 12000)}
	rr, err := raw.Filter(sel)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := comp.Filter(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cr.Explain(), "compressed") {
		t.Fatalf("compressed plan explain lacks the compression annotation:\n%s", cr.Explain())
	}

	rRows, rVals, err := raw.ProjectInt("sorted", rr)
	if err != nil {
		t.Fatal(err)
	}
	cRows, cVals, err := comp.ProjectInt("sorted", cr)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rRows, cRows) || len(rVals) != len(cVals) {
		t.Fatal("projection rows diverge")
	}
	for i := range rVals {
		if rVals[i] != cVals[i] {
			t.Fatalf("projection value %d: raw %d compressed %d", i, rVals[i], cVals[i])
		}
	}

	ro, err := raw.OrderBy("nullable", rr)
	if err != nil {
		t.Fatal(err)
	}
	co, err := comp.OrderBy("nullable", cr)
	if err != nil {
		t.Fatal(err)
	}
	rn, _ := raw.Column("nullable")
	cn, _ := comp.Column("nullable")
	if len(ro) != len(co) {
		t.Fatalf("orderby lengths diverge: %d vs %d", len(ro), len(co))
	}
	for i := range ro {
		// Radix and comparison sorts may order equal keys differently
		// between the two tables; compare the sorted key sequence.
		rv, _ := rn.LookupInt(nil, int(ro[i]))
		cv, _ := cn.LookupInt(nil, int(co[i]))
		if rv != cv {
			t.Fatalf("orderby key %d: raw %d compressed %d", i, rv, cv)
		}
	}

	for _, res := range []*byteslice.Result{nil, rr} {
		cres := res
		if res != nil {
			cres = cr
		}
		rs, rc, err := raw.SumInt("sorted", res)
		if err != nil {
			t.Fatal(err)
		}
		cs, ccount, err := comp.SumInt("sorted", cres)
		if err != nil {
			t.Fatal(err)
		}
		if rs != cs || rc != ccount {
			t.Fatalf("sum diverges: raw %d/%d compressed %d/%d", rs, rc, cs, ccount)
		}
		rmin, rok, err := raw.MinInt("nullable", res)
		if err != nil {
			t.Fatal(err)
		}
		cmin, cok, err := comp.MinInt("nullable", cres)
		if err != nil {
			t.Fatal(err)
		}
		if rmin != cmin || rok != cok {
			t.Fatalf("min diverges: raw %d/%v compressed %d/%v", rmin, rok, cmin, cok)
		}
		rmax, _, err := raw.MaxInt("sorted", res)
		if err != nil {
			t.Fatal(err)
		}
		cmax, _, err := comp.MaxInt("sorted", cres)
		if err != nil {
			t.Fatal(err)
		}
		if rmax != cmax {
			t.Fatalf("max diverges: raw %d compressed %d", rmax, cmax)
		}
	}
}

// TestTableWithCompression: re-laying a table out as ByteSliceC runs the
// build-time compression decision on the named columns (all of them,
// whatever their layout, when no names are given) and reaches the same
// layouts as building with WithCompression; it rejects unknown names, is
// idempotent, and the rebuilt table answers queries identically.
func TestTableWithCompression(t *testing.T) {
	raw, built := compressionTables(t, 8192)
	comp, err := raw.WithLayout(byteslice.FormatByteSliceC)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := comp.Column("sorted")
	if !sc.Compressed() {
		t.Fatal("sorted column did not compress through WithLayout(FormatByteSliceC)")
	}
	for _, want := range built.Columns() {
		got, _ := comp.Column(want.Name())
		if got.Format() != want.Format() {
			t.Fatalf("column %s: re-layout gave %s, build gave %s", want.Name(), got.Format(), want.Format())
		}
	}
	f := []byteslice.Filter{byteslice.IntFilter("sorted", byteslice.Le, 2000)}
	rr, err := raw.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := comp.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rr.Rows(), cr.Rows()) {
		t.Fatal("table-level compression changed filter results")
	}

	one, err := raw.WithLayout(byteslice.FormatByteSliceC, "sorted")
	if err != nil {
		t.Fatal(err)
	}
	oc, _ := one.Column("sorted")
	if !oc.Compressed() {
		t.Fatal("named column did not compress")
	}
	od, _ := one.Column("dec")
	if od.Compressed() {
		t.Fatal("unnamed column was compressed")
	}
	if _, err := raw.WithLayout(byteslice.FormatByteSliceC, "missing"); err == nil {
		t.Fatal("unknown column name accepted")
	}
	// Idempotent: recompressing keeps already-compressed columns.
	again, err := comp.WithLayout(byteslice.FormatByteSliceC)
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := again.Column("sorted")
	if !ac.Compressed() {
		t.Fatal("recompression dropped the compressed layout")
	}
	// A non-ByteSlice column goes through the same decision.
	hbp, err := raw.WithLayout(byteslice.FormatHBP)
	if err != nil {
		t.Fatal(err)
	}
	fromHBP, err := hbp.WithLayout(byteslice.FormatByteSliceC)
	if err != nil {
		t.Fatal(err)
	}
	if hc, _ := fromHBP.Column("sorted"); !hc.Compressed() {
		t.Fatalf("HBP column re-laid-out as %s, want compressed", hc.Format())
	}
}

// TestWithLayoutCompressedKeepsZoneMaps: when compression does not pay,
// re-laying a zone-mapped ByteSlice column out as ByteSliceC leaves it
// raw ByteSlice with its zone maps, answering filters unchanged.
func TestWithLayoutCompressedKeepsZoneMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 16<<10)
	for i := range vals {
		vals[i] = int64(rng.Intn(4096))
	}
	col, err := byteslice.NewIntColumn("u", vals, 0, 4095, byteslice.WithZoneMaps())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := byteslice.NewTable(col)
	got, err := tbl.WithLayout(byteslice.FormatByteSliceC)
	if err != nil {
		t.Fatal(err)
	}
	gc, _ := got.Column("u")
	if gc.Format() != byteslice.FormatByteSlice || !gc.HasZoneMaps() {
		t.Fatalf("format %s, zone maps %v; want raw ByteSlice with zone maps", gc.Format(), gc.HasZoneMaps())
	}
	f := []byteslice.Filter{byteslice.IntFilter("u", byteslice.Lt, 1000)}
	want, err := tbl.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(want.Rows(), res.Rows()) {
		t.Fatal("re-layout changed filter results")
	}
}

// TestCompressedPersistRoundTrip: compressed columns serialise through the
// v2 stream and rebuild into the same deterministic layout with identical
// values, including the NULL vector.
func TestCompressedPersistRoundTrip(t *testing.T) {
	_, comp := compressionTables(t, 12000)
	var buf bytes.Buffer
	if _, err := comp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := byteslice.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := comp.Column("sorted")
	if !want.Compressed() {
		t.Fatal("precondition: sorted column should be compressed")
	}
	g, err := got.Column("sorted")
	if err != nil {
		t.Fatal(err)
	}
	if g.Format() != want.Format() {
		t.Fatalf("format %s after round trip, want %s", g.Format(), want.Format())
	}
	for i := 0; i < comp.Len(); i++ {
		if g.LookupCode(nil, i) != want.LookupCode(nil, i) {
			t.Fatalf("row %d diverges after round trip", i)
		}
	}
	gn, err := got.Column("nullable")
	if err != nil {
		t.Fatal(err)
	}
	wn, _ := comp.Column("nullable")
	if gn.NullCount() != wn.NullCount() {
		t.Fatalf("null count %d after round trip, want %d", gn.NullCount(), wn.NullCount())
	}
}
