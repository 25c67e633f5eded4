package byteslice_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"byteslice"
)

func roundTripTable(t *testing.T, tbl *byteslice.Table) *byteslice.Table {
	t.Helper()
	var buf bytes.Buffer
	n, err := tbl.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := byteslice.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(60, 60)) //nolint:gosec
	n := 1500
	ints := make([]int64, n)
	decs := make([]float64, n)
	strs := make([]string, n)
	codes := make([]uint32, n)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.IntN(10000)) - 5000
		decs[i] = float64(rng.IntN(100000)) / 100
		strs[i] = words[rng.IntN(len(words))]
		codes[i] = uint32(rng.IntN(1 << 13))
	}
	ic, err := byteslice.NewIntColumn("i", ints, -5000, 5000, byteslice.WithNulls([]int{3, 77, 1499}))
	if err != nil {
		t.Fatal(err)
	}
	dc, err := byteslice.NewDecimalColumn("d", decs, 0, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := byteslice.NewStringColumn("s", strs, byteslice.WithFormat(byteslice.FormatHBP))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := byteslice.NewCodeColumn("c", codes, 13, byteslice.WithFormat(byteslice.FormatVBP))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(ic, dc, sc, cc)
	if err != nil {
		t.Fatal(err)
	}

	got := roundTripTable(t, tbl)
	if got.Len() != n {
		t.Fatalf("rows = %d", got.Len())
	}
	gi, _ := got.Column("i")
	gd, _ := got.Column("d")
	gs, _ := got.Column("s")
	gc, _ := got.Column("c")
	if gs.Format() != byteslice.FormatHBP || gc.Format() != byteslice.FormatVBP ||
		gi.Format() != byteslice.FormatByteSlice {
		t.Fatalf("formats not preserved: %s %s %s", gi.Format(), gs.Format(), gc.Format())
	}
	if !gi.Nullable() || gi.NullCount() != 3 || !gi.IsNull(77) {
		t.Fatal("nulls not preserved")
	}
	for i := 0; i < n; i++ {
		if v, _ := gi.LookupInt(nil, i); v != ints[i] {
			t.Fatalf("int row %d: %d vs %d", i, v, ints[i])
		}
		if v, _ := gd.LookupDecimal(nil, i); v != decs[i] {
			t.Fatalf("decimal row %d: %v vs %v", i, v, decs[i])
		}
		if v, _ := gs.LookupString(nil, i); v != strs[i] {
			t.Fatalf("string row %d: %q vs %q", i, v, strs[i])
		}
		if v := gc.LookupCode(nil, i); v != codes[i] {
			t.Fatalf("code row %d: %d vs %d", i, v, codes[i])
		}
	}

	// Queries behave identically after the round trip.
	f := []byteslice.Filter{
		byteslice.IntFilter("i", byteslice.Between, -100, 400),
		byteslice.StringFilter("s", byteslice.Ne, "beta"),
	}
	want, err := tbl.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != want.Count() {
		t.Fatalf("filter after round trip: %d vs %d", res.Count(), want.Count())
	}
}

// TestPersistFormatOverride: a loaded table keeps its stored format and
// re-lays out through WithLayout like any other.
func TestPersistFormatOverride(t *testing.T) {
	col := intColumn(t, "v", []int64{1, 2, 3}, 0, 10, byteslice.WithFormat(byteslice.FormatBitPacked))
	tbl, _ := byteslice.NewTable(col)
	loaded := roundTripTable(t, tbl)
	if c, _ := loaded.Column("v"); c.Format() != byteslice.FormatBitPacked {
		t.Fatalf("stored format lost: %s", c.Format())
	}
	got, err := loaded.WithLayout(byteslice.FormatByteSlice)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := got.Column("v")
	if c.Format() != byteslice.FormatByteSlice {
		t.Fatalf("re-layout ignored: %s", c.Format())
	}
	if v, _ := c.LookupInt(nil, 2); v != 3 {
		t.Fatalf("value lost: %d", v)
	}
}

// TestPersistVersions: a v3 stream loads; the same stream declaring the
// retired unframed v1, or an unknown future version, fails with
// ErrVersion rather than being parsed as something it is not. (The v2
// fixture's load is TestSnapshotReadsV2Fixture.)
func TestPersistVersions(t *testing.T) {
	col := intColumn(t, "v", []int64{1, 2, 3}, 0, 10)
	tbl, _ := byteslice.NewTable(col)
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	if got, err := byteslice.ReadTable(bytes.NewReader(stream)); err != nil || got.Len() != 3 {
		t.Fatalf("v3 stream: %v", err)
	}
	for _, version := range []uint16{1, 4} {
		patched := append([]byte{}, stream...)
		binary.LittleEndian.PutUint16(patched[4:], version)
		_, err := byteslice.ReadTable(bytes.NewReader(patched))
		if !errors.Is(err, byteslice.ErrVersion) || errors.Is(err, byteslice.ErrCorrupt) {
			t.Fatalf("version %d: ReadTable = %v, want ErrVersion", version, err)
		}
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("BSLC\xff\xff"), // bad version
		[]byte("BSLC\x01\x00\x00\x00\x00\x00"),
	}
	for i, c := range cases {
		if _, err := byteslice.ReadTable(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
	// Truncated valid stream.
	col := intColumn(t, "v", []int64{1, 2, 3, 4, 5, 6, 7, 8}, 0, 10)
	tbl, _ := byteslice.NewTable(col)
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 12, len(full) / 2, len(full) - 3} {
		if _, err := byteslice.ReadTable(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestPersistQuickProperty round-trips randomly shaped tables and verifies
// every value, null and format survives.
func TestPersistQuickProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed uint64, nRaw uint16, fmtIdx uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^1)) //nolint:gosec
		n := int(nRaw)%300 + 1
		format := byteslice.Formats()[int(fmtIdx)%len(byteslice.Formats())]

		ints := make([]int64, n)
		strs := make([]string, n)
		var nulls []int
		words := []string{"aa", "bb", "cc", "dd"}
		for i := 0; i < n; i++ {
			ints[i] = int64(rng.IntN(5000)) - 2500
			strs[i] = words[rng.IntN(len(words))]
			if rng.IntN(7) == 0 {
				nulls = append(nulls, i)
			}
		}
		ic, err := byteslice.NewIntColumn("i", ints, -2500, 2500,
			byteslice.WithFormat(format), byteslice.WithNulls(nulls))
		if err != nil {
			return false
		}
		sc, err := byteslice.NewStringColumn("s", strs, byteslice.WithFormat(format))
		if err != nil {
			return false
		}
		tbl, err := byteslice.NewTable(ic, sc)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := tbl.WriteTo(&buf); err != nil {
			return false
		}
		got, err := byteslice.ReadTable(&buf)
		if err != nil || got.Len() != n {
			return false
		}
		gi, _ := got.Column("i")
		gs, _ := got.Column("s")
		if gi.Format() != format || gi.NullCount() != len(nulls) {
			return false
		}
		for i := 0; i < n; i++ {
			vi, _ := gi.LookupInt(nil, i)
			vs, _ := gs.LookupString(nil, i)
			if vi != ints[i] || vs != strs[i] || gi.IsNull(i) != contains(nulls, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
