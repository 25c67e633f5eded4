package byteslice_test

import (
	"bytes"
	"fmt"
	"testing"

	"byteslice"
)

// TestPersistRoundTripMatrix round-trips one column of every kind through
// every storage format and NULL pattern in the current (v3) stream, then
// re-lays the loaded table out into every other format and back, holding
// load and re-layout to the same values, NULL masks and formats as a
// fresh build.
func TestPersistRoundTripMatrix(t *testing.T) {
	const n = matrixRows + 97 // partial final block and segment
	nullPatterns := map[string][]int{
		"none":   nil,
		"sparse": {0, 13, 96, n - 1},
		"dense":  denseNulls(n),
	}
	formats := append(byteslice.Formats(), byteslice.FormatByteSliceC)
	for _, format := range formats {
		for patName, nulls := range nullPatterns {
			t.Run(fmt.Sprintf("%s/%s", format, patName), func(t *testing.T) {
				col, check := matrixColumns(t, n, format, nulls)
				tbl, err := byteslice.NewTable(col...)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := tbl.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				got, err := byteslice.ReadTable(&buf)
				if err != nil {
					t.Fatal(err)
				}
				check(t, got)
				for _, other := range formats {
					if other == format {
						continue
					}
					_, checkOther := matrixColumns(t, n, other, nulls)
					there, err := got.WithLayout(other)
					if err != nil {
						t.Fatal(err)
					}
					checkOther(t, there)
					back, err := there.WithLayout(format)
					if err != nil {
						t.Fatal(err)
					}
					check(t, back)
				}
			})
		}
	}
}

func denseNulls(n int) []int {
	var nulls []int
	for i := 0; i < n; i += 2 {
		nulls = append(nulls, i)
	}
	return nulls
}

// matrixRows is the shortest matrix table whose ByteSliceC columns really
// compress: below it the build-time decision (compress.NewBuilder) keeps
// the sorted matrix columns raw.
const matrixRows = 2048

// matrixValues returns the n source rows of matrixColumns, each column
// sorted over its whole domain: an int in [-200, 200], a decimal in
// eighths of [0, 10), one of four words and a 9-bit code.
func matrixValues(n int) ([]int64, []float64, []string, []uint32) {
	ints := make([]int64, n)
	decs := make([]float64, n)
	strs := make([]string, n)
	codes := make([]uint32, n)
	words := []string{"ant", "bee", "cat", "dog"}
	for i := 0; i < n; i++ {
		ints[i] = int64(i*400/n) - 200
		decs[i] = float64(i*80/n) / 8
		strs[i] = words[i*len(words)/n]
		codes[i] = uint32(i * 512 / n)
	}
	return ints, decs, strs, codes
}

// matrixColumns builds one column per kind in the given format and NULL
// pattern, plus a checker that verifies a loaded or re-laid-out table
// against the source values and the source columns' formats. A
// ByteSliceC table needs at least matrixRows rows.
func matrixColumns(t *testing.T, n int, format byteslice.Format, nulls []int) ([]*byteslice.Column, func(*testing.T, *byteslice.Table)) {
	t.Helper()
	ints, decs, strs, codes := matrixValues(n)
	isNull := make(map[int]bool, len(nulls))
	for _, i := range nulls {
		isNull[i] = true
	}

	opts := func() []byteslice.ColumnOption {
		o := []byteslice.ColumnOption{byteslice.WithFormat(format)}
		if len(nulls) > 0 {
			o = append(o, byteslice.WithNulls(nulls))
		}
		return o
	}
	ic, err := byteslice.NewIntColumn("i", ints, -200, 200, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := byteslice.NewDecimalColumn("d", decs, 0, 10, 3, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := byteslice.NewStringColumn("s", strs, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := byteslice.NewCodeColumn("c", codes, 9, opts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*byteslice.Column{ic, dc, sc, cc} {
		if c.Format() != format {
			t.Fatalf("column %s: built as %s, want %s", c.Name(), c.Format(), format)
		}
	}

	check := func(t *testing.T, got *byteslice.Table) {
		t.Helper()
		if got.Len() != n {
			t.Fatalf("rows = %d, want %d", got.Len(), n)
		}
		gi, err := got.Column("i")
		if err != nil {
			t.Fatal(err)
		}
		gd, err := got.Column("d")
		if err != nil {
			t.Fatal(err)
		}
		gs, err := got.Column("s")
		if err != nil {
			t.Fatal(err)
		}
		gc, err := got.Column("c")
		if err != nil {
			t.Fatal(err)
		}
		// The table must hold exactly the layout each source column was
		// built with.
		for _, pair := range [][2]*byteslice.Column{{gi, ic}, {gd, dc}, {gs, sc}, {gc, cc}} {
			if pair[0].Format() != pair[1].Format() {
				t.Fatalf("column %s: format %s, want %s", pair[1].Name(), pair[0].Format(), pair[1].Format())
			}
		}
		for _, g := range []*byteslice.Column{gi, gd, gs, gc} {
			if g.NullCount() != len(nulls) {
				t.Fatalf("column %s: null count %d, want %d", g.Name(), g.NullCount(), len(nulls))
			}
			for i := 0; i < n; i++ {
				if g.IsNull(i) != isNull[i] {
					t.Fatalf("column %s row %d: IsNull = %v, want %v", g.Name(), i, g.IsNull(i), isNull[i])
				}
			}
		}
		for i := 0; i < n; i++ {
			if v, _ := gi.LookupInt(nil, i); v != ints[i] {
				t.Fatalf("int row %d: %d, want %d", i, v, ints[i])
			}
			if v, _ := gd.LookupDecimal(nil, i); v != decs[i] {
				t.Fatalf("decimal row %d: %v, want %v", i, v, decs[i])
			}
			if v, _ := gs.LookupString(nil, i); v != strs[i] {
				t.Fatalf("string row %d: %q, want %q", i, v, strs[i])
			}
			if v := gc.LookupCode(nil, i); v != codes[i] {
				t.Fatalf("code row %d: %d, want %d", i, v, codes[i])
			}
		}
	}
	return []*byteslice.Column{ic, dc, sc, cc}, check
}
