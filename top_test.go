package byteslice_test

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"byteslice"
)

// topLayout is one storage layout Top must answer exactly on.
type topLayout struct {
	name string
	opts []byteslice.ColumnOption
	want byteslice.Format
}

var topLayouts = []topLayout{
	{"ByteSlice", nil, byteslice.FormatByteSlice},
	{"ByteSlice+zones", []byteslice.ColumnOption{byteslice.WithZoneMaps()}, byteslice.FormatByteSlice},
	{"ByteSliceC", []byteslice.ColumnOption{byteslice.WithCompression()}, byteslice.FormatByteSliceC},
	{"HBP", []byteslice.ColumnOption{byteslice.WithFormat(byteslice.FormatHBP)}, byteslice.FormatHBP},
	{"BitPacked", []byteslice.ColumnOption{byteslice.WithFormat(byteslice.FormatBitPacked)}, byteslice.FormatBitPacked},
	{"VBP", []byteslice.ColumnOption{byteslice.WithFormat(byteslice.FormatVBP)}, byteslice.FormatVBP},
}

// topShape generates n codes of width k.
type topShape struct {
	name  string
	codes func(rng *rand.Rand, n, k int) []uint32
}

var topShapes = []topShape{
	// Uniform over the whole domain: every byte slice matters.
	{"uniform", func(rng *rand.Rand, n, k int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(rng.Uint64() & (1<<uint(k) - 1))
		}
		return out
	}},
	// Five values at the top of the domain: many ties, and the leading
	// bytes are shared, so the select goes down to the last byte.
	{"ties", func(rng *rand.Rand, n, k int) []uint32 {
		out := make([]uint32, n)
		top := uint32(1<<uint(k) - 1)
		for i := range out {
			out[i] = top - min(top, uint32(rng.IntN(5)))
		}
		return out
	}},
	// One value per 512-code block, drifting across the domain: clustered
	// enough for the compressed layout to pay off at every width.
	{"clustered", func(_ *rand.Rand, n, k int) []uint32 {
		out := make([]uint32, n)
		top := uint64(1)<<uint(k) - 1
		for i := range out {
			out[i] = uint32(uint64(i/512%7) * top / 6)
		}
		return out
	}},
}

// checkTop asserts Top's contract against a full OrderBy: ordering the
// kept rows reproduces the sort's first n, and the Result's row list,
// count and bits agree.
func checkTop(t *testing.T, tbl *byteslice.Table, col string, res *byteslice.Result, n int, full []int32, opts ...byteslice.QueryOption) {
	t.Helper()
	top, err := tbl.Top(col, res, n, opts...)
	if err != nil {
		t.Fatalf("Top(%q, n=%d): %v", col, n, err)
	}
	want := full[:min(n, len(full))]
	var got []int32
	if col == "" {
		got = top.Rows()
	} else if got, err = tbl.OrderBy(col, top, opts...); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Top(%q, n=%d) ordered = %v, want %v", col, n, head(got), head(want))
	}
	rows := top.Rows()
	if top.Count() != len(want) || len(rows) != len(want) || !slices.IsSorted(rows) {
		t.Fatalf("Top(%q, n=%d): count %d, rows %v, want %d ascending", col, n, top.Count(), head(rows), len(want))
	}
	set := map[int32]bool{}
	for _, r := range rows {
		set[r] = true
	}
	for i := 0; i < tbl.Len(); i++ {
		if top.Contains(i) != set[int32(i)] {
			t.Fatalf("Top(%q, n=%d): Contains(%d) = %v, rows say %v", col, n, i, top.Contains(i), set[int32(i)])
		}
	}
}

func head(s []int32) []int32 { return s[:min(len(s), 12)] }

// TestTopMatchesOrderBy: on every layout, width and data shape — ties,
// NULLs in the sort column, n at and around the match count, the row-order
// form (col == "") and the modelled path — ordering Top's rows gives the
// full OrderBy's first n.
func TestTopMatchesOrderBy(t *testing.T) {
	const rows = 4096
	rng := rand.New(rand.NewPCG(20, 1))
	filterVals := make([]int64, rows)
	for i := range filterVals {
		filterVals[i] = int64(rng.IntN(100))
	}
	filter := intColumn(t, "f", filterVals, 0, 99)
	var nulls []int
	for i := 3; i < rows; i += 7 {
		nulls = append(nulls, i)
	}
	for _, lay := range topLayouts {
		for _, k := range []int{1, 7, 8, 9, 16, 17, 24, 32} {
			for _, shape := range topShapes {
				if lay.want == byteslice.FormatByteSliceC && (shape.name != "clustered" || k == 1) {
					// Compression pays only on clustered data, and never on
					// a 1-bit column, which stays raw even when constant.
					continue
				}
				for _, withNulls := range []bool{false, true} {
					name := fmt.Sprintf("%s/k%d/%s/nulls=%v", lay.name, k, shape.name, withNulls)
					t.Run(name, func(t *testing.T) {
						opts := lay.opts
						if withNulls {
							opts = append(slices.Clone(opts), byteslice.WithNulls(nulls))
						}
						col, err := byteslice.NewCodeColumn("v", shape.codes(rng, rows, k), k, opts...)
						if err != nil {
							t.Fatal(err)
						}
						if col.Format() != lay.want {
							t.Fatalf("column built as %s, want %s", col.Format(), lay.want)
						}
						tbl, err := byteslice.NewTable(col, filter)
						if err != nil {
							t.Fatal(err)
						}
						res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("f", byteslice.Lt, 40)})
						if err != nil {
							t.Fatal(err)
						}
						full, err := tbl.OrderBy("v", res)
						if err != nil {
							t.Fatal(err)
						}
						inRowOrder := res.Rows()
						count := len(full)
						for _, n := range []int{0, 1, count - 1, count, count + 5, res.Count()} {
							checkTop(t, tbl, "v", res, n, full)
							checkTop(t, tbl, "", res, n, inRowOrder)
						}
						// The modelled path: the modelled OrderBy, truncated.
						prof := byteslice.WithProfile(byteslice.NewProfile())
						modelled, err := tbl.OrderBy("v", res, prof)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(modelled, full) {
							t.Fatal("modelled OrderBy differs from native")
						}
						for _, n := range []int{1, count / 3, count + 5} {
							checkTop(t, tbl, "v", res, n, full, prof)
						}
					})
				}
			}
		}
	}
}

// TestTopStageCountsRows: on every layout — BitPacked and VBP included,
// whose codes come from engine lookups — the top(<col>) stage in res's
// statistics counts the matches it read, the rows it kept and ⌈k/8⌉
// column bytes per match.
func TestTopStageCountsRows(t *testing.T) {
	const rows, k, n = 4096, 16, 5
	codes := topShapes[2].codes(nil, rows, k) // clustered, so ByteSliceC pays
	for _, lay := range topLayouts {
		t.Run(lay.name, func(t *testing.T) {
			col, err := byteslice.NewCodeColumn("v", codes, k, append(slices.Clone(lay.opts), byteslice.WithNulls([]int{0, 1, 2}))...)
			if err != nil {
				t.Fatal(err)
			}
			if col.Format() != lay.want {
				t.Fatalf("column built as %s, want %s", col.Format(), lay.want)
			}
			tbl, err := byteslice.NewTable(col)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tbl.Filter([]byteslice.Filter{byteslice.CodeFilter("v", byteslice.Lt, 1<<(k-1))})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Top("v", res, n); err != nil {
				t.Fatal(err)
			}
			var top *byteslice.StageStats
			stages := res.Stats().Stages
			for i := range stages {
				if stages[i].Kind == "top" {
					top = &stages[i]
				}
			}
			want := int64(res.Count())
			if top == nil || top.Name != "top(v)" || top.Rows != want || top.Kept != n || top.BytesTouched != want*k/8 {
				t.Fatalf("top stage %+v, want top(v) with rows %d, kept %d, bytes %d", top, want, n, want*k/8)
			}
		})
	}
}

// TestTopAlgebra: And and Or with a Top result (on either side) give the
// bit-vector algebra's answer, and the combined Result's row list, count
// and bits stay consistent.
func TestTopAlgebra(t *testing.T) {
	const rows = 2000
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i*7919) % 1000
	}
	tbl, err := byteslice.NewTable(intColumn(t, "v", vals, 0, 999))
	if err != nil {
		t.Fatal(err)
	}
	filter := func(op byteslice.Op, c int64) *byteslice.Result {
		t.Helper()
		res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", op, c)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	top := func() *byteslice.Result {
		t.Helper()
		res, err := tbl.Top("v", filter(byteslice.Lt, 500), 100)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	set := func(r *byteslice.Result) map[int32]bool {
		m := map[int32]bool{}
		for _, row := range r.Rows() {
			m[row] = true
		}
		return m
	}
	check := func(name string, got *byteslice.Result, want func(i int32) bool) {
		t.Helper()
		n := 0
		for i := int32(0); i < rows; i++ {
			if got.Contains(int(i)) != want(i) {
				t.Fatalf("%s: row %d = %v", name, i, got.Contains(int(i)))
			}
			if want(i) {
				n++
			}
		}
		if got.Count() != n || len(got.Rows()) != n {
			t.Fatalf("%s: count %d, %d rows, want %d", name, got.Count(), len(got.Rows()), n)
		}
	}
	a, b := set(top()), set(filter(byteslice.Ge, 5))
	check("top AND filter", top().And(filter(byteslice.Ge, 5)), func(i int32) bool { return a[i] && b[i] })
	check("filter AND top", filter(byteslice.Ge, 5).And(top()), func(i int32) bool { return a[i] && b[i] })
	c := set(filter(byteslice.Gt, 900))
	check("top OR filter", top().Or(filter(byteslice.Gt, 900)), func(i int32) bool { return a[i] || c[i] })
	check("filter OR top", filter(byteslice.Gt, 900).Or(top()), func(i int32) bool { return a[i] || c[i] })
}

// TestTopErrors: Top validates like OrderBy.
func TestTopErrors(t *testing.T) {
	tbl, err := byteslice.NewTable(intColumn(t, "v", []int64{3, 1, 2}, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Ge, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Top("v", nil, 1); err == nil {
		t.Fatal("nil result accepted")
	}
	if _, err := tbl.Top("zzz", res, 1); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := tbl.Top("v", res, -1); err == nil {
		t.Fatal("negative n accepted")
	}
	other, err := byteslice.NewTable(intColumn(t, "v", []int64{3, 1}, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Top("v", res, 1); err == nil {
		t.Fatal("result over another row count accepted")
	}
}

// FuzzTopK checks Top against the full sort truncated on every layout,
// over fuzzed codes, widths 1–32, NULL masks, filter constants and n.
func FuzzTopK(f *testing.F) {
	f.Add([]byte{9, 0, 0, 0, 3, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0}, uint8(4), []byte{0x02}, uint32(8), uint16(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(17), []byte{0x81, 0x40}, uint32(1<<16), uint16(5))
	f.Add(make([]byte, 256), uint8(32), []byte{}, uint32(1), uint16(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, uint8(32), []byte{0x04}, uint32(0xffffffff), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, width uint8, nullMask []byte, c uint32, n uint16) {
		k := int(width)%32 + 1
		rows := min(len(data)/4, 3000)
		if rows == 0 {
			return
		}
		codes := make([]uint32, rows)
		for i := range codes {
			v := binary.LittleEndian.Uint32(data[4*i:])
			if k < 32 {
				v &= 1<<uint(k) - 1
			}
			codes[i] = v
		}
		var nulls []int
		for i := 0; i < rows && i/8 < len(nullMask); i++ {
			if nullMask[i/8]>>(i%8)&1 == 1 {
				nulls = append(nulls, i)
			}
		}
		for _, lay := range topLayouts {
			col, err := byteslice.NewCodeColumn("v", codes, k, append(slices.Clone(lay.opts), byteslice.WithNulls(nulls))...)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := byteslice.NewTable(col)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tbl.Filter([]byteslice.Filter{byteslice.CodeFilter("v", byteslice.Le, c)})
			if err != nil {
				t.Fatal(err)
			}
			full, err := tbl.OrderBy("v", res)
			if err != nil {
				t.Fatal(err)
			}
			checkTop(t, tbl, "v", res, int(n), full)
		}
	})
}
