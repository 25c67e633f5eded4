package byteslice_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"byteslice"
)

// Tests of the IngestTable's delta — the append-only ByteSlice columns
// that hold appended rows until a merge folds them into the next epoch's
// base.

// TestDeltaAppendValidation: every column kind's delta encoding rejects a
// wrong-typed or out-of-domain value with ErrSchema, and a rejected row
// reaches neither the delta nor the WAL: the table reopens holding only
// the rows that were accepted.
func TestDeltaAppendValidation(t *testing.T) {
	const n = 8
	cols, _ := matrixColumns(t, n, byteslice.FormatByteSlice, nil)
	base, err := byteslice.NewTable(cols...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := []byteslice.IngestOption{byteslice.WithAutoMerge(false)}
	it, err := byteslice.CreateIngest(dir, base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { it.Close() }() //nolint:errcheck // closes the latest instance; double close ok
	good := func() map[string]any {
		return map[string]any{"i": int64(1), "d": 0.5, "s": "cat", "c": uint32(7)}
	}
	for i := 0; i < 3; i++ {
		if err := it.Append(good()); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		col string
		v   any
	}{
		{"i", "five"},      // wrong type
		{"i", int64(999)},  // outside [-200, 200]
		{"d", int64(1)},    // wrong type
		{"d", 99.5},        // outside [0, 10]
		{"s", 7},           // wrong type
		{"s", "emu"},       // outside the dictionary
		{"c", int64(1)},    // wrong type
		{"c", uint32(512)}, // wider than 9 bits
	}
	for _, c := range cases {
		row := good()
		row[c.col] = c.v
		if err := it.Append(row); !errors.Is(err, byteslice.ErrSchema) {
			t.Fatalf("%s = %v (%T): Append = %v, want ErrSchema", c.col, c.v, c.v, err)
		}
	}
	if it.Len() != n+3 || it.DeltaLen() != 3 {
		t.Fatalf("after rejected appends: len %d delta %d", it.Len(), it.DeltaLen())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if it, err = byteslice.OpenIngest(dir, opts...); err != nil {
		t.Fatal(err)
	}
	if it.Len() != n+3 || it.DeltaLen() != 3 {
		t.Fatalf("reopened: len %d delta %d", it.Len(), it.DeltaLen())
	}
}

// TestDeltaContextCancel: every query entry over the delta — Filter,
// FilterAny, Query and a Pinned view — observes a cancelled WithContext
// while rows sit in both a whole delta segment and the partial one, and a
// cancelled query leaves the entry answering exactly afterwards.
func TestDeltaContextCancel(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithAutoMerge(false))
	const appended = 40
	for i := 0; i < appended; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := []byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 5)}
	want, err := it.Filter(f)
	if err != nil {
		t.Fatal(err)
	}
	pin := it.Pin()
	entries := map[string]func(...byteslice.QueryOption) (*byteslice.Result, error){
		"Filter":    func(o ...byteslice.QueryOption) (*byteslice.Result, error) { return it.Filter(f, o...) },
		"FilterAny": func(o ...byteslice.QueryOption) (*byteslice.Result, error) { return it.FilterAny(f, o...) },
		"Query": func(o ...byteslice.QueryOption) (*byteslice.Result, error) {
			return it.Query(byteslice.Leaf(f[0]), o...)
		},
		"Pinned": func(o ...byteslice.QueryOption) (*byteslice.Result, error) { return pin.Filter(f, o...) },
	}
	for name, run := range entries {
		if _, err := run(byteslice.WithContext(ctx)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled query = %v", name, err)
		}
		res, err := run()
		wantRows(t, name+" after cancel", res, err, want.Rows()...)
	}
	checkIngestRows(t, it, appended)
}

// TestDeltaMerge: MergeNow folds the delta into the next epoch's base,
// which reads an appended value and an appended NULL back by row, and a
// query answers the same rows before and after the merge.
func TestDeltaMerge(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithAutoMerge(false))
	for _, r := range []map[string]any{
		{"qty": int64(60), "mode": "SHIP"},
		{"qty": nil, "mode": "AIR"},
	} {
		if err := it.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	f := []byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 7)}
	res, err := it.Filter(f)
	wantRows(t, "pre-merge", res, err, 1, 2, 3)

	// The merge covers every row the delta published.
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	if it.Epoch() != 2 || it.DeltaLen() != 0 || it.Base().Len() != 5 {
		t.Fatalf("merged: epoch %d delta %d base %d", it.Epoch(), it.DeltaLen(), it.Base().Len())
	}
	qty, err := it.Base().Column("qty")
	if err != nil {
		t.Fatal(err)
	}
	mode, err := it.Base().Column("mode")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := qty.LookupInt(nil, 3); err != nil || v != 60 {
		t.Fatalf("merged row 3 qty = %d (%v)", v, err)
	}
	if s, err := mode.LookupString(nil, 3); err != nil || s != "SHIP" {
		t.Fatalf("merged row 3 mode = %q (%v)", s, err)
	}
	if !qty.IsNull(4) || qty.IsNull(3) || qty.NullCount() != 1 {
		t.Fatalf("merged NULLs wrong: rows 4/3 = %v/%v, count %d", qty.IsNull(4), qty.IsNull(3), qty.NullCount())
	}
	res, err = it.Filter(f)
	wantRows(t, "post-merge", res, err, 1, 2, 3)
	res, err = it.Base().Filter(f)
	wantRows(t, "merged base", res, err, 1, 2, 3)
}

// TestDeltaMatrix drives every column kind through every storage format
// and NULL pattern on the delta store: the appended values and NULLs,
// once merged, read back exactly by row from the new base, whose columns
// keep the base's storage formats.
func TestDeltaMatrix(t *testing.T) {
	const n, appended = matrixRows + 37, 21
	nullEvery := map[string]int{"none": 0, "sparse": 7, "dense": 2}
	formats := append(byteslice.Formats(), byteslice.FormatByteSliceC)
	for _, format := range formats {
		for patName, every := range nullEvery {
			t.Run(fmt.Sprintf("%s/%s", format, patName), func(t *testing.T) {
				cols, _ := matrixColumns(t, n, format, nil)
				base, err := byteslice.NewTable(cols...)
				if err != nil {
					t.Fatal(err)
				}
				it, err := byteslice.CreateIngest(t.TempDir(), base, byteslice.WithAutoMerge(false))
				if err != nil {
					t.Fatal(err)
				}
				defer it.Close() //nolint:errcheck // test cleanup
				words := []string{"ant", "bee", "cat", "dog"}
				isNull := func(i int) bool { return every > 0 && i%every == 0 }
				for i := 0; i < appended; i++ {
					row := map[string]any{
						"i": int64(i - 100),
						"d": float64(i%70) / 8,
						"s": words[i%len(words)],
						"c": uint32(i * 3 % 512),
					}
					if isNull(i) {
						row["i"] = nil
						row["d"] = nil
					}
					if err := it.Append(row); err != nil {
						t.Fatal(err)
					}
				}
				if err := it.MergeNow(); err != nil {
					t.Fatal(err)
				}
				if it.DeltaLen() != 0 || it.Base().Len() != n+appended {
					t.Fatalf("merged: delta %d base %d", it.DeltaLen(), it.Base().Len())
				}
				got := make([]*byteslice.Column, len(cols))
				for k, c := range cols {
					if got[k], err = it.Base().Column(c.Name()); err != nil {
						t.Fatal(err)
					}
					if got[k].Format() != c.Format() {
						t.Fatalf("column %s: merged format %s, want %s", c.Name(), got[k].Format(), c.Format())
					}
				}
				gi, gd, gs, gc := got[0], got[1], got[2], got[3]
				nulls := 0
				for i := 0; i < appended; i++ {
					r := n + i
					if gi.IsNull(r) != isNull(i) || gd.IsNull(r) != isNull(i) || gs.IsNull(r) || gc.IsNull(r) {
						t.Fatalf("appended row %d: NULL flags i/d/s/c = %v/%v/%v/%v, want i and d %v",
							i, gi.IsNull(r), gd.IsNull(r), gs.IsNull(r), gc.IsNull(r), isNull(i))
					}
					if isNull(i) {
						nulls++
					} else {
						if v, _ := gi.LookupInt(nil, r); v != int64(i-100) {
							t.Fatalf("appended row %d: int %d, want %d", i, v, i-100)
						}
						if v, _ := gd.LookupDecimal(nil, r); v != float64(i%70)/8 {
							t.Fatalf("appended row %d: decimal %v, want %v", i, v, float64(i%70)/8)
						}
					}
					if v, _ := gs.LookupString(nil, r); v != words[i%len(words)] {
						t.Fatalf("appended row %d: string %q, want %q", i, v, words[i%len(words)])
					}
					if v := gc.LookupCode(nil, r); v != uint32(i*3%512) {
						t.Fatalf("appended row %d: code %d, want %d", i, v, i*3%512)
					}
				}
				if gi.NullCount() != nulls || gd.NullCount() != nulls {
					t.Fatalf("merged NULL counts i/d = %d/%d, want %d", gi.NullCount(), gd.NullCount(), nulls)
				}
			})
		}
	}
}

// TestDeltaObsStage: the scan(delta) stage counts every delta row —
// DeltaLen(), across a whole segment and the partial one — and after a
// merge, which covers every published row, only the rows appended since.
func TestDeltaObsStage(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithAutoMerge(false))
	appendRows := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := it.Append(ingestRow(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stageRows := func(what string) int64 {
		t.Helper()
		res, err := it.Filter([]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 2)})
		if err != nil {
			t.Fatal(err)
		}
		qs := res.Stats()
		if qs == nil {
			t.Fatalf("%s: no stats on native ingest query", what)
		}
		for _, st := range qs.Stages {
			if st.Name == "scan(delta)" && st.Kind == "delta" {
				return st.Rows
			}
		}
		t.Fatalf("%s: no scan(delta) stage in %+v", what, qs.Stages)
		return 0
	}
	appendRows(0, 40) // one whole 32-row segment and 8 rows of the next
	if rows := stageRows("unmerged"); rows != 40 || it.DeltaLen() != 40 {
		t.Fatalf("unmerged: scan(delta) covered %d rows, delta %d, want 40", rows, it.DeltaLen())
	}
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	if it.DeltaLen() != 0 {
		t.Fatalf("delta after merge = %d, want 0", it.DeltaLen())
	}
	appendRows(40, 42)
	if rows := stageRows("merged"); rows != 2 {
		t.Fatalf("merged: scan(delta) covered %d rows, want the 2 rows appended since", rows)
	}
}

// TestLiveFilterAllocatesOneResult pins the live query's result vector: a
// pinned view writes its base evaluation into the first rows of the
// view-length result instead of allocating a second base-length vector,
// so Pinned.Filter over a 1Mi-row base and a 100-row delta allocates
// within 10% of Table.Filter on the base alone. (Most of what remains is
// the allocator's rounding: the delta's rows push the view-length vector
// one 8 KiB page past the base's.)
func TestLiveFilterAllocatesOneResult(t *testing.T) {
	const n = 1 << 20
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	col, err := byteslice.NewIntColumn("qty", vals, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	base, err := byteslice.NewTable(col)
	if err != nil {
		t.Fatal(err)
	}
	it, err := byteslice.CreateIngest(t.TempDir(), base, byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close() //nolint:errcheck // test teardown
	for i := 0; i < 100; i++ {
		if err := it.Append(map[string]any{"qty": int64(i % 100)}); err != nil {
			t.Fatal(err)
		}
	}
	view := it.Pin()
	f := []byteslice.Filter{byteslice.IntFilter("qty", byteslice.Lt, 10)}
	alloc := func(filter func() (*byteslice.Result, error)) uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := filter(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	one := byteslice.WithParallelism(1)
	baseBytes := alloc(func() (*byteslice.Result, error) { return view.Base().Filter(f, one) })
	liveBytes := alloc(func() (*byteslice.Result, error) { return view.Filter(f, one) })
	if float64(liveBytes) > 1.1*float64(baseBytes) {
		t.Fatalf("Pinned.Filter allocates %d B per query, Table.Filter on the base %d B: want within 10%%", liveBytes, baseBytes)
	}
	res, err := view.Filter(f, one)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 // the delta's codes 0..9
	for _, v := range vals {
		if v < 10 {
			want++
		}
	}
	if res.Count() != want {
		t.Fatalf("live count = %d, want %d", res.Count(), want)
	}
}
