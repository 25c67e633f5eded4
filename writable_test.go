package byteslice_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"byteslice"
	"byteslice/internal/faultio"
	"byteslice/internal/ingest"
	"byteslice/internal/obs"
)

// ingestFixture builds a small base table (int + string columns) and the
// native-value rows the tests append to it.
func ingestFixture(t *testing.T, opts ...byteslice.IngestOption) (*byteslice.IngestTable, string) {
	t.Helper()
	dir := t.TempDir()
	tbl := ingestBase(t)
	it, err := byteslice.CreateIngest(dir, tbl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { it.Close() }) //nolint:errcheck // second close is a no-op
	return it, dir
}

func ingestBase(t *testing.T) *byteslice.Table {
	t.Helper()
	qty := intColumn(t, "qty", []int64{5, 50, 7}, 0, 100)
	mode, err := byteslice.NewStringColumn("mode", []string{"AIR", "SHIP", "AIR"})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(qty, mode)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// ingestRow returns the i-th deterministic appended row.
func ingestRow(i int) map[string]any {
	modes := []string{"AIR", "SHIP"}
	row := map[string]any{"qty": int64(i % 100), "mode": modes[i%2]}
	if i%7 == 3 {
		row["qty"] = nil
	}
	return row
}

// checkIngestRows asserts the table holds the base rows plus rows
// ingestRow(0..appended), via a full filter and a count probe.
func checkIngestRows(t *testing.T, it *byteslice.IngestTable, appended int) {
	t.Helper()
	if it.Len() != 3+appended {
		t.Fatalf("Len = %d, want %d", it.Len(), 3+appended)
	}
	// qty ≥ 50: base row 1, plus appended rows with i%100 >= 50 and no NULL.
	want := []int32{1}
	for i := 0; i < appended; i++ {
		if i%7 != 3 && i%100 >= 50 {
			want = append(want, int32(3+i))
		}
	}
	res, err := it.Filter([]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 50)})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows()
	if len(got) != len(want) {
		t.Fatalf("qty>=50: %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("qty>=50 row[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// NULL qty rows never match, even trivially-true predicates.
	res, err = it.Filter([]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 0)})
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for i := 0; i < appended; i++ {
		if i%7 == 3 {
			nulls++
		}
	}
	if res.Count() != 3+appended-nulls {
		t.Fatalf("qty>=0 count = %d, want %d", res.Count(), 3+appended-nulls)
	}
}

// wantRows asserts a filter succeeded with exactly the given row numbers.
func wantRows(t *testing.T, what string, res *byteslice.Result, err error, want ...int32) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := res.Rows(); !sameRows(got, want) {
		t.Fatalf("%s: rows %v, want %v", what, got, want)
	}
}

func TestIngestAppendQueryReopen(t *testing.T) {
	it, dir := ingestFixture(t)
	const n = 30
	for i := 0; i < n; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkIngestRows(t, it, n)
	if it.Epoch() != 1 || it.DeltaLen() != n {
		t.Fatalf("epoch %d delta %d", it.Epoch(), it.DeltaLen())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// Every acknowledged append survives a clean reopen.
	it2, err := byteslice.OpenIngest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close() //nolint:errcheck // read-mostly
	checkIngestRows(t, it2, n)

	// And appending continues where the log left off.
	if err := it2.Append(ingestRow(n)); err != nil {
		t.Fatal(err)
	}
	checkIngestRows(t, it2, n+1)
}

func TestIngestMergeAdvancesEpoch(t *testing.T) {
	it, dir := ingestFixture(t, byteslice.WithAutoMerge(false))
	const n = 20
	for i := 0; i < n; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	checkIngestRows(t, it, n)
	if it.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", it.Epoch())
	}
	// The merge covered every row the delta published.
	if d := it.DeltaLen(); d != 0 {
		t.Fatalf("delta after merge = %d, want 0", d)
	}
	if it.Base().Len() != 3+n {
		t.Fatalf("base len = %d, want %d", it.Base().Len(), 3+n)
	}
	// Old epoch artifacts are gone; new ones exist.
	for _, f := range []string{"base-1.bslc", "wal-1.log"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s still present after merge", f)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	it2, err := byteslice.OpenIngest(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close() //nolint:errcheck // read-mostly
	checkIngestRows(t, it2, n)
	if it2.Epoch() != 2 {
		t.Fatalf("reopened epoch = %d, want 2", it2.Epoch())
	}
}

func TestIngestAppendValidation(t *testing.T) {
	it, _ := ingestFixture(t)
	cases := []map[string]any{
		{"qty": int64(1)},                        // missing column
		{"qty": int64(1), "mode": "AIR", "x": 1}, // extra column
		{"qty": "oops", "mode": "AIR"},           // wrong type
		{"qty": int64(999), "mode": "AIR"},       // out of domain
		{"qty": int64(1), "mode": "TRUCK"},       // outside dictionary
		{"qty": int64(1), "mode": 7},             // wrong type
	}
	for i, vals := range cases {
		if err := it.Append(vals); !errors.Is(err, byteslice.ErrSchema) {
			t.Fatalf("case %d: Append = %v, want ErrSchema", i, err)
		}
	}
	// Failed appends are atomic: nothing was retained.
	if it.Len() != 3 || it.DeltaLen() != 0 {
		t.Fatalf("after rejected appends: len %d delta %d", it.Len(), it.DeltaLen())
	}
	if err := it.Append(ingestRow(0)); err != nil {
		t.Fatal(err)
	}
}

// TestIngestAppendAndFilter: exact rows for single-column, conjunctive and
// disjunctive filters over the base and a tail that holds a NULL.
func TestIngestAppendAndFilter(t *testing.T) {
	it, _ := ingestFixture(t)
	if it.Len() != 3 || it.DeltaLen() != 0 {
		t.Fatalf("fresh table: len %d delta %d", it.Len(), it.DeltaLen())
	}
	for _, r := range []map[string]any{
		{"qty": int64(60), "mode": "SHIP"},
		{"qty": int64(2), "mode": "AIR"},
		{"qty": nil, "mode": "SHIP"},
	} {
		if err := it.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if it.Len() != 6 || it.DeltaLen() != 3 {
		t.Fatalf("after appends: len %d delta %d", it.Len(), it.DeltaLen())
	}
	// qty ≥ 50 matches base row 1 and tail row 3.
	res, err := it.Filter([]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 50)})
	wantRows(t, "qty>=50", res, err, 1, 3)
	// A conjunction across base and tail; qty < 100 holds for every
	// value, so only the NULL keeps tail row 5 (a SHIP) out.
	res, err = it.Filter([]byteslice.Filter{
		byteslice.IntFilter("qty", byteslice.Lt, 100),
		byteslice.StringFilter("mode", byteslice.Eq, "SHIP"),
	})
	wantRows(t, "conjunction", res, err, 1, 3)
	// The disjunction admits row 5 through its mode alone.
	res, err = it.FilterAny([]byteslice.Filter{
		byteslice.IntFilter("qty", byteslice.Lt, 5),
		byteslice.StringFilter("mode", byteslice.Eq, "SHIP"),
	})
	wantRows(t, "disjunction", res, err, 1, 3, 4, 5)
}

// TestIngestFilterBadColumn: predicate resolution failures surface as
// errors up front even with tail rows to scan, and an out-of-dictionary
// equality constant matches nothing anywhere rather than erroring.
func TestIngestFilterBadColumn(t *testing.T) {
	it, _ := ingestFixture(t)
	if err := it.Append(map[string]any{"qty": int64(60), "mode": "SHIP"}); err != nil {
		t.Fatal(err)
	}
	if it.DeltaLen() != 1 {
		t.Fatalf("tail holds %d rows, want 1", it.DeltaLen())
	}
	if _, err := it.Filter([]byteslice.Filter{byteslice.IntFilter("nope", byteslice.Ge, 1)}); err == nil {
		t.Fatal("filter on a missing column succeeded")
	}
	res, err := it.FilterAny([]byteslice.Filter{byteslice.StringFilter("mode", byteslice.Eq, "TRUCK")})
	wantRows(t, "out-of-dictionary Eq", res, err)
}

// TestIngestMergePreservesZoneMaps: a zone-mapped base column keeps its
// zone maps through MergeNow and through a reopen of the merged epoch.
func TestIngestMergePreservesZoneMaps(t *testing.T) {
	qty := intColumn(t, "qty", []int64{5, 50, 7, 9}, 0, 100, byteslice.WithZoneMaps())
	tbl, err := byteslice.NewTable(qty)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, tbl, byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { it.Close() }() //nolint:errcheck // closes the latest instance; double close ok
	if err := it.Append(map[string]any{"qty": int64(80)}); err != nil {
		t.Fatal(err)
	}
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		if it.Epoch() != 2 || it.DeltaLen() != 0 {
			t.Fatalf("%s: epoch %d delta %d, want the row merged into epoch 2", stage, it.Epoch(), it.DeltaLen())
		}
		col, err := it.Base().Column("qty")
		if err != nil {
			t.Fatal(err)
		}
		if !col.HasZoneMaps() {
			t.Fatalf("%s: base column lost its zone maps", stage)
		}
		res, err := it.Filter([]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 60)})
		wantRows(t, stage, res, err, 4)
	}
	check("merged")
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if it, err = byteslice.OpenIngest(dir, byteslice.WithAutoMerge(false)); err != nil {
		t.Fatal(err)
	}
	check("reopened")
}

func TestIngestClosed(t *testing.T) {
	it, _ := ingestFixture(t)
	if err := it.Append(ingestRow(0)); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := it.Append(ingestRow(1)); !errors.Is(err, byteslice.ErrTableClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if err := it.MergeNow(); !errors.Is(err, byteslice.ErrTableClosed) {
		t.Fatalf("merge after close = %v", err)
	}
	// Queries keep working on the last published view.
	checkIngestRows(t, it, 1)
}

func TestIngestContextCancel(t *testing.T) {
	it, _ := ingestFixture(t)
	for i := 0; i < 50; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := it.Filter(
		[]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 50)},
		byteslice.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ingest filter = %v", err)
	}
}

// TestIngestBackpressure: when merging cannot proceed (every snapshot
// save fails), appends keep succeeding until the delta bound, then fail
// with ErrBackpressure; once the fault clears and a merge lands, appends
// resume.
func TestIngestBackpressure(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithDeltaBound(12), byteslice.WithAutoMerge(false))
	// The hook function stays installed for the table's whole lifetime and
	// gates on an atomic, so the background merger never races a hook swap.
	var failing atomic.Bool
	failing.Store(true)
	byteslice.SetSaveWriterHook(func(w io.Writer) io.Writer {
		if failing.Load() {
			return &faultio.Writer{W: w, FailAt: 0}
		}
		return w
	})
	defer func() {
		it.Close() //nolint:errcheck // stops the merger before the hook goes away
		byteslice.SetSaveWriterHook(nil)
	}()
	var backpressured int
	for i := 0; i < 20; i++ {
		err := it.Append(ingestRow(i))
		switch {
		case err == nil:
		case errors.Is(err, byteslice.ErrBackpressure):
			backpressured++
			if it.MergeNow() == nil {
				t.Fatal("merge succeeded with failing snapshot writes")
			}
		default:
			t.Fatal(err)
		}
	}
	if backpressured != 20-12 {
		t.Fatalf("backpressured %d of 20 appends, want %d", backpressured, 8)
	}
	if it.DeltaLen() != 12 {
		t.Fatalf("delta = %d, want the bound 12", it.DeltaLen())
	}
	// Clear the fault: merge succeeds, the bound opens up, appends resume.
	failing.Store(false)
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	if err := it.Append(ingestRow(100)); err != nil {
		t.Fatal(err)
	}
	if it.Epoch() < 2 {
		t.Fatalf("epoch = %d after recovery merge", it.Epoch())
	}
}

// copyDir snapshots an ingest directory — the crash tests use it to
// freeze on-disk state at exact fault points.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestMergeCommitSyncsRotatedWALOnce pins the merge commit's single
// fsync: under synced appends, a merge that carries rows appended
// mid-merge into the rotated WAL writes them unsynced and syncs once
// before the manifest rename — not once per row — and appends after the
// commit fsync each row again.
func TestMergeCommitSyncsRotatedWALOnce(t *testing.T) {
	dir := copyDir(t, ingestTemplate(t))
	it, err := byteslice.OpenIngest(dir, byteslice.WithAutoMerge(false), byteslice.WithSyncedAppends(true))
	if err != nil {
		t.Fatal(err)
	}
	const mid = 4 // rows appended while the merge saves its base
	var before int64
	appended := false
	byteslice.SetSaveWriterHook(func(w io.Writer) io.Writer {
		if !appended {
			appended = true
			for i := 30; i < 30+mid; i++ {
				if err := it.Append(ingestRow(i)); err != nil {
					t.Errorf("append during merge: %v", err)
				}
			}
			before = obs.Default.Ingest.WALSyncs.Load()
		}
		return w
	})
	err = it.MergeNow()
	byteslice.SetSaveWriterHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.DeltaLen() != mid {
		t.Fatalf("delta after merge = %d, want the %d rows appended mid-merge", it.DeltaLen(), mid)
	}
	if got := obs.Default.Ingest.WALSyncs.Load() - before; got != 1 {
		t.Fatalf("merge commit made %d WAL fsyncs rotating %d rows, want 1", got, mid)
	}
	before = obs.Default.Ingest.WALSyncs.Load()
	if err := it.Append(ingestRow(30 + mid)); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.Ingest.WALSyncs.Load() - before; got != 1 {
		t.Fatalf("synced append after the commit made %d WAL fsyncs, want 1", got)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, 2, 30+mid+1)
}

// ingestTemplate builds an ingest directory once: base + 30 appended
// rows, all in epoch 1's delta and WAL.
func ingestTemplate(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, ingestBase(t), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// reopenAndCheck opens dir and asserts the epoch and the base rows plus
// ingestRow(0..appended).
func reopenAndCheck(t *testing.T, dir string, wantEpoch uint64, appended int) {
	t.Helper()
	it, err := byteslice.OpenIngest(dir, byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	defer it.Close() //nolint:errcheck // read-only
	if it.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch = %d, want %d", it.Epoch(), wantEpoch)
	}
	checkIngestRows(t, it, appended)
}

// crashWriter injects a fault at a byte offset and snapshots the ingest
// directory at that exact moment — the bytes a crash would have left.
type crashWriter struct {
	w       io.Writer
	failAt  int64
	written int64
	dir     string
	crash   *string // set to the snapshot path when the fault fires
	tb      testing.TB
}

func (c *crashWriter) Write(p []byte) (int, error) {
	if c.written+int64(len(p)) > c.failAt && *c.crash == "" {
		keep := c.failAt - c.written
		if keep > 0 {
			if n, err := c.w.Write(p[:keep]); err != nil {
				return n, err
			}
		}
		*c.crash = copyDir(c.tb, c.dir)
		return int(keep), fmt.Errorf("crash injected at offset %d: %w", c.failAt, faultio.ErrInjected)
	}
	n, err := c.w.Write(p)
	c.written += int64(n)
	return n, err
}

// TestIngestCrashDuringMergeSweep drives a merge into a write fault at
// every byte offset of each artifact the epoch switch writes — the new
// base snapshot, the rotated WAL, the manifest — snapshotting the
// directory at the exact fault point. Three rows are appended while the
// merge writes its snapshot, off the writer lock: the merge does not
// cover them, so the rotated WAL re-frames them. Recovering from every
// snapshot must yield the previous epoch with all 33 acknowledged rows;
// and the failed merge must leave the live table consistent and
// retryable.
func TestIngestCrashDuringMergeSweep(t *testing.T) {
	template := ingestTemplate(t)
	const total = 33 // the template's 30 rows plus the 3 appended mid-merge

	// duringSave returns a snapshot writer hook that first appends rows
	// 30..32 to it — once, as mergeOnce saves the next base — and then
	// hands the stream to next (nil: unchanged).
	duringSave := func(it *byteslice.IngestTable, next func(io.Writer) io.Writer) func(io.Writer) io.Writer {
		appended := false
		return func(w io.Writer) io.Writer {
			if !appended {
				appended = true
				for i := 30; i < total; i++ {
					if err := it.Append(ingestRow(i)); err != nil {
						t.Errorf("append during merge: %v", err)
					}
				}
			}
			if next == nil {
				return w
			}
			return next(w)
		}
	}

	// Probe each stream's full length with a successful merge.
	var baseLen, walLen, manLen int64
	{
		dir := copyDir(t, template)
		it, err := byteslice.OpenIngest(dir, byteslice.WithAutoMerge(false))
		if err != nil {
			t.Fatal(err)
		}
		count := func(n *int64) func(io.Writer) io.Writer {
			return func(w io.Writer) io.Writer {
				*n = 0
				return &countingWriter{w: w, n: n}
			}
		}
		byteslice.SetSaveWriterHook(duringSave(it, count(&baseLen)))
		ingest.WriterHook = count(&walLen)
		ingest.ManifestWriterHook = count(&manLen)
		err = it.MergeNow()
		byteslice.SetSaveWriterHook(nil)
		ingest.WriterHook = nil
		ingest.ManifestWriterHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if it.DeltaLen() != total-30 {
			t.Fatalf("probe: delta after merge = %d, want the %d rows appended mid-merge", it.DeltaLen(), total-30)
		}
		it.Close() //nolint:errcheck // probe only
		reopenAndCheck(t, dir, 2, total)
	}
	if baseLen == 0 || walLen == 0 || manLen == 0 {
		t.Fatalf("probe lengths: base %d wal %d manifest %d", baseLen, walLen, manLen)
	}

	targets := []struct {
		name   string
		length int64
		// hook is the stream's writer hook; nil for the base snapshot,
		// whose hook duringSave wraps.
		hook *func(io.Writer) io.Writer
	}{
		{"base-snapshot", baseLen, nil},
		{"wal-rotation", walLen, &ingest.WriterHook},
		{"manifest", manLen, &ingest.ManifestWriterHook},
	}
	defer func() {
		byteslice.SetSaveWriterHook(nil)
		ingest.WriterHook = nil
		ingest.ManifestWriterHook = nil
	}()
	for _, tgt := range targets {
		t.Run(tgt.name, func(t *testing.T) {
			// Sweep every offset of the small artifacts; stride the base
			// snapshot (a few KB) so the sweep stays tractable while still
			// crossing every frame and section boundary region.
			step := int64(1)
			if tgt.length > 512 {
				step = tgt.length / 512
			}
			offsets := make([]int64, 0, tgt.length/step+2)
			for off := int64(0); off < tgt.length; off += step {
				offsets = append(offsets, off)
			}
			if last := tgt.length - 1; offsets[len(offsets)-1] != last {
				offsets = append(offsets, last)
			}
			for _, off := range offsets {
				dir := copyDir(t, template)
				it, err := byteslice.OpenIngest(dir, byteslice.WithAutoMerge(false))
				if err != nil {
					t.Fatalf("offset %d: open: %v", off, err)
				}
				crash := ""
				crashHook := func(w io.Writer) io.Writer {
					return &crashWriter{w: w, failAt: off, dir: dir, crash: &crash, tb: t}
				}
				if tgt.hook == nil {
					byteslice.SetSaveWriterHook(duringSave(it, crashHook))
				} else {
					byteslice.SetSaveWriterHook(duringSave(it, nil))
					*tgt.hook = crashHook
				}
				err = it.MergeNow()
				byteslice.SetSaveWriterHook(nil)
				if tgt.hook != nil {
					*tgt.hook = nil
				}
				if err == nil {
					it.Close() //nolint:errcheck // cleanup
					t.Fatalf("%s offset %d: merge succeeded through the fault", tgt.name, off)
				}
				if crash == "" {
					it.Close() //nolint:errcheck // cleanup
					t.Fatalf("%s offset %d: fault never fired", tgt.name, off)
				}
				// The crash image recovers to the previous epoch.
				reopenAndCheck(t, crash, 1, total)
				// The live table survived the failed merge too: still
				// queryable, still appendable, and a retry commits.
				checkIngestRows(t, it, total)
				if err := it.MergeNow(); err != nil {
					t.Fatalf("%s offset %d: retry merge: %v", tgt.name, off, err)
				}
				checkIngestRows(t, it, total)
				if it.Epoch() != 2 {
					t.Fatalf("%s offset %d: epoch %d after retry", tgt.name, off, it.Epoch())
				}
				it.Close() //nolint:errcheck // per-offset instance
			}
		})
	}
}

type countingWriter struct {
	w io.Writer
	n *int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// TestIngestWALFaultSweep corrupts the on-disk WAL of the template ingest
// directory at every byte offset (truncate and bit-flip): OpenIngest
// must either recover a clean prefix of the appended rows or fail with a
// typed error — never panic, never invent or reorder rows.
func TestIngestWALFaultSweep(t *testing.T) {
	template := ingestTemplate(t)
	m, err := ingest.ReadManifest(template)
	if err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(template, m.WAL))
	if err != nil {
		t.Fatal(err)
	}

	check := func(what string, mutate func(dst string)) {
		t.Helper()
		dir := copyDir(t, template)
		mutate(filepath.Join(dir, m.WAL))
		it, err := byteslice.OpenIngest(dir, byteslice.WithAutoMerge(false))
		if err != nil {
			if !errors.Is(err, ingest.ErrCorrupt) && !errors.Is(err, ingest.ErrVersion) &&
				!errors.Is(err, ingest.ErrMismatch) {
				t.Fatalf("%s: error %v is not typed", what, err)
			}
			return
		}
		defer it.Close() //nolint:errcheck // read-only
		// Replay succeeded: whatever came back must be a clean prefix.
		n := it.Len() - 3
		if n < 0 || n > 30 {
			t.Fatalf("%s: %d delta rows recovered from 30", what, n)
		}
		checkIngestRows(t, it, n)
	}

	for off := 0; off <= len(walBytes); off++ {
		off := off
		check(fmt.Sprintf("truncate@%d", off), func(path string) {
			if err := os.WriteFile(path, walBytes[:off], 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	for off := 0; off < len(walBytes); off++ {
		off := off
		check(fmt.Sprintf("flip@%d", off), func(path string) {
			if err := os.WriteFile(path, faultio.Flip(walBytes, off, 0x20), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIngestStress runs the full pipeline under load: one appender, a
// merger running concurrently with it, and readers that each pin a view
// and query it while the appender crosses hundreds of 32-row delta
// segment boundaries between merges. On its pinned view a reader must
// get the same answer twice, and the two halves of a split range must
// add up to it; across views the matched set only grows. Run with -race
// this is the publication-safety proof: readers never load a delta byte
// the appender writes.
func TestIngestStress(t *testing.T) {
	it, _ := ingestFixture(t,
		byteslice.WithAutoMerge(false),
		byteslice.WithDeltaBound(1<<20),
		byteslice.WithSyncedAppends(false))
	const (
		readers    = 4
		mergeEvery = 8192 // 256 segment boundaries between merges
		rows       = 3 * mergeEvery
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	merges := make(chan struct{}, 1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for range merges {
			if err := it.MergeNow(); err != nil {
				t.Errorf("merge: %v", err)
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed)) //nolint:gosec
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := it.Pin()
				qty := func(op byteslice.Op, c int64) *byteslice.Result {
					res, err := pin.Filter([]byteslice.Filter{byteslice.IntFilter("qty", op, c)})
					if err != nil {
						t.Errorf("reader: %v", err)
						return nil
					}
					return res
				}
				c := rng.Int64N(101)
				all, again, lt, ge := qty(byteslice.Ge, 0), qty(byteslice.Ge, 0), qty(byteslice.Lt, c), qty(byteslice.Ge, c)
				if all == nil || again == nil || lt == nil || ge == nil {
					return
				}
				rows := all.Rows()
				if !sameRows(rows, again.Rows()) {
					t.Errorf("reader: qty >= 0 answered %d then %d rows on one pinned view", all.Count(), again.Count())
					return
				}
				if lt.Count()+ge.Count() != len(rows) || !sameRows(lt.Or(ge).Rows(), rows) {
					t.Errorf("reader: qty < %d and qty >= %d split %d rows as %d + %d", c, c, len(rows), lt.Count(), ge.Count())
					return
				}
				if len(rows) < last {
					t.Errorf("reader: matched rows went backwards: %d -> %d", last, len(rows))
					return
				}
				last = len(rows)
				// Base rows are immutable: row 1 (qty 50, SHIP) always matches.
				if !all.Contains(1) {
					t.Error("reader: base row vanished")
					return
				}
			}
		}(uint64(r))
	}

	for i := 0; i < rows; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
		if i%mergeEvery == mergeEvery-1 {
			select {
			case merges <- struct{}{}:
			default: // a merge is already pending
			}
		}
	}
	close(merges)
	close(stop)
	wg.Wait()
	checkIngestRows(t, it, rows)
	if it.Epoch() < 2 {
		t.Fatalf("epoch = %d, want merges", it.Epoch())
	}
	if _, panics, lastErr := it.MergeStats(); panics != 0 || lastErr != nil {
		t.Fatalf("merger: %d panics, lastErr %v", panics, lastErr)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestMatrix drives every column kind through every storage format
// and NULL pattern end to end: build base → CreateIngest → Append (with
// NULLs) → query → MergeNow → query → reopen → query.
func TestIngestMatrix(t *testing.T) {
	const n = 37
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
				dir := t.TempDir()
				it, err := byteslice.CreateIngest(dir, base, byteslice.WithAutoMerge(false))
				if err != nil {
					t.Fatal(err)
				}
				defer func() { it.Close() }() //nolint:errcheck // closes the latest instance; double close ok
				words := []string{"ant", "bee", "cat", "dog"}
				const appended = 21
				for i := 0; i < appended; i++ {
					row := map[string]any{
						"i": int64(i - 100),
						"d": float64(i%70) / 8,
						"s": words[i%len(words)],
						"c": uint32(i * 3 % 512),
					}
					if every > 0 && i%every == 0 {
						row["i"] = nil
						row["d"] = nil
					}
					if err := it.Append(row); err != nil {
						t.Fatal(err)
					}
				}

				// nullsBefore counts the appended NULL rows among the first k.
				nullsBefore := func(k int) int {
					nulls := 0
					for i := 0; i < k; i++ {
						if every > 0 && i%every == 0 {
							nulls++
						}
					}
					return nulls
				}
				wantMatches := func() []int32 {
					// i ≥ -90 over appended rows: i-100 >= -90 → i >= 10, non-NULL.
					var want []int32
					for i := 0; i < appended; i++ {
						if every > 0 && i%every == 0 {
							continue
						}
						if i-100 >= -90 {
							want = append(want, int32(n+i))
						}
					}
					return want
				}
				checkMatches := func(stage string) {
					t.Helper()
					res, err := it.Filter([]byteslice.Filter{
						byteslice.IntFilter("i", byteslice.Ge, -90),
						byteslice.IntFilter("i", byteslice.Lt, -50),
					})
					if err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					var want []int32
					for _, r := range wantMatches() {
						i := int(r) - n
						if i-100 < -50 {
							want = append(want, r)
						}
					}
					// Base rows matching the range too.
					var baseWant []int32
					for i := 0; i < n; i++ {
						v := int64(i*11%400) - 200
						if v >= -90 && v < -50 {
							baseWant = append(baseWant, int32(i))
						}
					}
					want = append(baseWant, want...)
					got := res.Rows()
					if len(got) != len(want) {
						t.Fatalf("%s: %d matches, want %d", stage, len(got), len(want))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("%s: row[%d] = %d, want %d", stage, j, got[j], want[j])
						}
					}
					// A disjunction of string and code predicates spans the
					// base and the delta: s is "bee" at
					// i%4 == 1 and c is 0 only at i == 0, on both sides.
					var anyWant []int32
					for i := 0; i < n+appended; i++ {
						if j := i - n; i == 0 || j == 0 || i < n && i%4 == 1 || j >= 0 && j%4 == 1 {
							anyWant = append(anyWant, int32(i))
						}
					}
					sres, err := it.FilterAny([]byteslice.Filter{
						byteslice.StringFilter("s", byteslice.Eq, "bee"),
						byteslice.CodeFilter("c", byteslice.Eq, 0),
					})
					wantRows(t, stage+" strings", sres, err, anyWant...)
					// A range true for every value still excludes the NULLs.
					res, err = it.Filter([]byteslice.Filter{byteslice.IntFilter("i", byteslice.Ge, -200)})
					if err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					if res.Count() != n+appended-nullsBefore(appended) {
						t.Fatalf("%s NULL count: %d matched, want %d", stage, res.Count(), n+appended-nullsBefore(appended))
					}
				}
				// checkBaseNulls: the merged base carries the NULLs of the
				// appended rows it absorbed (all 21: a merge covers every
				// published row).
				checkBaseNulls := func(stage string) {
					t.Helper()
					col, err := it.Base().Column("i")
					if err != nil {
						t.Fatal(err)
					}
					merged := it.Base().Len() - n
					if merged != appended || col.NullCount() != nullsBefore(merged) {
						t.Fatalf("%s: base absorbed %d rows with %d NULLs, want %d with %d",
							stage, merged, col.NullCount(), appended, nullsBefore(appended))
					}
				}

				checkMatches("pre-merge")
				if err := it.MergeNow(); err != nil {
					t.Fatal(err)
				}
				checkMatches("post-merge")
				checkBaseNulls("post-merge")
				if it.Epoch() != 2 {
					t.Fatalf("epoch = %d", it.Epoch())
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				it, err = byteslice.OpenIngest(dir, byteslice.WithAutoMerge(false))
				if err != nil {
					t.Fatal(err)
				}
				checkMatches("reopened")
				checkBaseNulls("reopened")
			})
		}
	}
}

// TestIngestObsStages: the delta scan lands as a stage in the query's
// collector, and ingest counters reach the registry snapshot.
func TestIngestObsStages(t *testing.T) {
	it, _ := ingestFixture(t)
	for i := 0; i < 10; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := it.Filter([]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 50)})
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Stats()
	if qs == nil {
		t.Fatal("no stats on native ingest query")
	}
	found := false
	for _, st := range qs.Stages {
		if st.Name == "scan(delta)" && st.Kind == "delta" && st.Rows == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no scan(delta) stage in %+v", qs.Stages)
	}
	snap := byteslice.StatsSnapshot()
	if snap.Ingest.AppendedRows == 0 || snap.Ingest.DeltaRows == 0 {
		t.Fatalf("ingest registry counters missing: %+v", snap.Ingest)
	}
}

// TestIngestMergerRecovers: a transient merge fault is retried by the
// background merger until it lands, without losing rows.
func TestIngestMergerRecovers(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithDeltaBound(8), byteslice.WithAutoMerge(false))
	var fails atomic.Int32
	fails.Store(3)
	defer func() {
		it.Close() //nolint:errcheck // stops the merger before the hook goes away
		byteslice.SetSaveWriterHook(nil)
	}()
	byteslice.SetSaveWriterHook(func(w io.Writer) io.Writer {
		if fails.Add(-1) >= 0 {
			return &faultio.Writer{W: w, FailAt: 16}
		}
		return w
	})
	for i := 0; i < 8; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The bound is hit; backpressure wakes the background merger, which
	// fails three times and then succeeds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := it.Append(ingestRow(8))
		if err == nil {
			break
		}
		if !errors.Is(err, byteslice.ErrBackpressure) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("merger never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkIngestRows(t, it, 9)
	if it.Epoch() < 2 {
		t.Fatalf("epoch = %d, want a merge", it.Epoch())
	}
}

// TestIngestModelProperty runs a random sequence of appends (with NULLs),
// queries, merges and reopens against a plain-Go model of the table, then
// bursts that leave the delta, after a merge, at 0, 1, 31, 32, 33, 63, 64
// and 65 rows: empty, a partial segment alone, whole segments alone, and
// both. Every query shape is checked by exact rows, and a view pinned
// before each step answers the same after it.
func TestIngestModelProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(120, 120)) //nolint:gosec
	type row struct {
		v      int64
		vNull  bool
		tagIdx int
	}
	tags := []string{"x", "y", "z"}

	// The base rows cover the whole tag vocabulary (a string column's
	// dictionary is fixed at build time, so appends must reuse it).
	baseVals := []int64{10, 20, 30, 40, 50, 60}
	baseTags := []string{"x", "y", "x", "z", "y", "z"}
	var model []row
	for i := range baseVals {
		ti := 0
		for j, s := range tags {
			if s == baseTags[i] {
				ti = j
			}
		}
		model = append(model, row{baseVals[i], false, ti})
	}
	vCol := intColumn(t, "v", baseVals, 0, 1000)
	tCol, err := byteslice.NewStringColumn("tag", baseTags)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(vCol, tCol)
	if err != nil {
		t.Fatal(err)
	}
	opts := []byteslice.IngestOption{byteslice.WithSyncedAppends(false), byteslice.WithAutoMerge(false)}
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, tbl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { it.Close() }() //nolint:errcheck // closes the latest instance; double close ok

	appendRow := func(step int) {
		r := row{v: int64(rng.IntN(1000)), vNull: rng.IntN(10) == 0, tagIdx: rng.IntN(len(tags))}
		vals := map[string]any{"v": r.v, "tag": tags[r.tagIdx]}
		if r.vNull {
			vals["v"] = nil
		}
		if err := it.Append(vals); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		model = append(model, r)
	}
	merge := func(step int) {
		if err := it.MergeNow(); err != nil {
			t.Fatalf("step %d merge: %v", step, err)
		}
	}
	reopen := func(step int) { // replay the WAL over the epoch's base
		if err := it.Close(); err != nil {
			t.Fatalf("step %d close: %v", step, err)
		}
		if it, err = byteslice.OpenIngest(dir, opts...); err != nil {
			t.Fatalf("step %d reopen: %v", step, err)
		}
	}

	// verify checks a conjunction, a disjunction, a nested expression
	// (also on the modelled WithProfile path) and the nullable column's
	// domain edges against the model.
	verify := func(step int) {
		c, c2 := int64(rng.IntN(1000)), int64(rng.IntN(1000))
		tag := tags[rng.IntN(len(tags))]
		le := byteslice.IntFilter("v", byteslice.Le, c)
		eq := byteslice.StringFilter("tag", byteslice.Eq, tag)
		nested := byteslice.All(byteslice.Leaf(le),
			byteslice.Any(byteslice.Leaf(eq), byteslice.Leaf(byteslice.IntFilter("v", byteslice.Gt, c2))))
		vle := func(r row) bool { return !r.vNull && r.v <= c }
		teq := func(r row) bool { return tags[r.tagIdx] == tag }
		inNested := func(r row) bool { return vle(r) && (teq(r) || !r.vNull && r.v > c2) }
		cases := []struct {
			name  string
			run   func() (*byteslice.Result, error)
			match func(r row) bool
		}{
			{"v <= c AND tag = t", func() (*byteslice.Result, error) {
				return it.Filter([]byteslice.Filter{le, eq})
			}, func(r row) bool { return vle(r) && teq(r) }},
			{"v <= c OR tag = t", func() (*byteslice.Result, error) {
				return it.FilterAny([]byteslice.Filter{le, eq})
			}, func(r row) bool { return vle(r) || teq(r) }},
			{"v <= c AND (tag = t OR v > c2)", func() (*byteslice.Result, error) {
				return it.Query(nested)
			}, inNested},
			{"v <= c AND (tag = t OR v > c2), WithProfile", func() (*byteslice.Result, error) {
				return it.Query(nested, byteslice.WithProfile(byteslice.NewProfile()))
			}, inNested},
			{"v >= 0", func() (*byteslice.Result, error) {
				return it.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Ge, 0)})
			}, func(r row) bool { return !r.vNull }},
			{"v > 5000", func() (*byteslice.Result, error) {
				return it.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Gt, 5000)})
			}, func(row) bool { return false }},
		}
		for _, tc := range cases {
			var want []int32
			for i, r := range model {
				if tc.match(r) {
					want = append(want, int32(i))
				}
			}
			res, err := tc.run()
			wantRows(t, fmt.Sprintf("step %d: %s (c %d, c2 %d, tag %s)", step, tc.name, c, c2, tag), res, err, want...)
		}
	}

	// pinned pins a view and records its answer to a fixed query; the
	// returned check asserts the view still gives it after the step.
	pinnedRows := func(p byteslice.Pinned) []int32 {
		res, err := p.Filter([]byteslice.Filter{byteslice.IntFilter("v", byteslice.Le, 500)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows()
	}
	pinned := func() func(step int) {
		p := it.Pin()
		n, rows := p.Len(), pinnedRows(p)
		return func(step int) {
			if got := pinnedRows(p); p.Len() != n || !sameRows(got, rows) {
				t.Fatalf("step %d: pinned view changed: %d rows, %d matches, was %d rows, %d matches",
					step, p.Len(), len(got), n, len(rows))
			}
		}
	}

	for step := 0; step < 300; step++ {
		check := pinned()
		switch rng.IntN(10) {
		case 0, 1, 2, 3, 4, 5:
			appendRow(step)
		case 6, 7, 8:
			verify(step)
		case 9:
			merge(step)
		}
		if step%50 == 49 {
			reopen(step)
			verify(step)
		}
		check(step)
	}
	for k, burst := range []int{0, 1, 31, 32, 33, 63, 64, 65} {
		step := 1000 + k
		check := pinned()
		merge(step)
		for i := 0; i < burst; i++ {
			appendRow(step)
		}
		if it.DeltaLen() != burst {
			t.Fatalf("step %d: delta %d after a merge and %d appends", step, it.DeltaLen(), burst)
		}
		verify(step)
		reopen(step)
		verify(step)
		check(step)
	}
	verify(9999)
	if it.Len() != len(model) {
		t.Fatalf("final length %d, want %d", it.Len(), len(model))
	}
}
