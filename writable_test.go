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
	it, dir := ingestFixture(t, byteslice.WithSealRows(8))
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
	it2, err := byteslice.OpenIngest(dir, byteslice.WithSealRows(8))
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
	it, dir := ingestFixture(t, byteslice.WithSealRows(8), byteslice.WithAutoMerge(false))
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
	// The merge covered the sealed segments; the tail (< sealRows) rode
	// the WAL rotation and stays unmerged.
	if d := it.DeltaLen(); d != n%8 {
		t.Fatalf("delta after merge = %d, want %d", d, n%8)
	}
	if it.Base().Len() != 3+n-n%8 {
		t.Fatalf("base len = %d", it.Base().Len())
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
	it, _ := ingestFixture(t, byteslice.WithSealRows(1<<20)) // keep rows in the tail
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
	it, _ := ingestFixture(t, byteslice.WithSealRows(4), byteslice.WithDeltaBound(12), byteslice.WithAutoMerge(false))
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

// ingestTemplate builds a sealed ingest directory once: base + 30
// appended rows with sealRows 8 (3 sealed segments + 6 tail rows).
func ingestTemplate(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, ingestBase(t), byteslice.WithSealRows(8), byteslice.WithAutoMerge(false))
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

// reopenTemplate opens a copy of the template and asserts all 30 rows.
func reopenAndCheck(t *testing.T, dir string, wantEpoch uint64) {
	t.Helper()
	it, err := byteslice.OpenIngest(dir, byteslice.WithSealRows(8), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	defer it.Close() //nolint:errcheck // read-only
	if it.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch = %d, want %d", it.Epoch(), wantEpoch)
	}
	checkIngestRows(t, it, 30)
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
// directory at the exact fault point. Recovering from every snapshot
// must yield the previous epoch with all 30 acknowledged rows; and the
// failed merge must leave the live table consistent and retryable.
func TestIngestCrashDuringMergeSweep(t *testing.T) {
	template := ingestTemplate(t)

	// Probe each stream's full length with a successful merge.
	var baseLen, walLen, manLen int64
	{
		dir := copyDir(t, template)
		it, err := byteslice.OpenIngest(dir, byteslice.WithSealRows(8), byteslice.WithAutoMerge(false))
		if err != nil {
			t.Fatal(err)
		}
		count := func(n *int64) func(io.Writer) io.Writer {
			return func(w io.Writer) io.Writer {
				*n = 0
				return &countingWriter{w: w, n: n}
			}
		}
		byteslice.SetSaveWriterHook(count(&baseLen))
		ingest.WriterHook = count(&walLen)
		ingest.ManifestWriterHook = count(&manLen)
		err = it.MergeNow()
		byteslice.SetSaveWriterHook(nil)
		ingest.WriterHook = nil
		ingest.ManifestWriterHook = nil
		if err != nil {
			t.Fatal(err)
		}
		it.Close() //nolint:errcheck // probe only
		reopenAndCheck(t, dir, 2)
	}
	if baseLen == 0 || walLen == 0 || manLen == 0 {
		t.Fatalf("probe lengths: base %d wal %d manifest %d", baseLen, walLen, manLen)
	}

	type target struct {
		name    string
		length  int64
		install func(hook func(io.Writer) io.Writer)
	}
	targets := []target{
		{"base-snapshot", baseLen, func(h func(io.Writer) io.Writer) { byteslice.SetSaveWriterHook(h) }},
		{"wal-rotation", walLen, func(h func(io.Writer) io.Writer) { ingest.WriterHook = h }},
		{"manifest", manLen, func(h func(io.Writer) io.Writer) { ingest.ManifestWriterHook = h }},
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
				it, err := byteslice.OpenIngest(dir, byteslice.WithSealRows(8), byteslice.WithAutoMerge(false))
				if err != nil {
					t.Fatalf("offset %d: open: %v", off, err)
				}
				crash := ""
				tgt.install(func(w io.Writer) io.Writer {
					return &crashWriter{w: w, failAt: off, dir: dir, crash: &crash, tb: t}
				})
				err = it.MergeNow()
				tgt.install(nil)
				if err == nil {
					it.Close() //nolint:errcheck // cleanup
					t.Fatalf("%s offset %d: merge succeeded through the fault", tgt.name, off)
				}
				if crash == "" {
					it.Close() //nolint:errcheck // cleanup
					t.Fatalf("%s offset %d: fault never fired", tgt.name, off)
				}
				// The crash image recovers to the previous epoch.
				reopenAndCheck(t, crash, 1)
				// The live table survived the failed merge too: still
				// queryable, still appendable, and a retry commits.
				checkIngestRows(t, it, 30)
				if err := it.MergeNow(); err != nil {
					t.Fatalf("%s offset %d: retry merge: %v", tgt.name, off, err)
				}
				checkIngestRows(t, it, 30)
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

// TestIngestWALFaultSweep corrupts the on-disk WAL of a sealed ingest
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
		it, err := byteslice.OpenIngest(dir, byteslice.WithSealRows(8), byteslice.WithAutoMerge(false))
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

// TestIngestStress runs the full pipeline under load: one appender,
// a background merger (aggressive thresholds), and concurrent readers
// that must always observe a consistent view — monotonically growing,
// never torn. Run with -race this is the publication-safety proof.
func TestIngestStress(t *testing.T) {
	it, _ := ingestFixture(t,
		byteslice.WithSealRows(16),
		byteslice.WithDeltaBound(1<<20),
		byteslice.WithSyncedAppends(false))
	const (
		readers = 4
		rows    = 2000
	)
	var appended atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Always-true predicate (modulo NULLs): the matched set
				// must grow monotonically and rows must stay stable.
				res, err := it.Filter([]byteslice.Filter{byteslice.IntFilter("qty", byteslice.Ge, 0)})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if res.Count() < last {
					t.Errorf("reader: matched rows went backwards: %d -> %d", last, res.Count())
					return
				}
				last = res.Count()
				// Base rows are immutable: row 1 (qty 50, SHIP) always matches.
				if !res.Contains(1) {
					t.Error("reader: base row vanished")
					return
				}
			}
		}()
	}

	for i := 0; i < rows; i++ {
		if err := it.Append(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
		appended.Add(1)
		if i%256 == 255 {
			if err := it.MergeNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	checkIngestRows(t, it, rows)
	merges, panics, lastErr := it.MergeStats()
	_ = merges
	if panics != 0 || lastErr != nil {
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
				it, err := byteslice.CreateIngest(dir, base, byteslice.WithSealRows(8), byteslice.WithAutoMerge(false))
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
					// base, the sealed segments and the tail: s is "bee" at
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
				// appended rows it absorbed (the sealed ones, 16 of 21).
				checkBaseNulls := func(stage string) {
					t.Helper()
					col, err := it.Base().Column("i")
					if err != nil {
						t.Fatal(err)
					}
					merged := it.Base().Len() - n
					if merged != appended-appended%8 || col.NullCount() != nullsBefore(merged) {
						t.Fatalf("%s: base absorbed %d rows with %d NULLs, want %d with %d",
							stage, merged, col.NullCount(), appended-appended%8, nullsBefore(merged))
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
				it, err = byteslice.OpenIngest(dir, byteslice.WithSealRows(8), byteslice.WithAutoMerge(false))
				if err != nil {
					t.Fatal(err)
				}
				checkMatches("reopened")
				checkBaseNulls("reopened")
			})
		}
	}
}

// TestIngestObsStages: the delta tail scan lands as a stage in the
// query's collector, and ingest counters reach the registry snapshot.
func TestIngestObsStages(t *testing.T) {
	it, _ := ingestFixture(t, byteslice.WithSealRows(1<<20))
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
	it, _ := ingestFixture(t, byteslice.WithSealRows(4), byteslice.WithDeltaBound(8), byteslice.WithAutoMerge(false))
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
// queries, merges and reopens against a plain-Go model of the table.
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
	opts := []byteslice.IngestOption{
		byteslice.WithSealRows(8), byteslice.WithSyncedAppends(false), byteslice.WithAutoMerge(false),
	}
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, tbl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { it.Close() }() //nolint:errcheck // closes the latest instance; double close ok

	verify := func(step int) {
		c := int64(rng.IntN(1000))
		tag := tags[rng.IntN(len(tags))]
		res, err := it.Filter([]byteslice.Filter{
			byteslice.IntFilter("v", byteslice.Le, c),
			byteslice.StringFilter("tag", byteslice.Eq, tag),
		})
		var want []int32
		for i, r := range model {
			if !r.vNull && r.v <= c && tags[r.tagIdx] == tag {
				want = append(want, int32(i))
			}
		}
		wantRows(t, fmt.Sprintf("step %d (v <= %d, tag %s)", step, c, tag), res, err, want...)
	}

	for step := 0; step < 300; step++ {
		switch rng.IntN(10) {
		case 0, 1, 2, 3, 4, 5: // append
			r := row{v: int64(rng.IntN(1000)), vNull: rng.IntN(10) == 0, tagIdx: rng.IntN(len(tags))}
			vals := map[string]any{"v": r.v, "tag": tags[r.tagIdx]}
			if r.vNull {
				vals["v"] = nil
			}
			if err := it.Append(vals); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			model = append(model, r)
		case 6, 7, 8: // query
			verify(step)
		case 9: // merge
			if err := it.MergeNow(); err != nil {
				t.Fatalf("step %d merge: %v", step, err)
			}
		}
		if step%50 == 49 { // reopen: replay the WAL over the epoch's base
			if err := it.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			if it, err = byteslice.OpenIngest(dir, opts...); err != nil {
				t.Fatalf("step %d reopen: %v", step, err)
			}
			verify(step)
		}
	}
	verify(9999)
	if it.Len() != len(model) {
		t.Fatalf("final length %d, want %d", it.Len(), len(model))
	}
}
