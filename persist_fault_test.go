package byteslice_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"byteslice"
	"byteslice/internal/faultio"
)

// faultTable builds a small reference table covering every column kind,
// a NULL vector and a dictionary — enough that its snapshot exercises all
// section types while staying small enough to sweep byte by byte.
func faultTable(t *testing.T) *byteslice.Table {
	t.Helper()
	n := 100
	ints := make([]int64, n)
	decs := make([]float64, n)
	strs := make([]string, n)
	codes := make([]uint32, n)
	words := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		ints[i] = int64(i*7%500) - 250
		decs[i] = float64(i%90) / 4
		strs[i] = words[i%len(words)]
		codes[i] = uint32(i * 13 % 1024)
	}
	ic, err := byteslice.NewIntColumn("i", ints, -250, 250, byteslice.WithNulls([]int{2, 41}))
	if err != nil {
		t.Fatal(err)
	}
	dc, err := byteslice.NewDecimalColumn("d", decs, 0, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := byteslice.NewStringColumn("s", strs)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := byteslice.NewCodeColumn("c", codes, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A compressed column, so the sweeps also cover ByteSliceC sections.
	sortedVals := make([]int64, n)
	for i := range sortedVals {
		sortedVals[i] = int64(i / 3)
	}
	zc, err := byteslice.NewIntColumn("z", sortedVals, 0, 200, byteslice.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	if !zc.Compressed() {
		t.Fatal("fault-table column z should take the compressed layout")
	}
	// An HBP column, so the sweeps also cover the lookup-optimised layout
	// a caller can choose per column (Table.WithLayout).
	hc, err := byteslice.NewCodeColumn("h", codes, 10, byteslice.WithFormat(byteslice.FormatHBP))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(ic, dc, sc, cc, zc, hc)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// encodeV2 serialises the table in the current stream format.
func encodeV2(t *testing.T, tbl *byteslice.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readNoPanic runs ReadTable under recover, so a corrupt input that panics
// fails the sweep with the offset instead of killing the test binary.
func readNoPanic(t *testing.T, what string, off int, data []byte) (tbl *byteslice.Table, err error) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("%s at offset %d: ReadTable panicked: %v", what, off, v)
		}
	}()
	return byteslice.ReadTable(bytes.NewReader(data))
}

// TestFaultSweepTruncate: a v2 snapshot cut at every possible byte offset
// is rejected with ErrCorrupt — never a panic, never a silently short
// table.
func TestFaultSweepTruncate(t *testing.T) {
	full := encodeV2(t, faultTable(t))
	for off := 0; off < len(full); off++ {
		tbl, err := readNoPanic(t, "truncate", off, faultio.Truncate(full, off))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted (table: %v)", off, len(full), tbl)
		}
		if !errors.Is(err, byteslice.ErrCorrupt) && !errors.Is(err, byteslice.ErrVersion) {
			t.Fatalf("truncation at %d: error %v is not ErrCorrupt/ErrVersion", off, err)
		}
	}
}

// TestFaultSweepBitFlip: flipping any single bit of a v2 snapshot is
// detected — the framing catches structural bytes, the per-section CRC32-C
// catches everything else. No flip may yield a wrong table silently.
func TestFaultSweepBitFlip(t *testing.T) {
	full := encodeV2(t, faultTable(t))
	for _, mask := range []byte{0x01, 0x80} {
		for off := 0; off < len(full); off++ {
			tbl, err := readNoPanic(t, fmt.Sprintf("flip&%#x", mask), off, faultio.Flip(full, off, mask))
			if err == nil {
				t.Fatalf("bit flip (mask %#x) at %d/%d accepted (table: %v)", mask, off, len(full), tbl)
			}
			if !errors.Is(err, byteslice.ErrCorrupt) && !errors.Is(err, byteslice.ErrVersion) {
				t.Fatalf("bit flip at %d: error %v is not ErrCorrupt/ErrVersion", off, err)
			}
		}
	}
}

// TestFaultSweepReadError: an I/O error at every byte offset surfaces as
// that error (wrapping faultio.ErrInjected), not mislabelled as corruption
// and not a panic.
func TestFaultSweepReadError(t *testing.T) {
	full := encodeV2(t, faultTable(t))
	for off := 0; off < len(full); off++ {
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("read fault at offset %d: ReadTable panicked: %v", off, v)
				}
			}()
			_, err := byteslice.ReadTable(&faultio.Reader{R: bytes.NewReader(full), FailAt: int64(off)})
			if err == nil {
				t.Fatalf("read fault at %d/%d accepted", off, len(full))
			}
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("read fault at %d: error %v does not wrap the injected I/O error", off, err)
			}
		}()
	}
}

// TestFaultSweepWriteError: WriteTo propagates a write failure (hard or
// short, at every byte offset) as an error, never a panic.
func TestFaultSweepWriteError(t *testing.T) {
	tbl := faultTable(t)
	full := encodeV2(t, tbl)
	for _, short := range []bool{false, true} {
		for off := 0; off < len(full); off++ {
			func() {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("write fault (short=%v) at offset %d: WriteTo panicked: %v", short, off, v)
					}
				}()
				_, err := tbl.WriteTo(&faultio.Writer{W: io.Discard, FailAt: int64(off), Short: short})
				if err == nil {
					t.Fatalf("write fault (short=%v) at %d/%d not reported", short, off, len(full))
				}
				if !errors.Is(err, faultio.ErrInjected) {
					t.Fatalf("write fault at %d: error %v does not wrap the injected I/O error", off, err)
				}
			}()
		}
	}
}

// tablesEqualInts compares the "i" column values of two tables.
func tablesEqualInts(t *testing.T, a, b *byteslice.Table) bool {
	t.Helper()
	if a.Len() != b.Len() {
		return false
	}
	ca, err := a.Column("i")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Column("i")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		va, nva := ca.LookupInt(nil, i)
		vb, nvb := cb.LookupInt(nil, i)
		if va != vb || nva != nvb {
			return false
		}
	}
	return true
}

// TestSaveFileCrashAtomic simulates a crash (short write followed by
// failure, like ENOSPC or power loss) at every byte offset of the snapshot
// stream during SaveFile over an existing snapshot, and asserts the
// previous snapshot always remains loadable and intact. A successful
// retry then publishes the new one.
func TestSaveFileCrashAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.bslc")

	oldTbl := faultTable(t)
	if err := oldTbl.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// A different table, so a torn mix of old and new is distinguishable.
	ints := make([]int64, 64)
	for i := range ints {
		ints[i] = int64(1000 + i)
	}
	ic, err := byteslice.NewIntColumn("i", ints, 1000, 1100)
	if err != nil {
		t.Fatal(err)
	}
	newTbl, err := byteslice.NewTable(ic)
	if err != nil {
		t.Fatal(err)
	}
	streamLen := int64(len(encodeV2(t, newTbl)))

	defer byteslice.SetSaveWriterHook(nil)
	for off := int64(0); off < streamLen; off++ {
		byteslice.SetSaveWriterHook(func(w io.Writer) io.Writer {
			return &faultio.Writer{W: w, FailAt: off, Short: true}
		})
		if err := newTbl.SaveFile(path); err == nil {
			t.Fatalf("crash at offset %d: SaveFile reported success", off)
		}
		loaded, err := byteslice.LoadFile(path)
		if err != nil {
			t.Fatalf("crash at offset %d: previous snapshot unloadable: %v", off, err)
		}
		if !tablesEqualInts(t, loaded, oldTbl) {
			t.Fatalf("crash at offset %d: previous snapshot content changed", off)
		}
	}

	// No stray temp files survive the failed attempts.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "table.bslc" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after failed saves: %v", names)
	}

	// The retry with no fault publishes the new snapshot.
	byteslice.SetSaveWriterHook(nil)
	if err := newTbl.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := byteslice.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqualInts(t, loaded, newTbl) {
		t.Fatal("new snapshot not visible after successful save")
	}
}

// TestLoadFileMissing: load errors carry the path and the underlying
// cause.
func TestLoadFileMissing(t *testing.T) {
	_, err := byteslice.LoadFile(filepath.Join(t.TempDir(), "absent.bslc"))
	if err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("error %v does not wrap os.ErrNotExist", err)
	}
}
