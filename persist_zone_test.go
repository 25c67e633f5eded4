package byteslice_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"byteslice"
)

// zonedSnapshotTable is a date-ordered int column with zone maps beside a
// plain one: the shape a served fact table takes.
func zonedSnapshotTable(t *testing.T) *byteslice.Table {
	t.Helper()
	const n = 4096
	day := make([]int64, n)
	qty := make([]int64, n)
	for i := range day {
		day[i] = int64(i / 8)
		qty[i] = int64(i * 7 % 50)
	}
	dc := intColumn(t, "day", day, 0, n/8, byteslice.WithZoneMaps())
	qc := intColumn(t, "qty", qty, 0, 49)
	tbl, err := byteslice.NewTable(dc, qc)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestSnapshotKeepsZoneMaps pins that a saved table's zone maps survive
// SaveFile → LoadFile: the v3 metadata flags byte records them, and the
// loaded column prunes a range query exactly as the original does.
func TestSnapshotKeepsZoneMaps(t *testing.T) {
	tbl := zonedSnapshotTable(t)
	path := filepath.Join(t.TempDir(), "zoned.bslc")
	if err := tbl.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := byteslice.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	day, _ := got.Column("day")
	qty, _ := got.Column("qty")
	if !day.HasZoneMaps() || qty.HasZoneMaps() {
		t.Fatalf("zone maps after load: day %v (want true), qty %v (want false)", day.HasZoneMaps(), qty.HasZoneMaps())
	}
	f := []byteslice.Filter{byteslice.IntFilter("day", byteslice.Between, 100, 140)}
	want, err := tbl.Filter(f, byteslice.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Filter(f, byteslice.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != want.Count() || res.ZoneSkipped() == 0 || res.ZoneSkipped() != want.ZoneSkipped() {
		t.Fatalf("loaded: %d rows, %d zone-skipped; original: %d rows, %d zone-skipped",
			res.Count(), res.ZoneSkipped(), want.Count(), want.ZoneSkipped())
	}
}

// TestSnapshotRejectsUnknownFlags pins the v3 flags byte's contract: a
// bit the reader does not know is corruption, even under a valid checksum.
func TestSnapshotRejectsUnknownFlags(t *testing.T) {
	var buf bytes.Buffer
	if _, err := zonedSnapshotTable(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// magic + version, then the 'T' section (tag, length, 12-byte payload,
	// checksum); the first 'M' section follows.
	m := 4 + 2 + 1 + 8 + 12 + 4
	if b[m] != 'M' {
		t.Fatalf("byte %d = %q, want the first metadata section", m, b[m])
	}
	ln := int(binary.LittleEndian.Uint64(b[m+1:]))
	payload := b[m+9 : m+9+ln]
	if flags := payload[ln-1]; flags != 1 {
		t.Fatalf("zoned column's flags byte = %#x, want 0x1", flags)
	}
	payload[ln-1] |= 0x80
	binary.LittleEndian.PutUint32(b[m+9+ln:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := byteslice.ReadTable(bytes.NewReader(b)); !errors.Is(err, byteslice.ErrCorrupt) {
		t.Fatalf("unknown flag bit: err = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotReadsV2Fixture loads a committed version-2 snapshot (written
// before the stream recorded zone maps) and checks every value, NULL and
// format survives; v2 has no flags byte, so no zone maps come back.
func TestSnapshotReadsV2Fixture(t *testing.T) {
	tbl, err := byteslice.LoadFile(filepath.Join("testdata", "snapshot_v2.bslc"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 70
	if tbl.Len() != n {
		t.Fatalf("rows = %d, want %d", tbl.Len(), n)
	}
	words := []string{"air", "rail", "ship", "truck"}
	ic, _ := tbl.Column("i")
	dc, _ := tbl.Column("d")
	sc, _ := tbl.Column("s")
	cc, _ := tbl.Column("c")
	if ic.HasZoneMaps() || sc.Format() != byteslice.FormatHBP || cc.Width() != 10 {
		t.Fatalf("fixture columns: zone maps %v, s format %s, c width %d", ic.HasZoneMaps(), sc.Format(), cc.Width())
	}
	for i := 0; i < n; i++ {
		if ic.IsNull(i) != (i == 3 || i == 64) {
			t.Fatalf("row %d: NULL = %v", i, ic.IsNull(i))
		}
		if !ic.IsNull(i) {
			if v, _ := ic.LookupInt(nil, i); v != int64(i*7%100)-50 {
				t.Fatalf("i[%d] = %d", i, v)
			}
		}
		if v, _ := dc.LookupDecimal(nil, i); v != float64(i%11)/4 {
			t.Fatalf("d[%d] = %v", i, v)
		}
		if v, _ := sc.LookupString(nil, i); v != words[i%len(words)] {
			t.Fatalf("s[%d] = %q", i, v)
		}
		if v := cc.LookupCode(nil, i); v != uint32(i*37%1024) {
			t.Fatalf("c[%d] = %d", i, v)
		}
	}
}

// TestSnapshotReadsV3Fixture loads a committed version-3 snapshot (4-byte
// codes, written before snapshots stored each column's layout) holding
// every kind, NULLs, a zone-mapped column, a compressed column and the
// HBP, VBP and BitPacked layouts, and checks every value, NULL and format
// survives and the zone maps come back and prune.
func TestSnapshotReadsV3Fixture(t *testing.T) {
	tbl, err := byteslice.LoadFile(filepath.Join("testdata", "snapshot_v3.bslc"))
	if err != nil {
		t.Fatal(err)
	}
	checkV3Fixture(t, tbl)
	f := []byteslice.Filter{byteslice.IntFilter("day", byteslice.Between, 20, 40)}
	res, err := tbl.Filter(f, byteslice.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 21*8 || res.ZoneSkipped() == 0 {
		t.Fatalf("day in [20, 40]: %d rows (want %d), %d segments zone-skipped", res.Count(), 21*8, res.ZoneSkipped())
	}
}

// v3FixtureRows is the row count of testdata/snapshot_v3.bslc.
const v3FixtureRows = 1100

// checkV3Fixture checks the first v3FixtureRows rows of a table loaded
// from testdata/snapshot_v3.bslc, and its formats and zone maps.
func checkV3Fixture(t *testing.T, tbl *byteslice.Table) {
	t.Helper()
	col := func(name string) *byteslice.Column {
		c, err := tbl.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ic, day, dc, sc, cc, zc, hc, vc := col("i"), col("day"), col("d"), col("s"), col("c"), col("z"), col("h"), col("v")
	formats := []byteslice.Format{ic.Format(), day.Format(), dc.Format(), sc.Format(), cc.Format(), zc.Format(), hc.Format(), vc.Format()}
	want := []byteslice.Format{byteslice.FormatByteSlice, byteslice.FormatByteSlice, byteslice.FormatBitPacked, byteslice.FormatByteSlice,
		byteslice.FormatByteSlice, byteslice.FormatByteSliceC, byteslice.FormatHBP, byteslice.FormatVBP}
	for i := range want {
		if formats[i] != want[i] {
			t.Fatalf("formats %v, want %v", formats, want)
		}
	}
	if !day.HasZoneMaps() || ic.HasZoneMaps() || cc.Width() != 10 {
		t.Fatalf("zone maps: day %v, i %v; c width %d", day.HasZoneMaps(), ic.HasZoneMaps(), cc.Width())
	}
	words := []string{"air", "rail", "ship", "truck"}
	for i := 0; i < v3FixtureRows; i++ {
		if ic.IsNull(i) != (i == 3 || i == 64 || i == 1099) || sc.IsNull(i) != (i == 0 || i == 513) {
			t.Fatalf("row %d: NULL i %v, s %v", i, ic.IsNull(i), sc.IsNull(i))
		}
		if v, _ := ic.LookupInt(nil, i); !ic.IsNull(i) && v != int64(i*7%100)-50 {
			t.Fatalf("i[%d] = %d", i, v)
		}
		if v, _ := day.LookupInt(nil, i); v != int64(i/8) {
			t.Fatalf("day[%d] = %d", i, v)
		}
		if v, _ := dc.LookupDecimal(nil, i); v != float64(i%11)/4 {
			t.Fatalf("d[%d] = %v", i, v)
		}
		if v, _ := sc.LookupString(nil, i); !sc.IsNull(i) && v != words[i%len(words)] {
			t.Fatalf("s[%d] = %q", i, v)
		}
		if v, _ := zc.LookupInt(nil, i); v != int64(i/3) {
			t.Fatalf("z[%d] = %d", i, v)
		}
		code := uint32(i * 37 % 1024)
		if cc.LookupCode(nil, i) != code || hc.LookupCode(nil, i) != code || vc.LookupCode(nil, i) != code {
			t.Fatalf("row %d: codes c %d, h %d, v %d, want %d", i, cc.LookupCode(nil, i), hc.LookupCode(nil, i), vc.LookupCode(nil, i), code)
		}
	}
}

// TestIngestReopensV3Base: an ingest directory whose base snapshot is a
// version-3 stream, as a directory written before v4 holds, reopens with
// every row, and its next merge writes the new base in the current
// format.
func TestIngestReopensV3Base(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "snapshot_v3.bslc"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := byteslice.ReadTable(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, base, byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "base-1.bslc"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	it, err = byteslice.OpenIngest(dir, byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close() //nolint:errcheck // test cleanup
	checkV3Fixture(t, it.Base())
	row := map[string]any{"i": nil, "day": int64(137), "d": 2.5, "s": "ship", "c": uint32(5), "z": int64(366), "h": uint32(6), "v": uint32(7)}
	if err := it.Append(row); err != nil {
		t.Fatal(err)
	}
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	if it.Epoch() != 2 || it.DeltaLen() != 0 || it.Len() != v3FixtureRows+1 {
		t.Fatalf("after merge: epoch %d, %d delta rows, %d rows", it.Epoch(), it.DeltaLen(), it.Len())
	}
	merged, err := os.ReadFile(filepath.Join(dir, "base-2.bslc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) < 6 || binary.LittleEndian.Uint16(merged[4:]) != 4 {
		t.Fatalf("merged base starts %q, want a version-4 stream", merged[:min(len(merged), 6)])
	}
	checkV3Fixture(t, it.Base())
	z, _ := it.Base().Column("z")
	if v, _ := z.LookupInt(nil, v3FixtureRows); v != 366 || !z.Compressed() {
		t.Fatalf("appended z = %d, compressed %v", v, z.Compressed())
	}
}
