package byteslice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
)

// streamSection is one framed section of a snapshot stream.
type streamSection struct {
	tag     byte
	payload []byte
}

// splitStream parses a snapshot stream into its version and sections,
// copying each payload so a test can edit it.
func splitStream(tb testing.TB, stream []byte) (uint16, []streamSection) {
	tb.Helper()
	version := binary.LittleEndian.Uint16(stream[4:])
	var secs []streamSection
	for off := 6; off < len(stream); {
		ln := int(binary.LittleEndian.Uint64(stream[off+1:]))
		payload := append([]byte{}, stream[off+9:off+9+ln]...)
		secs = append(secs, streamSection{stream[off], payload})
		off += 9 + ln + 4
	}
	return version, secs
}

// frameStream frames sections into a stream of the given version, each
// behind a valid checksum.
func frameStream(tb testing.TB, version uint16, secs []streamSection) []byte {
	tb.Helper()
	var buf bytes.Buffer
	buf.WriteString(persistMagic)
	buf.Write(binary.LittleEndian.AppendUint16(nil, version))
	cw := &countingWriter{w: &buf}
	for _, s := range secs {
		if err := writeSection(cw, s.tag, s.payload); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// tableStream writes a table of the given columns in the current format.
func tableStream(tb testing.TB, cols ...*Column) []byte {
	tb.Helper()
	tbl, err := NewTable(cols...)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// compressedCodeColumn builds a ByteSliceC code column without the
// build-time decision, as a load or merge does.
func compressedCodeColumn(tb testing.TB, name string, codes []uint32, k int) *Column {
	tb.Helper()
	c, err := newColumn(Column{name: name, kind: KindCode}, k, columnParts{codes: codes}, FormatByteSliceC, false, false)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// mixedBlockCodes returns 1100 12-bit codes over three compressed blocks:
// a uniform one-byte delta block, a mixed-length frame-of-reference
// block, and a mixed-length delta tail of 76 rows.
func mixedBlockCodes() []uint32 {
	rng := rand.New(rand.NewPCG(32, 4)) //nolint:gosec
	codes := make([]uint32, 1100)
	for i := range codes {
		switch {
		case i < 512:
			codes[i] = uint32(i / 3)
		case i < 1024:
			codes[i] = uint32(rng.IntN(4096))
		default:
			codes[i] = uint32(500 + 20*(i-1024) + 256*((i-1024)/25))
		}
	}
	return codes
}

// sectionFixtures returns the columns the section tests and fuzzer
// frame: a raw 10-bit code column with NULLs, a string column whose
// dictionary does not fill its width, a zone-mapped int column, a
// compressed code column with uniform and mixed blocks, a compressed
// string column, an HBP column and a compressed column of uniform
// one-byte frame-of-reference blocks.
func sectionFixtures(tb testing.TB) []*Column {
	tb.Helper()
	const n = 40
	codes := make([]uint32, n)
	strs := make([]string, n)
	days := make([]int64, n)
	words := []string{"a", "b", "c"}
	for i := range codes {
		codes[i] = uint32(i * 37 % 1024)
		strs[i] = words[i%len(words)]
		days[i] = int64(i / 4)
	}
	must := func(c *Column, err error) *Column {
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	sorted := make([]string, 1100)
	for i := range sorted {
		sorted[i] = words[i*len(words)/len(sorted)]
	}
	cs := must(NewStringColumn("cs", sorted))
	sortedCodes, err := materializeCodes(cs)
	if err != nil {
		tb.Fatal(err)
	}
	compStr := *compressedCodeColumn(tb, "cs", sortedCodes, cs.Width())
	compStr.kind, compStr.dict = KindString, cs.dict
	clustered := make([]uint32, 600)
	for i := range clustered {
		clustered[i] = uint32(1000 + i*7%200)
	}
	return []*Column{
		must(NewCodeColumn("raw", codes, 10, WithNulls([]int{2, 39}))),
		must(NewStringColumn("str", strs)),
		must(NewIntColumn("day", days, 0, 9, WithZoneMaps())),
		compressedCodeColumn(tb, "comp", mixedBlockCodes(), 12),
		&compStr,
		must(NewCodeColumn("hbp", codes, 10, WithFormat(FormatHBP))),
		compressedCodeColumn(tb, "for1", clustered, 12),
	}
}

// TestSectionFixturesRoundTrip pins that every fixture column's stream
// loads back to the same codes, footprint and modes, so the rejections
// below are the edits' doing.
func TestSectionFixturesRoundTrip(t *testing.T) {
	for _, c := range sectionFixtures(t) {
		got, err := ReadTable(bytes.NewReader(tableStream(t, c)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g := got.cols[0]
		if g.Format() != c.Format() || g.SizeBytes() != c.SizeBytes() || g.NullCount() != c.NullCount() || g.HasZoneMaps() != c.HasZoneMaps() {
			t.Fatalf("%s: loaded %s %d B %d NULLs zoned %v, saved %s %d B %d NULLs zoned %v", c.name,
				g.Format(), g.SizeBytes(), g.NullCount(), g.HasZoneMaps(), c.Format(), c.SizeBytes(), c.NullCount(), c.HasZoneMaps())
		}
		want, _ := materializeCodes(c)
		have, _ := materializeCodes(g)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s row %d: %d, want %d", c.name, i, have[i], want[i])
			}
		}
	}
	fx := sectionFixtures(t)
	for i, want := range map[int]string{3: "\x03\x00\x01", 6: "\x02\x02"} {
		cc, _ := compressedOf(fx[i].data)
		if string(cc.Modes()) != want {
			t.Fatalf("%s block modes %v, want %v", fx[i].name, cc.Modes(), []byte(want))
		}
	}
}

// TestReadTableRejectsBadSections: a v4 stream whose sections are framed
// behind valid checksums but disagree with each other or with the
// column's metadata fails with ErrCorrupt, never a panic or a table.
func TestReadTableRejectsBadSections(t *testing.T) {
	fx := sectionFixtures(t)
	raw, str, comp, compStr, for1 := fx[0], fx[1], fx[3], fx[4], fx[6]
	le32 := binary.LittleEndian.PutUint32
	le64 := binary.LittleEndian.PutUint64
	cases := []struct {
		name string
		col  *Column
		tag  byte
		nth  int // which section with that tag
		edit func(p []byte) []byte
	}{
		{"padding bit set", raw, secSlice, 1, func(p []byte) []byte { p[5] |= 0x01; return p }},
		{"byte past the last row", raw, secSlice, 0, func(p []byte) []byte { p[50] = 1; return p }},
		{"padding bit past the last row", raw, secSlice, 1, func(p []byte) []byte { p[63] = 0x20; return p }},
		{"byte slice one segment short", raw, secSlice, 0, func(p []byte) []byte { return p[:32] }},
		{"string code at the cardinality", str, secSlice, 0, func(p []byte) []byte { p[7] = 3 << 6; return p }},
		{"compressed string code at the cardinality", compStr, secRefs, 0, func(p []byte) []byte { le32(p[8:], 3); return p }},
		{"histogram short of n", raw, secHist, 0, func(p []byte) []byte { p[0]--; return p }},
		{"histogram past n", raw, secHist, 0, func(p []byte) []byte { p[8*63]++; return p }},
		{"histogram bucket overflowing the sum", raw, secHist, 0, func(p []byte) []byte { le64(p[8:], ^uint64(0)); return p }},
		{"histogram section short", raw, secHist, 0, func(p []byte) []byte { return p[:8*63] }},
		{"NULL bit past n", raw, secNulls, 0, func(p []byte) []byte { p[5] |= 0x02; return p }},
		{"NULL bitmap with no NULL", raw, secNulls, 0, func(p []byte) []byte { return make([]byte, len(p)) }},
		{"NULL bitmap a word long", raw, secNulls, 0, func(p []byte) []byte { return append(p, make([]byte, 8)...) }},
		{"unknown flag bit", raw, secMeta, 0, func(p []byte) []byte { p[len(p)-1] |= 0x04; return p }},
		{"NULL flag without a bitmap", str, secMeta, 0, func(p []byte) []byte { p[len(p)-1] |= metaNulls; return p }},
		{"control lengths short of the data", comp, secData, 0, func(p []byte) []byte {
			return append(append(p[:len(p)-4:len(p)-4], 0), 0, 0, 0, 0)
		}},
		{"control lengths past the data", comp, secData, 0, func(p []byte) []byte {
			return append(p[:len(p)-5:len(p)-5], 0, 0, 0, 0)
		}},
		{"control field lengthened", comp, secCtl, 0, func(p []byte) []byte { p[2*128] |= 0x03; return p }},
		{"non-zero data slack", comp, secData, 0, func(p []byte) []byte { p[len(p)-1] = 1; return p }},
		{"delta codes past 2^k", comp, secRefs, 0, func(p []byte) []byte { le32(p, 4000); return p }},
		{"frame-of-reference code past 2^k", comp, secRefs, 0, func(p []byte) []byte { le32(p[4:], 4000); return p }},
		{"reference past 2^k", comp, secRefs, 0, func(p []byte) []byte { le32(p[8:], 1<<12); return p }},
		{"uniform mode on a mixed block", comp, secModes, 0, func(p []byte) []byte { p[1] |= 1 << 1; return p }},
		{"mixed mode on a uniform block", comp, secModes, 0, func(p []byte) []byte { p[0] = 1; return p }},
		{"unknown mode bit", comp, secModes, 0, func(p []byte) []byte { p[2] |= 0x80; return p }},
		{"frame-of-reference block declared delta", comp, secModes, 0, func(p []byte) []byte { p[1] |= 1; return p }},
		{"delta block's first gap not 0", comp, secData, 0, func(p []byte) []byte { p[0] = 1; return p }},
		{"padding value not 0", comp, secData, 0, func(p []byte) []byte { p[len(p)-5] = 1; return p }},
		{"reference below a uniform block's minimum", for1, secData, 0, func(p []byte) []byte {
			for i, v := range p[:compress.BlockCodes] {
				if v == 0 {
					p[i] = 1
				}
			}
			return p
		}},
		{"uniform frame-of-reference block of non-decreasing codes", for1, secData, 0, func(p []byte) []byte {
			for i := range p[:compress.BlockCodes] {
				p[i] = byte(i / 3)
			}
			return p
		}},
		{"uniform frame-of-reference code past 2^k", for1, secRefs, 0, func(p []byte) []byte { le32(p, 4000); return p }},
		{"reference count short", comp, secRefs, 0, func(p []byte) []byte { return p[:8] }},
		{"control stream long", comp, secCtl, 0, func(p []byte) []byte { return append(p, make([]byte, 128)...) }},
		{"data stream without slack", comp, secData, 0, func(p []byte) []byte { return p[:3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			version, secs := splitStream(t, tableStream(t, tc.col))
			seen := 0
			for i := range secs {
				if secs[i].tag == tc.tag {
					if seen == tc.nth {
						secs[i].payload = tc.edit(secs[i].payload)
					}
					seen++
				}
			}
			if seen <= tc.nth {
				t.Fatalf("the stream has %d %q sections", seen, tc.tag)
			}
			stream := frameStream(t, version, secs)
			for _, size := range []int64{-1, int64(len(stream))} {
				got, err := readTable(bytes.NewReader(stream), size)
				if !errors.Is(err, ErrCorrupt) || got != nil {
					t.Fatalf("size %d: ReadTable = %v, %v; want ErrCorrupt", size, got, err)
				}
			}
		})
	}
}

// FuzzSnapshotSections reaches the v4 section checks behind the
// checksums, which FuzzReadTable's raw-byte mutations only reach through
// its unmutated seeds: the fuzzed histogram, NULL bitmap and layout
// sections (byte slices, the compressed column's four streams, or codes)
// of one of the section fixtures are framed, after its own metadata,
// into a one-column v4 stream with valid checksums, which is read both
// with and without its size. The invariants: the reader never panics,
// every rejection wraps ErrCorrupt and both reads agree, and an accepted
// column answers a Between scan, natively and on the modelled engine,
// and a gather exactly as the column rebuilt from its codes through
// newColumn does, with the same footprint.
func FuzzSnapshotSections(f *testing.F) {
	fx := sectionFixtures(f)
	for i, c := range fx {
		_, secs := splitStream(f, tableStream(f, c))
		var hist, nulls []byte
		var lay [4][]byte
		l := 0
		for _, s := range secs[2:] {
			switch s.tag {
			case secHist:
				hist = s.payload
			case secNulls:
				nulls = s.payload
			default:
				lay[l] = s.payload
				l++
			}
		}
		f.Add(uint8(i), hist, nulls, lay[0], lay[1], lay[2], lay[3])
	}
	f.Fuzz(func(t *testing.T, which uint8, hist, nulls, l0, l1, l2, l3 []byte) {
		c := fx[int(which)%len(fx)]
		var th payloadBuf
		th.u32(1)
		th.u64(uint64(c.Len()))
		secs := []streamSection{{secTable, th.Bytes()}, {secMeta, columnMeta(c)}, {secHist, hist}}
		if c.nulls != nil {
			secs = append(secs, streamSection{secNulls, nulls})
		}
		lay := [4][]byte{l0, l1, l2, l3}
		switch c.Format() {
		case FormatByteSlice:
			for j := 0; j < (c.Width()+7)/8; j++ {
				secs = append(secs, streamSection{secSlice, lay[j]})
			}
		case FormatByteSliceC:
			for j, tag := range []byte{secCtl, secData, secRefs, secModes} {
				secs = append(secs, streamSection{tag, lay[j]})
			}
		default:
			secs = append(secs, streamSection{secCodes, lay[0]})
		}
		stream := frameStream(t, persistV4, secs)
		got, err := readTable(bytes.NewReader(stream), int64(len(stream)))
		unsized, uerr := readTable(bytes.NewReader(stream), -1)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("sized read: %v; unsized read: %v", err, uerr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(uerr, ErrCorrupt) {
				t.Fatalf("rejections %v / %v do not wrap ErrCorrupt", err, uerr)
			}
			return
		}
		checkAgainstRebuild(t, got.cols[0])
		checkAgainstRebuild(t, unsized.cols[0])
	})
}

// checkAgainstRebuild checks an adopted column against the column its
// own codes rebuild through newColumn: the codes the native gather and
// the modelled lookups read, a Between count on both engines, and the
// footprint.
func checkAgainstRebuild(t *testing.T, g *Column) {
	t.Helper()
	codes, err := materializeCodes(g)
	if err != nil {
		t.Fatal(err)
	}
	e := (*Profile)(nil).engine()
	for i, want := range codes {
		if v := g.data.Lookup(e, i); v != want {
			t.Fatalf("row %d: modelled lookup %d, native gather %d", i, v, want)
		}
	}
	r, err := newColumn(*g, g.Width(), columnParts{codes: codes, nullRows: g.nullRows()}, g.Format(), g.HasZoneMaps(), false)
	if err != nil {
		t.Fatalf("rebuild of an accepted column: %v", err)
	}
	if g.SizeBytes() != r.SizeBytes() || g.HasZoneMaps() != r.HasZoneMaps() {
		t.Fatalf("accepted %d B zoned %v, rebuilt %d B zoned %v", g.SizeBytes(), g.HasZoneMaps(), r.SizeBytes(), r.HasZoneMaps())
	}
	top := maxCodeFor(g.Width())
	pred := layout.Predicate{Op: layout.Between, C1: top / 4, C2: top / 4 * 3}
	count := func(c *Column, native bool) int {
		out := bitvec.New(c.Len())
		if lk := nativeKernels[c.Format()]; native && lk != nil {
			if _, err := lk.scan(kernel.Exec{}, nil, c, pred, nil, false, out); err != nil {
				t.Fatal(err)
			}
		} else {
			c.data.Scan(e, pred, out)
		}
		return out.Count()
	}
	if a, b, m := count(g, true), count(r, true), count(g, false); a != b || m != b {
		t.Fatalf("Between: accepted %d native, %d modelled; rebuilt %d", a, m, b)
	}
}

// TestLoadedFootprint: every loaded column keeps the saved column's
// footprint, and no section a load adopts keeps spare capacity, whether
// the reader knows the stream's size (LoadFile) or not (ReadTable).
func TestLoadedFootprint(t *testing.T) {
	n := 5000
	rng := rand.New(rand.NewPCG(9, 9)) //nolint:gosec
	codes := make([]uint32, n)
	sorted := make([]int64, n)
	var nulls []int
	for i := range codes {
		codes[i] = uint32(rng.IntN(1 << 13))
		sorted[i] = int64(i / 5)
		if i%97 == 0 {
			nulls = append(nulls, i)
		}
	}
	var cols []*Column
	for _, f := range Formats() {
		c, err := NewCodeColumn(string(f), codes, 13, WithFormat(f), WithNulls(nulls))
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	zc, err := NewIntColumn("sorted", sorted, 0, int64(n), WithCompression(), WithNulls(nulls))
	if err != nil {
		t.Fatal(err)
	}
	zoned, err := NewIntColumn("zoned", sorted, 0, int64(n), WithZoneMaps())
	if err != nil {
		t.Fatal(err)
	}
	cols = append(cols, zc, zoned)
	if !zc.Compressed() {
		t.Fatal("the sorted column should compress")
	}
	tbl, err := NewTable(cols...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "footprint.bslc")
	if err := tbl.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	stream, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := ReadTable(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Table{fromFile, fromReader} {
		for i, c := range got.cols {
			saved := tbl.cols[i]
			if c.Format() != saved.Format() || c.SizeBytes() != saved.SizeBytes() {
				t.Fatalf("%s: loaded %s %d B, saved %s %d B", saved.name, c.Format(), c.SizeBytes(), saved.Format(), saved.SizeBytes())
			}
			if c.NullCount() != saved.NullCount() {
				t.Fatalf("%s: %d NULLs, saved %d", c.name, c.NullCount(), saved.NullCount())
			}
			if w := c.nulls; w != nil && cap(w.Words()) != len(w.Words()) {
				t.Fatalf("%s: NULL words cap %d, len %d", c.name, cap(w.Words()), len(w.Words()))
			}
			if bs, ok := byteSliceOf(c.data); ok {
				for j := 0; j < bs.NumSlices(); j++ {
					if s := bs.Slice(j); cap(s) != len(s) {
						t.Fatalf("%s slice %d: cap %d, len %d", c.name, j, cap(s), len(s))
					}
				}
			}
			if cc, ok := compressedOf(c.data); ok {
				s := cc.Streams()
				if cap(s.Ctl) != len(s.Ctl) || cap(s.Data) != len(s.Data) || cap(s.Refs) != len(s.Refs) || cap(s.Modes) != len(s.Modes) {
					t.Fatalf("%s: stream caps %d/%d/%d/%d, lens %d/%d/%d/%d", c.name, cap(s.Ctl), cap(s.Data), cap(s.Refs), cap(s.Modes),
						len(s.Ctl), len(s.Data), len(s.Refs), len(s.Modes))
				}
			}
		}
	}
}

// TestLoadFileBoundsSectionLengths: with the file's size known, a section
// whose declared length exceeds the bytes the file still holds is
// ErrCorrupt before anything of that length is allocated, even where the
// length is plausible: within the metadata cap, or exactly what a forged
// row count (with a histogram forged to match) asks of a NULL bitmap or
// a byte slice.
func TestLoadFileBoundsSectionLengths(t *testing.T) {
	fx := sectionFixtures(t)
	forge := func(col *Column, rows uint64, tag byte, declared uint64) []byte {
		version, secs := splitStream(t, tableStream(t, col))
		if rows != 0 {
			binary.LittleEndian.PutUint64(secs[0].payload[4:], rows)
			hist := secs[2].payload
			binary.LittleEndian.PutUint64(hist, binary.LittleEndian.Uint64(hist)+rows-uint64(col.Len()))
		}
		stream := frameStream(t, version, secs)
		for off := 6; off < len(stream); {
			ln := binary.LittleEndian.Uint64(stream[off+1:])
			if stream[off] == tag {
				binary.LittleEndian.PutUint64(stream[off+1:], declared)
				return stream
			}
			off += 9 + int(ln) + 4
		}
		t.Fatalf("no %q section", tag)
		return nil
	}
	const rows = 1 << 36
	cases := map[string][]byte{
		"metadata section":                   forge(fx[0], 0, secMeta, 1<<30),
		"NULL bitmap of a forged row count":  forge(fx[0], rows, secNulls, rows/8),
		"byte slice of a forged row count":   forge(fx[1], rows, secSlice, rows),
		"compressed data of a forged length": forge(fx[3], 0, secData, 3*compress.BlockCodes*4+4),
	}
	for name, stream := range cases {
		path := filepath.Join(t.TempDir(), "forged.bslc")
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadFile(path)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: LoadFile = %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: the rejected load allocated %d bytes", name, grew)
		}
	}
}

// TestWriteToFramesV4 pins the stream's section order for a ByteSlice
// column with NULLs, a compressed column and an HBP column.
func TestWriteToFramesV4(t *testing.T) {
	fx := sectionFixtures(t)
	for i, want := range map[int]string{0: "TMHNSS", 3: "TMHKDRO", 5: "TMHC"} {
		version, secs := splitStream(t, tableStream(t, fx[i]))
		var tags []byte
		for _, s := range secs {
			tags = append(tags, s.tag)
		}
		if version != persistV4 || string(tags) != want {
			t.Fatalf("%s: version %d, sections %q, want %q", fx[i].name, version, tags, want)
		}
	}
}
