package byteslice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzSnapshotMeta reaches the column-metadata parser, the encoder
// construction and the code-domain checks behind the checksums, which
// FuzzReadTable's raw-byte mutations only reach through its unmutated
// seeds: the fuzzed metadata payload and codes (one row per four bytes)
// are framed into a one-column v3 stream with valid checksums. The
// invariants: ReadTable never panics, every rejection wraps ErrCorrupt,
// and an accepted table re-serialises into a stream that reads back with
// the same length.
func FuzzSnapshotMeta(f *testing.F) {
	n := 40
	ints := make([]int64, n)
	decs := make([]float64, n)
	strs := make([]string, n)
	codes := make([]uint32, n)
	words := []string{"x", "yy", "zzz"}
	for i := 0; i < n; i++ {
		ints[i] = int64(i) - 20
		decs[i] = float64(i%9) / 4
		strs[i] = words[i%len(words)]
		codes[i] = uint32(i * 13 % 512)
	}
	seeds := []func() (*Column, error){
		func() (*Column, error) {
			return NewIntColumn("i", ints, -20, 20, WithNulls([]int{1, 7}), WithZoneMaps())
		},
		func() (*Column, error) { return NewDecimalColumn("d", decs, 0, 2, 2, WithFormat(FormatHBP)) },
		func() (*Column, error) { return NewStringColumn("s", strs) },
		func() (*Column, error) { return NewCodeColumn("c", codes, 9, WithFormat(FormatByteSliceC)) },
		func() (*Column, error) { return NewCodeColumn("v", codes, 9, WithFormat(FormatVBP)) },
	}
	for _, build := range seeds {
		col, err := build()
		if err != nil {
			f.Fatal(err)
		}
		stored, err := materializeCodes(col)
		if err != nil {
			f.Fatal(err)
		}
		meta, body := columnMetaV3(col), le32(stored...)
		if _, err := ReadTable(bytes.NewReader(frameV3(f, meta, body))); err != nil {
			f.Fatalf("seed %s rejected: %v", col.Name(), err)
		}
		f.Add(meta, body)
	}

	f.Fuzz(func(t *testing.T, meta, codes []byte) {
		codes = codes[:min(len(codes), 1<<14)/4*4]
		got, err := ReadTable(bytes.NewReader(frameV3(t, meta, codes)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := got.WriteTo(&buf); err != nil {
			t.Fatalf("re-serialise of accepted table failed: %v", err)
		}
		again, err := ReadTable(&buf)
		if err != nil {
			t.Fatalf("re-read of re-serialised table failed: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("round trip changed row count: %d vs %d", again.Len(), got.Len())
		}
	})
}

// TestReadTableRejectsBadMeta: metadata that cannot describe a valid
// column, or codes outside the column's domain, fail with ErrCorrupt even
// when every checksum is valid.
func TestReadTableRejectsBadMeta(t *testing.T) {
	ints := func(lo, hi int64) func(*payloadBuf) {
		return func(p *payloadBuf) { p.i64(lo); p.i64(hi) }
	}
	vocab := func(words ...string) func(*payloadBuf) {
		return func(p *payloadBuf) {
			p.u32(uint32(len(words)))
			for _, w := range words {
				p.str(w)
			}
		}
	}
	digits10 := func(p *payloadBuf) { p.f64(0); p.f64(1); p.u8(10) }
	cases := []struct {
		name  string
		meta  []byte
		codes []uint32
	}{
		{"int min above max", metaPayload(KindInt, FormatByteSlice, 4, ints(10, 0)), []uint32{0}},
		{"int domain over 32 bits", metaPayload(KindInt, FormatByteSlice, 32, ints(0, 1<<33)), []uint32{0}},
		{"decimal digits 10", metaPayload(KindDecimal, FormatByteSlice, 4, digits10), []uint32{0}},
		{"duplicate vocabulary entry", metaPayload(KindString, FormatByteSlice, 1, vocab("a", "a")), []uint32{0}},
		{"code width 0", metaPayload(KindCode, FormatByteSlice, 0, nil), []uint32{0}},
		{"code width 33", metaPayload(KindCode, FormatByteSlice, 33, nil), []uint32{0}},
		{"code above its width", metaPayload(KindCode, FormatByteSlice, 4, nil), []uint32{3, 16}},
		{"string code equal to cardinality", metaPayload(KindString, FormatByteSlice, 1, vocab("a", "b")), []uint32{0, 2}},
		{"unknown format", metaPayload(KindCode, "Nope", 4, nil), []uint32{1}},
	}
	// A well-formed control proves the hand framing itself is accepted.
	control := frameV3(t, metaPayload(KindCode, FormatByteSlice, 4, nil), le32(1, 15))
	if _, err := ReadTable(bytes.NewReader(control)); err != nil {
		t.Fatalf("control stream rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTable(bytes.NewReader(frameV3(t, tc.meta, le32(tc.codes...))))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// metaPayload renders a v3 metadata payload for a column named "x" with
// no NULLs and no flags; params writes the kind-specific encoder fields.
func metaPayload(kind Kind, format Format, width byte, params func(*payloadBuf)) []byte {
	var p payloadBuf
	p.str("x")
	p.u8(uint8(kind))
	p.str(string(format))
	p.u8(width)
	if params != nil {
		params(&p)
	}
	p.u64(0)
	p.u8(0)
	return p.Bytes()
}

// columnMetaV3 renders a column's metadata payload as a v3 stream stores
// it: the fields v4 also starts with, the NULL rows, then the flags byte.
func columnMetaV3(c *Column) []byte {
	var p payloadBuf
	metaHead(&p, c)
	rows := c.nullRows()
	p.u64(uint64(len(rows)))
	for _, r := range rows {
		p.u64(uint64(r))
	}
	var flags byte
	if c.HasZoneMaps() {
		flags |= metaZoneMaps
	}
	p.u8(flags)
	return p.Bytes()
}

func le32(codes ...uint32) []byte {
	var p payloadBuf
	for _, c := range codes {
		p.u32(c)
	}
	return p.Bytes()
}

// frameV3 frames one column's metadata payload and codes payload (four
// bytes per row) into a v3 stream with valid section checksums.
func frameV3(tb testing.TB, meta, codes []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(persistMagic)
	buf.Write(binary.LittleEndian.AppendUint16(nil, persistV3))
	var hdr payloadBuf
	hdr.u32(1)
	hdr.u64(uint64(len(codes) / 4))
	cw := &countingWriter{w: &buf}
	for _, s := range []struct {
		tag     byte
		payload []byte
	}{{secTable, hdr.Bytes()}, {secMeta, meta}, {secCodes, codes}} {
		if err := writeSection(cw, s.tag, s.payload); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}
