package byteslice

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/encoding"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
)

// Table persistence. A snapshot stores each column in the form its
// kernels read: the byte slices of a ByteSlice column and the block
// streams of a compressed one, with the column's histogram and NULL
// bitmap beside them, so loading checks the stored parts and adopts them
// instead of re-encoding codes. The loader assembles each column through
// newColumn, the constructor every other build path uses.
//
// Format v4 (all integers little-endian) frames every section with a tag,
// an explicit length and a CRC32-C of the payload, so torn writes, bit
// flips and truncation are detected structurally instead of surfacing as
// garbage tables:
//
//	magic "BSLC" | version u16 = 4
//	section 'T':  tag u8 | len u64 | payload | crc32c u32
//	  payload: columns u32 | rows u64
//	per column, each a section framed like 'T':
//	  'M' name | kind u8 | format | width u8
//	      encoder params (kind-specific)
//	      flags u8 (bit 0: zone maps; bit 1: an 'N' section follows;
//	                other bits must be 0)
//	  'H' 64 × u64 histogram bucket counts, summing to rows
//	  'N' ⌈rows/64⌉ × u64 NULL bitmap words, no bit set past rows
//	  then by format:
//	  ByteSlice   'S' × ⌈k/8⌉: one byte slice each, ⌈rows/32⌉·32 bytes
//	              (at least 32), most significant first
//	  ByteSliceC  'K' control stream | 'D' data stream with its 4 zero
//	              slack bytes | 'R' u32 per-block references | 'O' mode
//	              bytes
//	  otherwise   'C' rows × u32 codes
//
// Strings are length-prefixed (u32). The loader rebuilds what costs as
// much to check as to rebuild — zone maps from the first byte slice, and
// a compressed column's block offsets and exact bounds from the decode
// pass that checks its blocks — and rejects stored parts that are not
// exactly what building from their codes would give.
//
// Versions 2 and 3 store 4-byte codes instead ('M' holds the NULL rows
// as u64 row numbers, and in v3 the flags byte with bit 0 only; a 'C'
// section follows it) and are still readable; v2 has no flags byte.
// WriteTo always produces version 4. Version 1, the unframed and
// checksum-less predecessor, is rejected with ErrVersion.
//
// Readers never trust a declared length for allocation. LoadFile knows
// its file's size, so every section is allocated once at its exact
// length, after its declared length is checked against the bytes the
// file still holds; a reader of unknown size grows each section in
// bounded chunks as its bytes arrive, capped at the declared length, so a
// forged header cannot trigger a multi-gigabyte allocation before the
// stream runs dry.

const (
	persistMagic = "BSLC"
	persistV2    = 2
	persistV3    = 3
	persistV4    = 4

	// metaZoneMaps is the 'M' flags bit recording WithZoneMaps; a reader
	// rebuilds the zone maps instead of silently dropping them.
	metaZoneMaps = 1 << 0
	// metaNulls is the v4 'M' flags bit announcing the column's NULL
	// bitmap section.
	metaNulls = 1 << 1

	secTable = 'T' // table header section
	secMeta  = 'M' // per-column metadata section
	secCodes = 'C' // per-column codes section
	secHist  = 'H' // v4: histogram bucket counts
	secNulls = 'N' // v4: NULL bitmap
	secSlice = 'S' // v4: one ByteSlice byte slice
	secCtl   = 'K' // v4: compressed control stream
	secData  = 'D' // v4: compressed data stream
	secRefs  = 'R' // v4: compressed per-block references
	secModes = 'O' // v4: compressed per-block mode bytes

	// ioChunk bounds every streaming read/write step, and each allocation
	// step of a reader of unknown size: its memory grows only as real
	// bytes arrive, never by a header's claim.
	ioChunk = 64 << 10

	maxPersistCols   = 1 << 16
	maxPersistRows   = 1 << 40
	maxPersistString = 1 << 24
	maxPersistDict   = 1 << 24
	// maxMetaSection caps a metadata section: name, format, dictionary and
	// (before v4) NULL-row list all live there, so 2 GiB is far beyond any
	// legitimate column while still cheap to reject.
	maxMetaSection = 1 << 31
)

// Snapshot error sentinels. Every structural defect a reader detects —
// bad magic, checksum mismatch, truncated or oversized sections, values
// inconsistent with their declared encoding — wraps ErrCorrupt, and an
// unknown format version wraps ErrVersion, so callers can classify
// failures with errors.Is without parsing messages.
var (
	ErrCorrupt = errors.New("byteslice: corrupt snapshot")
	ErrVersion = errors.New("byteslice: unsupported snapshot version")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fill reads exactly len(b) bytes, reporting a premature end of stream as
// corruption (a torn or truncated snapshot) and passing real I/O errors
// through unchanged.
func fill(r io.Reader, b []byte) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return corruptf("unexpected end of stream")
		}
		return err
	}
	return nil
}

// WriteTo serialises the table in format v4. It returns the number of
// bytes written.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}

	if _, err := io.WriteString(cw, persistMagic); err != nil {
		return cw.n, err
	}
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], persistV4)
	if _, err := cw.Write(ver[:]); err != nil {
		return cw.n, err
	}

	var hdr payloadBuf
	hdr.u32(uint32(len(t.cols)))
	hdr.u64(uint64(t.n))
	if err := writeSection(cw, secTable, hdr.Bytes()); err != nil {
		return cw.n, err
	}

	for _, c := range t.cols {
		if err := writeColumn(cw, c, t.n); err != nil {
			return cw.n, err
		}
	}
	return cw.n, bw.Flush()
}

// writeColumn writes one column's v4 sections: its metadata, histogram
// and NULL bitmap, then its layout in storage form.
func writeColumn(cw *countingWriter, c *Column, n int) error {
	if err := writeSection(cw, secMeta, columnMeta(c)); err != nil {
		return err
	}
	hist := make([]byte, 0, 8*histBuckets)
	for _, v := range c.hist.counts {
		hist = binary.LittleEndian.AppendUint64(hist, uint64(v))
	}
	if err := writeSection(cw, secHist, hist); err != nil {
		return err
	}
	if c.nulls != nil {
		nw := c.nulls.Words()
		b := make([]byte, 0, 8*len(nw))
		for _, w := range nw {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		if err := writeSection(cw, secNulls, b); err != nil {
			return err
		}
	}
	if bs, ok := byteSliceOf(c.data); ok {
		for j := 0; j < bs.NumSlices(); j++ {
			if err := writeSection(cw, secSlice, bs.Slice(j)); err != nil {
				return err
			}
		}
		return nil
	}
	if cc, ok := compressedOf(c.data); ok {
		s := cc.Streams()
		refs := make([]byte, 0, 4*len(s.Refs))
		for _, r := range s.Refs {
			refs = binary.LittleEndian.AppendUint32(refs, r)
		}
		for _, sec := range []struct {
			tag     byte
			payload []byte
		}{{secCtl, s.Ctl}, {secData, s.Data}, {secRefs, refs}, {secModes, s.Modes}} {
			if err := writeSection(cw, sec.tag, sec.payload); err != nil {
				return err
			}
		}
		return nil
	}
	return writeCodesSection(cw, c, n)
}

// payloadBuf builds a section payload in memory (sections other than the
// streamed codes are small: a header or one column's metadata).
type payloadBuf struct{ bytes.Buffer }

func (p *payloadBuf) u8(v byte) { p.WriteByte(v) }
func (p *payloadBuf) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	p.Write(b[:])
}
func (p *payloadBuf) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.Write(b[:])
}
func (p *payloadBuf) i64(v int64)   { p.u64(uint64(v)) }
func (p *payloadBuf) f64(v float64) { p.u64(math.Float64bits(v)) }
func (p *payloadBuf) str(s string)  { p.u32(uint32(len(s))); p.WriteString(s) }

// columnMeta serialises one column's v4 metadata payload.
func columnMeta(c *Column) []byte {
	var p payloadBuf
	metaHead(&p, c)
	var flags byte
	if c.HasZoneMaps() {
		flags |= metaZoneMaps
	}
	if c.nulls != nil {
		flags |= metaNulls
	}
	p.u8(flags)
	return p.Bytes()
}

// metaHead writes the fields every metadata version starts with: name,
// kind, format, width and the kind's encoder parameters.
func metaHead(p *payloadBuf, c *Column) {
	p.str(c.name)
	p.u8(uint8(c.kind))
	p.str(string(c.Format()))
	p.u8(uint8(c.Width()))
	switch c.kind {
	case KindInt:
		p.i64(c.ints.Min())
		p.i64(c.ints.Max())
	case KindDecimal:
		p.f64(c.decs.Min())
		p.f64(c.decs.Max())
		p.u8(uint8(c.decs.Digits()))
	case KindString:
		vals := c.dict.Values()
		p.u32(uint32(len(vals)))
		for _, s := range vals {
			p.str(s)
		}
	case KindCode:
		// Width alone suffices.
	}
}

// writeSection frames one buffered payload: tag, length, payload, CRC32-C.
func writeSection(cw *countingWriter, tag byte, payload []byte) error {
	var hdr [9]byte
	hdr[0] = tag
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := cw.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(payload, castagnoli))
	_, err := cw.Write(tail[:])
	return err
}

// writeCodesSection streams one column's codes without materialising the
// payload: the length is known up front (4 bytes per row), the codes are
// gathered ioChunk bytes' worth of rows at a time, and the checksum
// accumulates chunk by chunk.
func writeCodesSection(cw *countingWriter, c *Column, n int) error {
	var hdr [9]byte
	hdr[0] = secCodes
	binary.LittleEndian.PutUint64(hdr[1:], uint64(n)*4)
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	crc := crc32.New(castagnoli)
	codes := make([]uint32, ioChunk/4)
	buf := make([]byte, ioChunk)
	for lo := 0; lo < n; lo += len(codes) {
		chunk := codes[:min(len(codes), n-lo)]
		if err := gatherCodes(c, lo, chunk); err != nil {
			return err
		}
		b := buf[:4*len(chunk)]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		crc.Write(b)
		if _, err := cw.Write(b); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := cw.Write(tail[:])
	return err
}

// ReadTable deserialises a table written by WriteTo, in the format and
// with the zone maps the stream records (use Table.WithLayout to re-lay
// the loaded table out). It reads the current format (v4) and the v2 and
// v3 streams before it. Structural defects are reported as errors
// wrapping ErrCorrupt; any other version, the retired unframed v1
// included, wraps ErrVersion. ReadTable never allocates more memory than
// the stream actually delivers, so a corrupt header cannot trigger an
// outsized allocation.
func ReadTable(r io.Reader) (*Table, error) {
	return readTable(r, -1)
}

// readTable reads a snapshot stream of size bytes, or of unknown size
// when size is negative.
func readTable(r io.Reader, size int64) (*Table, error) {
	sr := &streamReader{br: bufio.NewReader(r), left: size, chunk: make([]byte, ioChunk)}
	var head [6]byte
	if err := sr.fill(head[:]); err != nil {
		return nil, err
	}
	if string(head[:4]) != persistMagic {
		return nil, corruptf("bad magic %q", head[:4])
	}
	switch version := binary.LittleEndian.Uint16(head[4:]); version {
	case persistV2, persistV3, persistV4:
		return sr.table(version)
	default:
		return nil, fmt.Errorf("%w: %d", ErrVersion, version)
	}
}

// columnSpec carries one column's parsed metadata from parseColumnMeta
// to newColumn: its identity (name, kind, encoder), code width, format,
// NULL rows (v2, v3) or NULL-bitmap flag (v4) and zone-map flag, plus the
// size of its code domain.
type columnSpec struct {
	id       Column
	width    int
	format   Format
	nullRows []int
	nullMap  bool
	zoneMaps bool
	// domain counts the valid codes: the dictionary's cardinality for a
	// string column, 2^width otherwise.
	domain uint64
}

// build validates the column's stored codes against its domain — they
// come from outside the program — and assembles it from p. Every
// failure is corruption: the stream's own parameters could not reproduce
// a valid column.
func (s *columnSpec) build(p columnParts) (*Column, error) {
	for i, c := range p.codes {
		if uint64(c) >= s.domain {
			return nil, corruptf("column %s row %d: code %d outside a domain of %d codes", s.id.name, i, c, s.domain)
		}
	}
	col, err := newColumn(s.id, s.width, p, s.format, s.zoneMaps, false)
	if err != nil {
		return nil, fmt.Errorf("%w: column %s: %w", ErrCorrupt, s.id.name, err)
	}
	if p.codes == nil && s.domain < 1<<uint(s.width) {
		outside, err := codeAtOrAbove(col, s.domain)
		if err != nil {
			return nil, err
		}
		if outside {
			return nil, corruptf("column %s: a code outside a domain of %d codes", s.id.name, s.domain)
		}
	}
	return col, nil
}

// codeAtOrAbove reports whether an adopted layout holds a code at or
// above domain. Adoption bounds the codes by 2^width only, and a string
// column's dictionary need not fill its width.
func codeAtOrAbove(col *Column, domain uint64) (bool, error) {
	if cc, ok := compressedOf(col.data); ok {
		for _, m := range cc.Maxs() {
			if uint64(m) >= domain {
				return true, nil
			}
		}
		return false, nil
	}
	bs, ok := byteSliceOf(col.data)
	if !ok {
		return false, nil
	}
	out := bitvec.New(col.Len())
	if _, err := kernel.Scan(kernel.Exec{}, bs, layout.Predicate{Op: layout.Ge, C1: uint32(domain)}, nil, false, out); err != nil {
		return false, err
	}
	return out.Count() > 0, nil
}

// ---------------------------------------------------------------------------
// The reader: framed, checksummed sections, v2 through v4.

// streamReader reads a snapshot's sections. left counts the bytes the
// stream still holds, or is negative when its size is unknown.
type streamReader struct {
	br    *bufio.Reader
	left  int64
	chunk []byte
}

func (sr *streamReader) fill(b []byte) error {
	if err := fill(sr.br, b); err != nil {
		return err
	}
	if sr.left >= 0 {
		sr.left -= int64(len(b))
	}
	return nil
}

// table reads what follows the version: the table header, then each
// column's sections, which it assembles through columnSpec.build.
func (sr *streamReader) table(version uint16) (*Table, error) {
	hdr, err := sr.bytes(secTable, 12, 12)
	if err != nil {
		return nil, err
	}
	h := metaBuf{b: hdr}
	ncols, _ := h.u32()
	nrows, _ := h.u64()
	if ncols == 0 || ncols > maxPersistCols || nrows > maxPersistRows {
		return nil, corruptf("implausible shape %d×%d", ncols, nrows)
	}

	cols := make([]*Column, 0, min(uint64(ncols), 1024))
	for ci := uint32(0); ci < ncols; ci++ {
		meta, err := sr.bytes(secMeta, 0, maxMetaSection)
		if err != nil {
			return nil, err
		}
		spec, err := parseColumnMeta(meta, nrows, version)
		if err != nil {
			return nil, err
		}
		var p columnParts
		if version >= persistV4 {
			p, err = sr.parts(spec, nrows)
		} else {
			p.nullRows = spec.nullRows
			p.codes, err = words[uint32](sr, secCodes, nrows)
		}
		if err != nil {
			return nil, err
		}
		col, err := spec.build(p)
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
	}
	tbl, err := NewTable(cols...)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return tbl, nil
}

// parts reads the sections that follow a v4 column's metadata — its
// histogram, NULL bitmap and layout — and checks what adoption trusts:
// the histogram sums to the row count, no NULL bit lies past it, and
// byte slices pass core.CheckSlices. compress.Adopt checks a compressed
// column's streams, and build the codes of the other layouts.
func (sr *streamReader) parts(s *columnSpec, n uint64) (columnParts, error) {
	p := columnParts{n: int(n)}
	hb, err := sr.bytes(secHist, 8*histBuckets, 8*histBuckets)
	if err != nil {
		return p, err
	}
	p.hist = newHistogram(maxCodeFor(s.width), int(n))
	var sum uint64
	for i := range p.hist.counts {
		v := binary.LittleEndian.Uint64(hb[8*i:])
		if v > n-sum {
			return p, corruptf("column %s: histogram counts more than %d rows", s.id.name, n)
		}
		sum += v
		p.hist.counts[i] = int(v)
	}
	if sum != n {
		return p, corruptf("column %s: histogram counts %d of %d rows", s.id.name, sum, n)
	}
	if s.nullMap {
		nw, err := words[uint64](sr, secNulls, (n+63)/64)
		if err != nil {
			return p, err
		}
		var ok bool
		if p.nulls, ok = bitvec.Adopt(nw, int(n)); !ok {
			return p, corruptf("column %s: NULL bits set past row %d", s.id.name, n)
		}
		if p.nulls.Count() == 0 {
			return p, corruptf("column %s: NULL bitmap without NULLs", s.id.name)
		}
	}
	switch s.format {
	case FormatByteSlice:
		size := max((n+core.SegmentSize-1)/core.SegmentSize, 1) * core.SegmentSize
		p.slices = make([][]byte, (s.width+7)/8)
		for j := range p.slices {
			if p.slices[j], err = sr.bytes(secSlice, size, size); err != nil {
				return p, err
			}
		}
		if err := core.CheckSlices(p.slices, s.width, int(n)); err != nil {
			return p, fmt.Errorf("%w: column %s: %w", ErrCorrupt, s.id.name, err)
		}
	case FormatByteSliceC:
		blocks := (n + compress.BlockCodes - 1) / compress.BlockCodes
		var b compress.Streams
		if b.Ctl, err = sr.bytes(secCtl, blocks*compress.CtlBlockBytes, blocks*compress.CtlBlockBytes); err != nil {
			return p, err
		}
		// Every block holds BlockCodes values of one to four bytes.
		if b.Data, err = sr.bytes(secData, blocks*compress.BlockCodes+4, 4*blocks*compress.BlockCodes+4); err != nil {
			return p, err
		}
		if b.Refs, err = words[uint32](sr, secRefs, blocks); err != nil {
			return p, err
		}
		if b.Modes, err = sr.bytes(secModes, blocks, blocks); err != nil {
			return p, err
		}
		p.blocks = &b
	default:
		if p.codes, err = words[uint32](sr, secCodes, n); err != nil {
			return p, err
		}
	}
	return p, nil
}

// open reads a section's header: it checks the tag, and that the stream
// still holds the declared payload and its checksum when the stream's
// size is known.
func (sr *streamReader) open(tag byte) (uint64, error) {
	var hdr [9]byte
	if err := sr.fill(hdr[:]); err != nil {
		return 0, err
	}
	if hdr[0] != tag {
		return 0, corruptf("section tag %q, want %q", hdr[0], tag)
	}
	ln := binary.LittleEndian.Uint64(hdr[1:])
	if sr.left >= 0 && (sr.left < 4 || ln > uint64(sr.left-4)) {
		return 0, corruptf("section %q length %d exceeds the %d bytes left", tag, ln, max(sr.left-4, 0))
	}
	return ln, nil
}

// close reads a section's checksum and compares it with crc, the
// checksum of the payload read.
func (sr *streamReader) close(tag byte, crc uint32) error {
	var tail [4]byte
	if err := sr.fill(tail[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(tail[:]) != crc {
		return corruptf("section %q checksum mismatch", tag)
	}
	return nil
}

// bytes reads one section whose length must lie in [lo, hi], into a
// buffer of exactly its length: allocated once when the stream's size is
// known, else grown as the payload arrives.
func (sr *streamReader) bytes(tag byte, lo, hi uint64) ([]byte, error) {
	ln, err := sr.open(tag)
	if err != nil {
		return nil, err
	}
	if ln < lo || ln > hi {
		return nil, corruptf("section %q length %d outside [%d, %d]", tag, ln, lo, hi)
	}
	if sr.left >= 0 {
		buf := make([]byte, ln)
		if err := sr.fill(buf); err != nil {
			return nil, err
		}
		return buf, sr.close(tag, crc32.Checksum(buf, castagnoli))
	}
	buf := make([]byte, 0, min(ln, ioChunk))
	err = sr.stream(tag, ln, func(b []byte) { buf = append(grow(buf, len(b), int(ln)), b...) })
	return buf, err
}

// words reads a section of exactly count little-endian u32 or u64 values
// into a slice of exactly count elements: allocated once when the
// stream's size is known, else grown as the payload arrives.
func words[T uint32 | uint64](sr *streamReader, tag byte, count uint64) ([]T, error) {
	size := binary.Size(T(0))
	ln, err := sr.open(tag)
	if err != nil {
		return nil, err
	}
	if ln != count*uint64(size) {
		return nil, corruptf("section %q length %d, want %d", tag, ln, count*uint64(size))
	}
	capacity := count
	if sr.left < 0 {
		capacity = min(count, uint64(ioChunk/size))
	}
	out := make([]T, 0, capacity)
	err = sr.stream(tag, ln, func(b []byte) {
		m := len(b) / size
		out = grow(out, m, int(count))
		k := len(out)
		out = out[:k+m]
		dst := out[k:]
		if size == 4 {
			for i := range dst {
				dst[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
			}
			return
		}
		for i := range dst {
			dst[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
	return out, err
}

// stream reads the ln payload bytes of an opened section in ioChunk
// pieces, handing each to sink, then checks the section's checksum.
func (sr *streamReader) stream(tag byte, ln uint64, sink func([]byte)) error {
	var crc uint32
	for remaining := ln; remaining > 0; {
		buf := sr.chunk[:min(remaining, uint64(len(sr.chunk)))]
		if err := sr.fill(buf); err != nil {
			return err
		}
		crc = crc32.Update(crc, castagnoli, buf)
		sink(buf)
		remaining -= uint64(len(buf))
	}
	return sr.close(tag, crc)
}

// grow returns s with room for m more elements, doubling its capacity
// but never past want elements in all, so a slice grown to its declared
// length holds no spare capacity.
func grow[T any](s []T, m, want int) []T {
	if len(s)+m <= cap(s) {
		return s
	}
	ns := make([]T, len(s), min(want, max(2*cap(s), len(s)+m)))
	copy(ns, s)
	return ns
}

// metaBuf parses a verified metadata payload; every overrun is corruption.
type metaBuf struct {
	b   []byte
	off int
}

func (m *metaBuf) take(n int) ([]byte, error) {
	if n < 0 || len(m.b)-m.off < n {
		return nil, corruptf("metadata section truncated")
	}
	b := m.b[m.off : m.off+n]
	m.off += n
	return b, nil
}

func (m *metaBuf) u8() (byte, error) {
	b, err := m.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (m *metaBuf) u32() (uint32, error) {
	b, err := m.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (m *metaBuf) u64() (uint64, error) {
	b, err := m.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (m *metaBuf) i64() (int64, error) {
	v, err := m.u64()
	return int64(v), err
}

func (m *metaBuf) f64() (float64, error) {
	v, err := m.u64()
	return math.Float64frombits(v), err
}

func (m *metaBuf) str() (string, error) {
	n, err := m.u32()
	if err != nil {
		return "", err
	}
	if n > maxPersistString {
		return "", corruptf("implausible string length %d", n)
	}
	b, err := m.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (m *metaBuf) done() error {
	if m.off != len(m.b) {
		return corruptf("%d trailing bytes in section", len(m.b)-m.off)
	}
	return nil
}

// nullRows reads a v2 or v3 NULL-row list: a count, then that many row
// numbers below nrows.
func (m *metaBuf) nullRows(nrows uint64) ([]int, error) {
	count, err := m.u64()
	if err != nil {
		return nil, err
	}
	if count > nrows {
		return nil, corruptf("%d nulls in %d rows", count, nrows)
	}
	rows := make([]int, 0, min(count, ioChunk/8))
	for i := uint64(0); i < count; i++ {
		r, err := m.u64()
		if err != nil {
			return nil, err
		}
		if r >= nrows {
			return nil, corruptf("null row %d out of range", r)
		}
		rows = append(rows, int(r))
	}
	return rows, nil
}

// parseColumnMeta decodes one column's metadata payload of the given
// stream version and builds its encoder.
func parseColumnMeta(payload []byte, nrows uint64, version uint16) (*columnSpec, error) {
	m := metaBuf{b: payload}
	spec := &columnSpec{}
	id := &spec.id
	var err error
	if id.name, err = m.str(); err != nil {
		return nil, err
	}
	kind, err := m.u8()
	if err != nil {
		return nil, err
	}
	id.kind = Kind(kind)
	formatStr, err := m.str()
	if err != nil {
		return nil, err
	}
	spec.format = Format(formatStr)
	width, err := m.u8()
	if err != nil {
		return nil, err
	}
	spec.width = int(width)

	switch id.kind {
	case KindInt:
		lo, err := m.i64()
		if err != nil {
			return nil, err
		}
		hi, err := m.i64()
		if err != nil {
			return nil, err
		}
		if id.ints, err = encoding.NewIntEncoder(lo, hi); err != nil {
			return nil, fmt.Errorf("%w: column %s: %w", ErrCorrupt, id.name, err)
		}
		spec.width = id.ints.Width()
	case KindDecimal:
		lo, err := m.f64()
		if err != nil {
			return nil, err
		}
		hi, err := m.f64()
		if err != nil {
			return nil, err
		}
		digits, err := m.u8()
		if err != nil {
			return nil, err
		}
		if id.decs, err = encoding.NewDecimalEncoder(lo, hi, int(digits)); err != nil {
			return nil, fmt.Errorf("%w: column %s: %w", ErrCorrupt, id.name, err)
		}
		spec.width = id.decs.Width()
	case KindString:
		card, err := m.u32()
		if err != nil {
			return nil, err
		}
		if card > maxPersistDict {
			return nil, corruptf("implausible dictionary size %d", card)
		}
		vocab := make([]string, 0, min(uint64(card), 4096))
		for i := uint32(0); i < card; i++ {
			s, err := m.str()
			if err != nil {
				return nil, err
			}
			vocab = append(vocab, s)
		}
		id.dict = encoding.NewDictionary(vocab)
		if id.dict.Cardinality() != len(vocab) {
			return nil, corruptf("column %s: stored vocabulary has duplicates", id.name)
		}
		spec.width = id.dict.Width()
		spec.domain = uint64(len(vocab))
	case KindCode:
		if spec.width < 1 || spec.width > 32 {
			return nil, corruptf("column %s: bad width %d", id.name, spec.width)
		}
	default:
		return nil, corruptf("unknown column kind %d", kind)
	}
	if id.kind != KindString {
		spec.domain = 1 << uint(spec.width)
	}

	if version < persistV4 {
		if spec.nullRows, err = m.nullRows(nrows); err != nil {
			return nil, err
		}
	}
	if version >= persistV3 {
		known := byte(metaZoneMaps)
		if version >= persistV4 {
			known |= metaNulls
		}
		f, err := m.u8()
		if err != nil {
			return nil, err
		}
		if f&^known != 0 {
			return nil, corruptf("column %s: unknown flags %#x", id.name, f)
		}
		spec.zoneMaps = f&metaZoneMaps != 0
		spec.nullMap = f&metaNulls != 0
	}
	if err := m.done(); err != nil {
		return nil, err
	}
	return spec, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
