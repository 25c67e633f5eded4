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

	"byteslice/internal/encoding"
)

// Table persistence. The on-disk representation stores each column's
// metadata (kind, format, encoder parameters, NULL rows) together with its
// raw codes; loading re-encodes nothing and rebuilds the storage layout
// deterministically from the codes — the formats themselves are derived
// data, exactly as a column store would rebuild them when mapping a
// snapshot back into memory. The loader assembles each column through
// newColumn, the constructor every other build path uses.
//
// Format v3 (all integers little-endian) frames every section with a tag,
// an explicit length and a CRC32-C of the payload, so torn writes, bit
// flips and truncation are detected structurally instead of surfacing as
// garbage tables:
//
//	magic "BSLC" | version u16 = 3
//	section 'T':  tag u8 | len u64 | payload | crc32c u32
//	  payload: columns u32 | rows u64
//	per column:
//	  section 'M': tag u8 | len u64 | payload | crc32c u32
//	    payload: name | kind u8 | format | width u8
//	             encoder params (kind-specific)
//	             nulls u64 + that many u64 row numbers
//	             flags u8 (bit 0: zone maps; other bits must be 0)
//	  section 'C': tag u8 | len u64 (= 4·rows) | rows × u32 codes | crc32c u32
//
// Strings are length-prefixed (u32). Readers never trust a declared length
// for allocation: payloads stream in bounded chunks, so a forged header
// cannot trigger a multi-gigabyte allocation before the stream runs dry.
//
// Version 2 streams (v3 without the flags byte) are still readable; WriteTo
// always produces version 3. Version 1, the unframed and checksum-less
// predecessor, is rejected with ErrVersion.

const (
	persistMagic = "BSLC"
	persistV2    = 2
	persistV3    = 3

	// metaZoneMaps is the 'M' flags bit recording WithZoneMaps; a reader
	// rebuilds the zone maps instead of silently dropping them.
	metaZoneMaps = 1 << 0

	secTable = 'T' // table header section
	secMeta  = 'M' // per-column metadata section
	secCodes = 'C' // per-column codes section

	// ioChunk bounds every streaming read/write and allocation step: a
	// reader's memory grows only as real bytes arrive, never by a header's
	// claim.
	ioChunk = 64 << 10

	maxPersistCols   = 1 << 16
	maxPersistRows   = 1 << 40
	maxPersistString = 1 << 24
	maxPersistDict   = 1 << 24
	// maxMetaSection caps a metadata section: name, format, dictionary and
	// NULL-row list all live there, so 2 GiB is far beyond any legitimate
	// column while still cheap to reject.
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

// WriteTo serialises the table in format v3. It returns the number of
// bytes written.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}

	if _, err := io.WriteString(cw, persistMagic); err != nil {
		return cw.n, err
	}
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], persistV3)
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
		if err := writeSection(cw, secMeta, columnMeta(c)); err != nil {
			return cw.n, err
		}
		if err := writeCodesSection(cw, c, t.n); err != nil {
			return cw.n, err
		}
	}
	return cw.n, bw.Flush()
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

// columnMeta serialises one column's metadata payload.
func columnMeta(c *Column) []byte {
	var p payloadBuf
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
	var nullRows []int32
	if c.nulls != nil {
		nullRows = c.nulls.Positions(nil)
	}
	p.u64(uint64(len(nullRows)))
	for _, r := range nullRows {
		p.u64(uint64(r))
	}
	var flags byte
	if c.HasZoneMaps() {
		flags |= metaZoneMaps
	}
	p.u8(flags)
	return p.Bytes()
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

// ReadTable deserialises a table written by WriteTo, rebuilding every
// column in the format and with the zone maps the stream records (use
// Table.WithLayout to re-lay the loaded table out).
// It reads the current checksummed format (v3) and legacy v2 streams.
// Structural defects are reported as errors wrapping ErrCorrupt; any
// other version, the retired unframed v1 included, wraps ErrVersion.
// ReadTable never allocates more memory than the stream actually
// delivers, so a corrupt header cannot trigger an outsized allocation.
func ReadTable(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if err := fill(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != persistMagic {
		return nil, corruptf("bad magic %q", magic)
	}
	var verb [2]byte
	if err := fill(br, verb[:]); err != nil {
		return nil, err
	}
	switch version := binary.LittleEndian.Uint16(verb[:]); version {
	case persistV2, persistV3:
		return readTableFramed(br, version >= persistV3)
	default:
		return nil, fmt.Errorf("%w: %d", ErrVersion, version)
	}
}

// columnSpec carries one column's parsed metadata from parseColumnMeta
// to newColumn: its identity (name, kind, encoder), code width, format,
// NULL rows and zone-map flag, plus the size of its code domain.
type columnSpec struct {
	id       Column
	width    int
	format   Format
	nullRows []int
	zoneMaps bool
	// domain counts the valid codes: the dictionary's cardinality for a
	// string column, 2^width otherwise.
	domain uint64
}

// build validates the stored codes against the column's domain — they
// come from outside the program — and assembles the column. Every
// failure is corruption: the stream's own parameters could not reproduce
// a valid column.
func (s *columnSpec) build(codes []uint32) (*Column, error) {
	for i, c := range codes {
		if uint64(c) >= s.domain {
			return nil, corruptf("column %s row %d: code %d outside a domain of %d codes", s.id.name, i, c, s.domain)
		}
	}
	col, err := newColumn(s.id, s.width, codes, s.nullRows, s.format, s.zoneMaps, false)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return col, nil
}

// ---------------------------------------------------------------------------
// Version 2 and 3 reader: framed, checksummed, streaming. flags reports
// whether each metadata section ends with the v3 flags byte.

func readTableFramed(br *bufio.Reader, flags bool) (*Table, error) {
	chunk := make([]byte, ioChunk)
	hdr, err := readSection(br, secTable, 12, chunk)
	if err != nil {
		return nil, err
	}
	h := metaBuf{b: hdr}
	ncols, err := h.u32()
	if err != nil {
		return nil, err
	}
	nrows, err := h.u64()
	if err != nil {
		return nil, err
	}
	if err := h.done(); err != nil {
		return nil, err
	}
	if ncols == 0 || ncols > maxPersistCols || nrows > maxPersistRows {
		return nil, corruptf("implausible shape %d×%d", ncols, nrows)
	}

	cols := make([]*Column, 0, min(uint64(ncols), 1024))
	for ci := uint32(0); ci < ncols; ci++ {
		meta, err := readSection(br, secMeta, maxMetaSection, chunk)
		if err != nil {
			return nil, err
		}
		spec, err := parseColumnMeta(meta, nrows, flags)
		if err != nil {
			return nil, err
		}
		codes, err := readCodesSection(br, nrows, chunk)
		if err != nil {
			return nil, err
		}
		col, err := spec.build(codes)
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

// readSection reads one framed section with a buffered payload, verifying
// tag, length bound and checksum. The payload accumulates in ioChunk steps
// so a forged length fails at the first missing byte, not after a huge
// allocation.
func readSection(br *bufio.Reader, tag byte, maxLen uint64, chunk []byte) ([]byte, error) {
	var hdr [9]byte
	if err := fill(br, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != tag {
		return nil, corruptf("section tag %q, want %q", hdr[0], tag)
	}
	ln := binary.LittleEndian.Uint64(hdr[1:])
	if ln > maxLen {
		return nil, corruptf("section %q length %d exceeds limit %d", tag, ln, maxLen)
	}
	crc := crc32.New(castagnoli)
	payload := make([]byte, 0, min(ln, uint64(len(chunk))))
	for remaining := ln; remaining > 0; {
		n := min(remaining, uint64(len(chunk)))
		buf := chunk[:n]
		if err := fill(br, buf); err != nil {
			return nil, err
		}
		crc.Write(buf)
		payload = append(payload, buf...)
		remaining -= n
	}
	var tail [4]byte
	if err := fill(br, tail[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(tail[:]) != crc.Sum32() {
		return nil, corruptf("section %q checksum mismatch", tag)
	}
	return payload, nil
}

// readCodesSection streams one column's codes: the framed length must
// equal 4·rows exactly, and codes decode chunk by chunk while the checksum
// accumulates, so memory grows only with bytes actually read.
func readCodesSection(br *bufio.Reader, nrows uint64, chunk []byte) ([]uint32, error) {
	var hdr [9]byte
	if err := fill(br, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != secCodes {
		return nil, corruptf("section tag %q, want %q", hdr[0], byte(secCodes))
	}
	ln := binary.LittleEndian.Uint64(hdr[1:])
	if ln != nrows*4 {
		return nil, corruptf("codes section length %d, want %d", ln, nrows*4)
	}
	crc := crc32.New(castagnoli)
	codes := make([]uint32, 0, min(nrows, uint64(len(chunk))/4))
	for remaining := ln; remaining > 0; {
		n := min(remaining, uint64(len(chunk)))
		buf := chunk[:n]
		if err := fill(br, buf); err != nil {
			return nil, err
		}
		crc.Write(buf)
		for i := 0; i+4 <= len(buf); i += 4 {
			codes = append(codes, binary.LittleEndian.Uint32(buf[i:]))
		}
		remaining -= n
	}
	var tail [4]byte
	if err := fill(br, tail[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(tail[:]) != crc.Sum32() {
		return nil, corruptf("codes section checksum mismatch")
	}
	return codes, nil
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

// parseColumnMeta decodes one column's metadata payload and builds its
// encoder; flags reports a v3 payload, which ends with the flags byte.
func parseColumnMeta(payload []byte, nrows uint64, flags bool) (*columnSpec, error) {
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

	nullCount, err := m.u64()
	if err != nil {
		return nil, err
	}
	if nullCount > nrows {
		return nil, corruptf("%d nulls in %d rows", nullCount, nrows)
	}
	spec.nullRows = make([]int, 0, min(nullCount, ioChunk/8))
	for i := uint64(0); i < nullCount; i++ {
		r, err := m.u64()
		if err != nil {
			return nil, err
		}
		if r >= nrows {
			return nil, corruptf("null row %d out of range", r)
		}
		spec.nullRows = append(spec.nullRows, int(r))
	}
	if flags {
		f, err := m.u8()
		if err != nil {
			return nil, err
		}
		if f&^metaZoneMaps != 0 {
			return nil, corruptf("column %s: unknown flags %#x", id.name, f)
		}
		spec.zoneMaps = f&metaZoneMaps != 0
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
