package byteslice

import (
	"fmt"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/encoding"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
)

// Kind is a column's native value type.
type Kind int

// Column kinds.
const (
	KindInt Kind = iota
	KindDecimal
	KindString
	KindCode
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindDecimal:
		return "decimal"
	case KindString:
		return "string"
	case KindCode:
		return "code"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Column is an immutable, encoded, formatted column of values.
type Column struct {
	name string
	kind Kind
	data layout.Layout

	ints *encoding.IntEncoder
	decs *encoding.DecimalEncoder
	dict *encoding.Dictionary

	// nulls marks NULL rows (nil when the column has none); see nulls.go.
	nulls *bitvec.Vector

	// hist is the build-time equi-width histogram driving selectivity
	// estimates (histogram.go).
	hist *histogram
}

// ColumnOption customises column construction.
type ColumnOption func(*columnConfig)

type columnConfig struct {
	format   Format
	nullRows []int
	zoneMaps bool
	compress bool
}

// WithFormat selects the storage layout (default: ByteSlice).
func WithFormat(f Format) ColumnOption {
	return func(c *columnConfig) { c.format = f }
}

// WithCompression enables the build-time compression decision on a
// ByteSlice column: the codes are encoded into frame-of-reference/delta
// blocks (FormatByteSliceC) when the planner's bytes-moved model prices
// the compressed fused scan below the raw SWAR scan — typically on
// sorted, clustered or otherwise low-entropy columns — and stay in the
// raw ByteSlice layout when compression would not pay. Ignored when a
// non-ByteSlice format is selected explicitly.
func WithCompression() ColumnOption {
	return func(c *columnConfig) { c.compress = true }
}

// WithZoneMaps builds per-segment first-byte zone maps on ByteSlice
// columns: scans resolve segments whose zone already decides the predicate
// without touching the data — most effective on sorted or clustered
// columns (date-ordered fact tables). Ignored for other formats.
func WithZoneMaps() ColumnOption {
	return func(c *columnConfig) { c.zoneMaps = true }
}

// build applies the options to encoded codes: the compression decision
// applies only to the default ByteSlice format.
func (cfg columnConfig) build(id Column, k int, codes []uint32) (*Column, error) {
	f := cfg.format
	if cfg.compress && (f == "" || f == FormatByteSlice) {
		f = FormatByteSliceC
	}
	return newColumn(id, k, columnParts{codes: codes, nullRows: cfg.nullRows}, f, cfg.zoneMaps, true)
}

func applyOpts(opts []ColumnOption) columnConfig {
	var cfg columnConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// columnParts is what newColumn assembles a column from: the codes, from
// which it builds the storage layout and the histogram, and the NULL
// rows. A snapshot (stream v4) supplies stored parts instead, already
// checked, which newColumn adopts: the byte slices of a ByteSlice layout
// or the streams of a compressed one (n rows either way; codes stays nil),
// the histogram and the NULL vector.
type columnParts struct {
	codes    []uint32
	nullRows []int

	n      int
	slices [][]byte
	blocks *compress.Streams
	hist   *histogram
	nulls  *bitvec.Vector
}

// newColumn is the one place a column is assembled: id carries the name,
// kind and encoder, and newColumn adds the NULL vector, the histogram,
// the storage layout in format f and, when zoneMaps is set and the
// layout is raw ByteSlice, the zone maps. Construction, snapshot load,
// ingest seal and merge, and re-layout all build through it. It builds
// each part from p's codes, which must already lie in the encoder's
// domain, unless p holds that part stored; an adopted layout takes the
// same arena regions, in the same order and sizes, as one built from
// its codes. A ByteSliceC request runs the build-time compression
// decision only when decide is set (construction and re-layout, the
// caller's choice); a loaded or merged column stays compressed, as its
// first build chose.
func newColumn(id Column, k int, p columnParts, f Format, zoneMaps, decide bool) (*Column, error) {
	build, err := builderFor(f)
	if err != nil {
		return nil, err
	}
	c := id
	n := len(p.codes)
	if p.slices != nil || p.blocks != nil {
		n = p.n
	}
	if c.nulls = p.nulls; c.nulls == nil {
		if c.nulls, err = buildNulls(p.nullRows, n); err != nil {
			return nil, err
		}
	}
	if c.hist = p.hist; c.hist == nil {
		c.hist = buildHistogram(p.codes, maxCodeFor(k))
	}
	switch {
	case p.slices != nil:
		bs := core.Adopt(p.slices, k, p.n)
		bs.Register(arena)
		c.data = bs
	case p.blocks != nil:
		cc, err := compress.Adopt(*p.blocks, k, p.n)
		if err != nil {
			return nil, err
		}
		cc.Register(arena)
		c.data = cc
	case f == FormatByteSliceC && !decide:
		c.data = compress.New(p.codes, k, arena)
	default:
		c.data = build(p.codes, k, arena)
	}
	if bs, ok := byteSliceOf(c.data); ok && zoneMaps {
		bs.BuildZoneMaps()
	}
	return &c, nil
}

// encodeAll encodes every value through the column's encoder.
func encodeAll[T any](name string, values []T, encode func(T) (uint32, error)) ([]uint32, error) {
	codes := make([]uint32, len(values))
	for i, v := range values {
		c, err := encode(v)
		if err != nil {
			return nil, fmt.Errorf("column %s row %d: %w", name, i, err)
		}
		codes[i] = c
	}
	return codes, nil
}

// NewIntColumn builds an integer column over the closed domain [min, max]
// using frame-of-reference encoding. Every value must lie in the domain;
// filter constants may not.
func NewIntColumn(name string, values []int64, min, max int64, opts ...ColumnOption) (*Column, error) {
	enc, err := encoding.NewIntEncoder(min, max)
	if err != nil {
		return nil, err
	}
	codes, err := encodeAll(name, values, enc.Encode)
	if err != nil {
		return nil, err
	}
	return applyOpts(opts).build(Column{name: name, kind: KindInt, ints: enc}, enc.Width(), codes)
}

// NewDecimalColumn builds a fixed-precision decimal column over [min, max]
// with the given number of decimal digits, scaled to integer codes.
func NewDecimalColumn(name string, values []float64, min, max float64, digits int, opts ...ColumnOption) (*Column, error) {
	enc, err := encoding.NewDecimalEncoder(min, max, digits)
	if err != nil {
		return nil, err
	}
	codes, err := encodeAll(name, values, enc.Encode)
	if err != nil {
		return nil, err
	}
	return applyOpts(opts).build(Column{name: name, kind: KindDecimal, decs: enc}, enc.Width(), codes)
}

// NewStringColumn builds a string column with an order-preserving sorted
// dictionary built from the values themselves: string range predicates
// translate directly to code range predicates.
func NewStringColumn(name string, values []string, opts ...ColumnOption) (*Column, error) {
	dict := encoding.NewDictionary(values)
	codes, err := encodeAll(name, values, dict.Encode)
	if err != nil {
		return nil, err
	}
	return applyOpts(opts).build(Column{name: name, kind: KindString, dict: dict}, dict.Width(), codes)
}

// NewCodeColumn builds a column from pre-encoded k-bit codes (for callers
// that manage their own encoding).
func NewCodeColumn(name string, codes []uint32, k int, opts ...ColumnOption) (*Column, error) {
	if k < 1 || k > 32 {
		return nil, fmt.Errorf("byteslice: column %s: width %d out of range [1,32]", name, k)
	}
	for i, c := range codes {
		if k < 32 && c >= 1<<uint(k) {
			return nil, fmt.Errorf("byteslice: column %s row %d: code %d exceeds width %d", name, i, c, k)
		}
	}
	return applyOpts(opts).build(Column{name: name, kind: KindCode}, k, codes)
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the column's native value kind.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int { return c.data.Len() }

// Digits returns a decimal column's number of decimal digits (its values
// are integer codes scaled by 10^-Digits), and 0 for every other kind.
func (c *Column) Digits() int {
	if c.decs == nil {
		return 0
	}
	return c.decs.Digits()
}

// Width returns the encoded code width in bits.
func (c *Column) Width() int { return c.data.Width() }

// Format returns the storage layout name.
func (c *Column) Format() Format { return Format(c.data.Name()) }

// SizeBytes returns the formatted in-memory footprint.
func (c *Column) SizeBytes() uint64 { return c.data.SizeBytes() }

// Compressed reports whether the column is stored in the compressed
// FOR/delta block layout (FormatByteSliceC; see WithCompression).
func (c *Column) Compressed() bool {
	_, ok := compressedOf(c.data)
	return ok
}

// CompressionStats describes a column's storage for inspection tooling:
// its layout, footprint against the equivalent raw ByteSlice layout, and —
// for compressed columns — the block-mode mix driving the fused scan's
// fast paths.
type CompressionStats struct {
	// Format is the column's storage layout name.
	Format Format
	// Blocks, DeltaBlocks and Uniform1 count the column's 512-code blocks,
	// the delta-encoded ones, and the FOR blocks on the no-decode 1-byte
	// direct-compare path (all zero for uncompressed layouts).
	Blocks, DeltaBlocks, Uniform1 int
	// RawBytes is the raw ByteSlice footprint of the same codes; Bytes is
	// the column's actual footprint; Ratio is RawBytes/Bytes.
	RawBytes, Bytes uint64
	Ratio           float64
	// BytesPerRow and PruneEst are the compressed scan cost-model inputs:
	// compressed bytes moved per row and the estimated block prune rate.
	BytesPerRow float64
	PruneEst    float64
}

// CompressionStats summarises the column's storage layout.
func (c *Column) CompressionStats() CompressionStats {
	s := CompressionStats{
		Format:      c.Format(),
		RawBytes:    c.SizeBytes(),
		Bytes:       c.SizeBytes(),
		Ratio:       1,
		BytesPerRow: float64((c.Width() + 7) / 8),
	}
	if cc, ok := compressedOf(c.data); ok {
		cs := cc.ColumnStats()
		s.Blocks, s.DeltaBlocks, s.Uniform1 = cs.Blocks, cs.DeltaBlocks, cs.Uniform1
		s.RawBytes, s.Bytes, s.Ratio = cs.RawBytes, cs.CompBytes, cs.Ratio
		s.BytesPerRow, s.PruneEst = cs.BytesPerRow, cs.PruneEst
	}
	return s
}

// HasZoneMaps reports whether the column carries per-segment zone maps
// (built via WithZoneMaps on a ByteSlice column).
func (c *Column) HasZoneMaps() bool {
	bs, ok := byteSliceOf(c.data)
	return ok && bs.HasZoneMaps()
}

// LookupCode reconstructs the stored code of row i (the raw lookup the
// paper benchmarks). The profile may be nil, in which case ByteSlice
// columns stitch the row's byte from each slice and HBP columns load its
// bank through their native kernels; other layouts, and every profiled
// lookup, take the modelled engine.
func (c *Column) LookupCode(p *Profile, i int) uint32 {
	if p == nil {
		if h, ok := hbpOf(c.data); ok {
			return kernel.LookupHBP(h, i)
		}
		if bs, ok := byteSliceOf(c.data); ok {
			return kernel.Lookup(bs, i)
		}
	}
	return c.data.Lookup(p.engine(), i)
}

// LookupInt decodes row i of an integer column.
func (c *Column) LookupInt(p *Profile, i int) (int64, error) {
	if c.kind != KindInt {
		return 0, fmt.Errorf("byteslice: column %s is %s, not int", c.name, c.kind)
	}
	return c.ints.Decode(c.LookupCode(p, i)), nil
}

// LookupDecimal decodes row i of a decimal column.
func (c *Column) LookupDecimal(p *Profile, i int) (float64, error) {
	if c.kind != KindDecimal {
		return 0, fmt.Errorf("byteslice: column %s is %s, not decimal", c.name, c.kind)
	}
	return c.decs.Decode(c.LookupCode(p, i)), nil
}

// LookupString decodes row i of a string column.
func (c *Column) LookupString(p *Profile, i int) (string, error) {
	if c.kind != KindString {
		return "", fmt.Errorf("byteslice: column %s is %s, not string", c.name, c.kind)
	}
	return c.dict.Decode(c.LookupCode(p, i)), nil
}

// maxCode returns the largest code of the column's domain.
func (c *Column) maxCode() uint32 { return maxCodeFor(c.data.Width()) }

func maxCodeFor(k int) uint32 {
	if k == 32 {
		return ^uint32(0)
	}
	return 1<<uint(k) - 1
}

// predicate translates a filter's native constants into a code predicate,
// or a trivial constant when the filter is decided by the domain alone.
func (c *Column) predicate(f Filter) (layout.Predicate, *bool, error) {
	switch c.kind {
	case KindInt:
		if f.setInt == nil {
			return layout.Predicate{}, nil, fmt.Errorf("byteslice: column %s is int; use IntFilter", c.name)
		}
		return f.setInt(c)
	case KindDecimal:
		if f.setDec == nil {
			return layout.Predicate{}, nil, fmt.Errorf("byteslice: column %s is decimal; use DecimalFilter", c.name)
		}
		return f.setDec(c)
	case KindString:
		if f.setStr == nil {
			return layout.Predicate{}, nil, fmt.Errorf("byteslice: column %s is string; use StringFilter", c.name)
		}
		return f.setStr(c)
	case KindCode:
		if f.setCode == nil {
			return layout.Predicate{}, nil, fmt.Errorf("byteslice: column %s is code; use CodeFilter", c.name)
		}
		return f.setCode(c)
	}
	return layout.Predicate{}, nil, fmt.Errorf("byteslice: column %s has unknown kind", c.name)
}
