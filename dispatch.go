package byteslice

import (
	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
)

// layoutKernel is one storage layout's native-execution dispatch entry:
// the set of SWAR kernels the facade routes through when no profile is
// attached. Raw ByteSlice, compressed ByteSlice and HBP are peers behind
// this table — table.eval, the projection paths and OrderBy dispatch on
// the column's layout instead of type-switching inline, so adding a
// layout means adding an entry here (plus a builder in internal/layouts
// and a persistence format tag; the registry test in layouts_test.go
// pins all three in sync).
type layoutKernel struct {
	// scanKind labels the obs stage for a plain scan of this layout.
	scanKind func(c *Column) string
	// scan evaluates pred over the whole column into out, returning how
	// many segments metadata pruning resolved without touching data. A
	// non-nil prev — passed only to pipelined layouts — fuses the running
	// result into the scan (column-first Algorithm 2): segments already
	// decided by prev are skipped, and disjunct selects prev OR pred over
	// prev AND pred.
	scan func(x kernel.Exec, c *Column, pred layout.Predicate, prev *bitvec.Vector, disjunct bool, out *bitvec.Vector) (pruned int, err error)
	// pipelined reports whether scan accepts a prev gate. Layouts without
	// a native pipelined kernel run an independent scan combined through
	// the bit vector.
	pipelined bool
	// lookupMany gathers the codes of rows (ascending) into codes — the
	// projection / ORDER-BY materialisation path. Block-decoding layouts
	// ignore x.Workers and keep the whole row list on one walker so each
	// block decodes once.
	lookupMany func(x kernel.Exec, c *Column, rows []int32, codes []uint32) error
	// segments sizes the worker pool: the column's 32-code segment count.
	segments func(c *Column) int
}

// nativeKernels is the layout dispatch table of the native execution
// path, keyed by the layout's format tag.
var nativeKernels = map[Format]*layoutKernel{
	FormatByteSlice: {
		scanKind: func(c *Column) string {
			if c.HasZoneMaps() {
				return "scan_zoned"
			}
			return "scan"
		},
		scan: func(x kernel.Exec, c *Column, pred layout.Predicate, prev *bitvec.Vector, disjunct bool, out *bitvec.Vector) (int, error) {
			bs, _ := byteSliceOf(c.data)
			return kernel.Scan(x, bs, pred, prev, disjunct, out)
		},
		pipelined: true,
		lookupMany: func(x kernel.Exec, c *Column, rows []int32, codes []uint32) error {
			bs, _ := byteSliceOf(c.data)
			return kernel.LookupMany(x, bs, rows, codes)
		},
		segments: func(c *Column) int {
			bs, _ := byteSliceOf(c.data)
			return bs.Segments()
		},
	},
	FormatByteSliceC: {
		scanKind: func(c *Column) string { return "scan_compressed" },
		scan: func(x kernel.Exec, c *Column, pred layout.Predicate, _ *bitvec.Vector, _ bool, out *bitvec.Vector) (int, error) {
			cc, _ := compressedOf(c.data)
			return kernel.ScanCompressed(x, cc, pred, out)
		},
		lookupMany: func(x kernel.Exec, c *Column, rows []int32, codes []uint32) error {
			cc, _ := compressedOf(c.data)
			return kernel.LookupManyCompressed(x, cc, rows, codes)
		},
		segments: func(c *Column) int {
			cc, _ := compressedOf(c.data)
			return cc.Segments()
		},
	},
	FormatHBP: {
		scanKind: func(c *Column) string { return "scan_hbp" },
		scan: func(x kernel.Exec, c *Column, pred layout.Predicate, _ *bitvec.Vector, _ bool, out *bitvec.Vector) (int, error) {
			h, _ := hbpOf(c.data)
			return 0, kernel.ScanHBP(x, h, pred, out)
		},
		lookupMany: func(x kernel.Exec, c *Column, rows []int32, codes []uint32) error {
			h, _ := hbpOf(c.data)
			return kernel.LookupManyHBP(x, h, rows, codes)
		},
		segments: func(c *Column) int {
			return (c.Len() + core.SegmentSize - 1) / core.SegmentSize
		},
	},
}

// nativeKernelOf returns the native dispatch entry for the column's
// layout, or nil when the layout only has a modelled implementation (BP,
// VBP) and must run through the engine.
func nativeKernelOf(c *Column) *layoutKernel {
	return nativeKernels[c.Format()]
}

// materializeCodes stitches every row's code back out of the column — the
// first half of a re-layout or merge.
func materializeCodes(c *Column) ([]uint32, error) {
	codes := make([]uint32, c.Len())
	if err := gatherCodes(c, 0, codes); err != nil {
		return nil, err
	}
	return codes, nil
}

// gatherCodes fills codes with the codes of rows [lo, lo+len(codes)) —
// the one code gather of re-layout, merge and snapshot write. It runs
// serially and cannot be cancelled.
func gatherCodes(c *Column, lo int, codes []uint32) error {
	rows := make([]int32, len(codes))
	for i := range rows {
		rows[i] = int32(lo + i)
	}
	return gatherRows(kernel.Exec{}, c, rows, codes)
}

// gatherRows fills codes with the codes of rows (ascending) through the
// layout's native lookup kernel; layouts with only a modelled
// implementation (BP, VBP) fall back to engine lookups, which x does not
// reach.
func gatherRows(x kernel.Exec, c *Column, rows []int32, codes []uint32) error {
	if lk := nativeKernelOf(c); lk != nil {
		return queryErr(lk.lookupMany(x, c, rows, codes))
	}
	e := (*Profile)(nil).engine()
	for i, r := range rows {
		codes[i] = c.data.Lookup(e, int(r))
	}
	return nil
}
