package byteslice

import (
	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// layoutKernel is one storage layout's dispatch entry on one engine: the
// native kernels (or, in modelledKernels, the modelled SIMD ones) the
// facade routes a column's scans, gathers and aggregates through. This
// file is the one place that picks native kernel or modelled engine for
// a column — the scan step, the gather and the aggregate entries — so
// adding a layout means adding an entry here (plus a builder in
// internal/layouts and a persistence format tag; registry_test.go pins
// all three in sync). A nil field leaves that operation to the layout's
// own Scan and Lookup on the modelled engine.
type layoutKernel struct {
	// scanKind labels the obs stage for a plain scan of this layout.
	scanKind func(c *Column) string
	// scan evaluates pred over the whole column into out, returning how
	// many segments metadata pruning resolved without touching data. A
	// native entry runs under x, a modelled one on p's engine. A non-nil
	// prev — passed only to raw ByteSlice (resolved.pipelines) — fuses the
	// running result into the scan (column-first Algorithm 2): segments
	// already decided by prev are skipped, and disjunct selects prev OR
	// pred over prev AND pred.
	scan func(x kernel.Exec, p *Profile, c *Column, pred layout.Predicate, prev *bitvec.Vector, disjunct bool, out *bitvec.Vector) (pruned int, err error)
	// lookupMany gathers the codes of rows (ascending) into codes — the
	// projection / ORDER-BY materialisation path. The compressed layout
	// ignores x.Workers and keeps the whole row list on one walker, which
	// selects a sparse block's rows and decodes a dense block once.
	lookupMany func(x kernel.Exec, c *Column, rows []int32, codes []uint32) error
	// sum and extreme aggregate the codes of mask's rows (every row when
	// mask is nil), like scan under x or on p's engine: sum returns Σ
	// codes and the row count, extreme the minimum (isMin) or maximum and
	// whether any row was found.
	sum     func(x kernel.Exec, p *Profile, c *Column, mask *bitvec.Vector) (uint64, int, error)
	extreme func(x kernel.Exec, p *Profile, c *Column, mask *bitvec.Vector, isMin bool) (uint32, bool, error)
}

// nativeKernels is the layout dispatch table of the native execution
// path, keyed by the layout's format tag. BitPacked and VBP have no
// entry: they run on the modelled engine even without a profile.
var nativeKernels = map[Format]*layoutKernel{
	FormatByteSlice: {
		scanKind: byteSliceScanKind,
		scan: func(x kernel.Exec, _ *Profile, c *Column, pred layout.Predicate, prev *bitvec.Vector, disjunct bool, out *bitvec.Vector) (int, error) {
			bs, _ := byteSliceOf(c.data)
			return kernel.Scan(x, bs, pred, prev, disjunct, out)
		},
		lookupMany: func(x kernel.Exec, c *Column, rows []int32, codes []uint32) error {
			bs, _ := byteSliceOf(c.data)
			return kernel.LookupMany(x, bs, rows, codes)
		},
		sum: func(x kernel.Exec, _ *Profile, c *Column, mask *bitvec.Vector) (uint64, int, error) {
			bs, _ := byteSliceOf(c.data)
			return kernel.Sum(x, bs, mask)
		},
		extreme: func(x kernel.Exec, _ *Profile, c *Column, mask *bitvec.Vector, isMin bool) (uint32, bool, error) {
			bs, _ := byteSliceOf(c.data)
			return kernel.Extreme(x, bs, mask, isMin)
		},
	},
	FormatByteSliceC: {
		scanKind: func(c *Column) string { return "scan_compressed" },
		scan: func(x kernel.Exec, _ *Profile, c *Column, pred layout.Predicate, _ *bitvec.Vector, _ bool, out *bitvec.Vector) (int, error) {
			cc, _ := compressedOf(c.data)
			return kernel.ScanCompressed(x, cc, pred, out)
		},
		lookupMany: func(x kernel.Exec, c *Column, rows []int32, codes []uint32) error {
			cc, _ := compressedOf(c.data)
			return kernel.LookupManyCompressed(x, cc, rows, codes)
		},
		sum: func(x kernel.Exec, _ *Profile, c *Column, mask *bitvec.Vector) (uint64, int, error) {
			cc, _ := compressedOf(c.data)
			return kernel.SumCompressed(x, cc, mask)
		},
		extreme: func(x kernel.Exec, _ *Profile, c *Column, mask *bitvec.Vector, isMin bool) (uint32, bool, error) {
			cc, _ := compressedOf(c.data)
			return kernel.ExtremeCompressed(x, cc, mask, isMin)
		},
	},
	FormatHBP: {
		scanKind: func(c *Column) string { return "scan_hbp" },
		scan: func(x kernel.Exec, _ *Profile, c *Column, pred layout.Predicate, _ *bitvec.Vector, _ bool, out *bitvec.Vector) (int, error) {
			h, _ := hbpOf(c.data)
			return 0, kernel.ScanHBP(x, h, pred, out)
		},
		lookupMany: func(x kernel.Exec, c *Column, rows []int32, codes []uint32) error {
			h, _ := hbpOf(c.data)
			return kernel.LookupManyHBP(x, h, rows, codes)
		},
	},
}

// modelledKernels is the layout dispatch table of the modelled (WithProfile)
// path: raw ByteSlice's pipelined and zoned scans and its SIMD aggregates
// (masked SAD sums, slice-wise min/max tournaments — internal/core). Every
// other layout scans and looks up codes through its layout.Layout methods.
var modelledKernels = map[Format]*layoutKernel{
	FormatByteSlice: {
		scanKind: byteSliceScanKind,
		scan: func(_ kernel.Exec, p *Profile, c *Column, pred layout.Predicate, prev *bitvec.Vector, disjunct bool, out *bitvec.Vector) (int, error) {
			bs, _ := byteSliceOf(c.data)
			e := p.engine()
			switch {
			case prev != nil:
				bs.ScanPipelined(e, pred, prev, disjunct, out)
			case bs.HasZoneMaps():
				bs.ScanZoned(e, pred, out)
			default:
				bs.Scan(e, pred, out)
			}
			return 0, nil
		},
		sum: func(_ kernel.Exec, p *Profile, c *Column, mask *bitvec.Vector) (uint64, int, error) {
			bs, _ := byteSliceOf(c.data)
			sum, count := bs.Sum(p.engine(), mask)
			return sum, count, nil
		},
		extreme: func(_ kernel.Exec, p *Profile, c *Column, mask *bitvec.Vector, isMin bool) (uint32, bool, error) {
			bs, _ := byteSliceOf(c.data)
			extreme := bs.Max
			if isMin {
				extreme = bs.Min
			}
			v, found := extreme(p.engine(), mask)
			return v, found, nil
		},
	},
}

// segments is the column's 32-code segment count, which sizes a native
// kernel's worker pool.
func (c *Column) segments() int { return (c.Len() + core.SegmentSize - 1) / core.SegmentSize }

// byteSliceScanKind labels the stage of a plain raw ByteSlice scan.
func byteSliceScanKind(c *Column) string {
	if c.HasZoneMaps() {
		return "scan_zoned"
	}
	return "scan"
}

// kernelOf returns the dispatch entry of c's layout on the query's engine
// — nativeKernels without a profile, modelledKernels with one — or nil
// when the layout has none there.
func (cfg *queryConfig) kernelOf(c *Column) *layoutKernel {
	if cfg.native() {
		return nativeKernels[c.Format()]
	}
	return modelledKernels[c.Format()]
}

// pipelines reports whether r's scan can fuse the running result in
// (column-first, Algorithm 2). Raw ByteSlice alone has a pipelined scan,
// on both engines; a disjunct over a nullable column cannot clear its
// NULLs after the OR, so it scans on its own.
func (r resolved) pipelines(disjunct bool) bool {
	return !r.matchAll && r.col.Format() == FormatByteSlice && !(disjunct && r.col.nulls != nil)
}

// scanStep evaluates one resolved filter into out and clears the column's
// NULL rows from it. A match-all filter fills out; a layout with a scan
// entry on the query's engine runs it, natively under the stage
// scan(col) — of kind "pipelined" when prev gates it, else the layout's
// scan kind; any other layout scans on the modelled engine. A non-nil
// prev is passed only when r pipelines.
func scanStep(cfg *queryConfig, q *obs.Query, r resolved, prev *bitvec.Vector, disjunct bool, out *bitvec.Vector) (pruned int, err error) {
	lk := cfg.kernelOf(r.col)
	switch {
	case r.matchAll:
		out.Fill()
	case lk != nil:
		kind := "pipelined"
		if prev == nil {
			kind = lk.scanKind(r.col)
		}
		st, done := cfg.stage(q, "scan("+r.col.Name()+")", kind)
		pruned, err = lk.scan(cfg.exec(st, r.col.segments()), cfg.profile, r.col, r.pred, prev, disjunct, out)
		done()
		if err != nil {
			return 0, queryErr(err)
		}
	default:
		r.col.data.Scan(cfg.profile.engine(), r.pred, out)
	}
	applyNulls(out, r.col)
	return pruned, nil
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
	return gather(kernel.Exec{}, nil, c, rows, codes)
}

// gather fills codes with the codes of rows (ascending): through the
// layout's native lookup kernel under x when p is nil and the layout has
// one, else by lookups on p's modelled engine, which check x.Ctx every
// 8Ki rows.
func gather(x kernel.Exec, p *Profile, c *Column, rows []int32, codes []uint32) error {
	if lk := nativeKernels[c.Format()]; lk != nil && p == nil {
		return queryErr(lk.lookupMany(x, c, rows, codes))
	}
	e := p.engine()
	for i, r := range rows {
		if i%8192 == 0 && x.Ctx != nil && x.Ctx.Err() != nil {
			return x.Ctx.Err()
		}
		codes[i] = c.data.Lookup(e, int(r))
	}
	return nil
}

// eachCode calls fn with the code of every row of c in mask (every row
// when mask is nil), by lookups on the modelled engine — the aggregates'
// fallback for a layout without an entry on the query's engine. It checks
// the query's context every 8Ki rows.
func eachCode(cfg *queryConfig, c *Column, mask *bitvec.Vector, fn func(code uint32)) error {
	e := cfg.profile.engine()
	for i := 0; i < c.Len(); i++ {
		if i%8192 == 0 {
			if err := cfg.ctxErr(); err != nil {
				return err
			}
		}
		if mask == nil || mask.Get(i) {
			fn(c.data.Lookup(e, i))
		}
	}
	return nil
}
