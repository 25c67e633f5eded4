package byteslice

import (
	"fmt"
	"sort"

	"byteslice/internal/bitvec"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// Aggregates over columns, optionally restricted to a filter Result.
// Sum, Min and Max run through the layout's aggregate entries
// (dispatch.go). Profiled, ByteSlice columns aggregate with SIMD directly
// on the byte slices (masked SAD sums, slice-wise min/max tournaments —
// see internal/core/aggregate.go). Without a profile, the native kernels
// in internal/kernel run on raw and compressed ByteSlice: AVX2 where the
// start-up probe found it (VPSADBW sums, a first-slice VPMINUB walk for
// Min/Max), SWAR elsewhere. Other layouts fall back to per-row lookups.
// NULL rows of the aggregated column are always excluded, matching SQL.

// aggMask builds the effective row mask: the result's rows (or all rows)
// minus the column's NULLs. Returns nil when every row participates. When
// the column has no NULLs the mask is the result's own vector, which the
// caller must not write.
func (t *Table) aggMask(c *Column, res *Result) (*bitvec.Vector, error) {
	if err := t.checkResult(res); err != nil {
		return nil, err
	}
	if c.nulls == nil {
		if res == nil {
			return nil, nil
		}
		return res.vector(), nil
	}
	m := bitvec.New(t.n)
	if res != nil {
		m.Or(res.vector())
	} else {
		m.Fill()
	}
	applyNulls(m, c)
	return m, nil
}

// aggColumn resolves and validates the aggregated column.
func (t *Table) aggColumn(name string, kind Kind) (*Column, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	if c.kind != kind {
		return nil, fmt.Errorf("byteslice: column %s is %s, not %s", name, c.kind, kind)
	}
	return c, nil
}

// sumCodes computes (Σ codes, row count) over the result's non-NULL rows
// through the layout's sum entry on the query's engine (kernelOf), or by
// per-row lookups where the layout has none.
func (t *Table) sumCodes(c *Column, res *Result, cfg *queryConfig) (uint64, int, error) {
	mask, err := t.aggMask(c, res)
	if err != nil {
		return 0, 0, err
	}
	if lk := cfg.kernelOf(c); lk != nil && lk.sum != nil {
		st, finish := cfg.aggStage("sum("+c.Name()+")", "sum")
		sum, count, err := lk.sum(cfg.exec(st, c.segments()), cfg.profile, c, mask)
		err = queryErr(err)
		finish(err)
		return sum, count, err
	}
	var sum uint64
	count := 0
	err = eachCode(cfg, c, mask, func(code uint32) {
		sum += uint64(code)
		count++
	})
	return sum, count, err
}

// extremeCode computes min or max of the codes over the result's non-NULL
// rows, dispatching like sumCodes.
func (t *Table) extremeCode(c *Column, res *Result, cfg *queryConfig, isMin bool) (uint32, bool, error) {
	mask, err := t.aggMask(c, res)
	if err != nil {
		return 0, false, err
	}
	if lk := cfg.kernelOf(c); lk != nil && lk.extreme != nil {
		name := "max(" + c.Name() + ")"
		if isMin {
			name = "min(" + c.Name() + ")"
		}
		st, finish := cfg.aggStage(name, "extreme")
		v, found, err := lk.extreme(cfg.exec(st, c.segments()), cfg.profile, c, mask, isMin)
		err = queryErr(err)
		finish(err)
		return v, found, err
	}
	var best uint32
	found := false
	err = eachCode(cfg, c, mask, func(v uint32) {
		if !found || (isMin && v < best) || (!isMin && v > best) {
			best, found = v, true
		}
	})
	return best, found, err
}

// SumInt sums an integer column over the result's rows (all rows when res
// is nil), excluding NULLs, and also returns the row count (for averages).
func (t *Table) SumInt(col string, res *Result, opts ...QueryOption) (int64, int, error) {
	c, err := t.aggColumn(col, KindInt)
	if err != nil {
		return 0, 0, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	sum, count, err := t.sumCodes(c, res, &cfg)
	if err != nil {
		return 0, 0, err
	}
	// Frame of reference: value = min + code.
	return int64(count)*c.ints.Min() + int64(sum), count, nil
}

// SumDecimal sums a decimal column over the result's rows, excluding NULLs.
func (t *Table) SumDecimal(col string, res *Result, opts ...QueryOption) (float64, int, error) {
	c, err := t.aggColumn(col, KindDecimal)
	if err != nil {
		return 0, 0, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	sum, count, err := t.sumCodes(c, res, &cfg)
	if err != nil {
		return 0, 0, err
	}
	step := c.decs.Decode(1) - c.decs.Decode(0)
	return float64(count)*c.decs.Min() + float64(sum)*step, count, nil
}

// MinInt returns the minimum of an integer column over the result's rows;
// ok is false when no non-NULL row is selected.
func (t *Table) MinInt(col string, res *Result, opts ...QueryOption) (int64, bool, error) {
	return t.extremeInt(col, res, opts, true)
}

// MaxInt returns the maximum of an integer column over the result's rows.
func (t *Table) MaxInt(col string, res *Result, opts ...QueryOption) (int64, bool, error) {
	return t.extremeInt(col, res, opts, false)
}

func (t *Table) extremeInt(col string, res *Result, opts []QueryOption, isMin bool) (int64, bool, error) {
	c, err := t.aggColumn(col, KindInt)
	if err != nil {
		return 0, false, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	code, ok, err := t.extremeCode(c, res, &cfg, isMin)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	return c.ints.Decode(code), true, nil
}

// MinDecimal returns the minimum of a decimal column over the result's rows.
func (t *Table) MinDecimal(col string, res *Result, opts ...QueryOption) (float64, bool, error) {
	return t.extremeDecimal(col, res, opts, true)
}

// MaxDecimal returns the maximum of a decimal column over the result's rows.
func (t *Table) MaxDecimal(col string, res *Result, opts ...QueryOption) (float64, bool, error) {
	return t.extremeDecimal(col, res, opts, false)
}

func (t *Table) extremeDecimal(col string, res *Result, opts []QueryOption, isMin bool) (float64, bool, error) {
	c, err := t.aggColumn(col, KindDecimal)
	if err != nil {
		return 0, false, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	code, ok, err := t.extremeCode(c, res, &cfg, isMin)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	return c.decs.Decode(code), true, nil
}

// MinString returns the lexicographically smallest string of a dictionary
// column over the result's rows (order-preserving encoding makes this the
// minimum code).
func (t *Table) MinString(col string, res *Result, opts ...QueryOption) (string, bool, error) {
	return t.extremeString(col, res, opts, true)
}

// MaxString returns the lexicographically largest string of a dictionary
// column over the result's rows.
func (t *Table) MaxString(col string, res *Result, opts ...QueryOption) (string, bool, error) {
	return t.extremeString(col, res, opts, false)
}

func (t *Table) extremeString(col string, res *Result, opts []QueryOption, isMin bool) (string, bool, error) {
	c, err := t.aggColumn(col, KindString)
	if err != nil {
		return "", false, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	code, ok, err := t.extremeCode(c, res, &cfg, isMin)
	if err != nil {
		return "", false, err
	}
	if !ok {
		return "", false, nil
	}
	return c.dict.Decode(code), true, nil
}

// GroupSum is one group of a grouped aggregation.
type GroupSum struct {
	// Key is the group's native value (int64, float64 or string,
	// matching the group-by column's kind).
	Key any
	// Sum and Count aggregate the value column over the group.
	Sum   float64
	Count int
}

// SumIntBy computes SUM(valCol) per distinct value of byCol over the
// result's rows (all rows when res is nil), NULLs of either column
// excluded. For low-cardinality group columns on layouts with scan and
// sum kernels (dispatch.go) it runs one early-stopping equality scan per
// group value and a masked sum per group — grouping by scanning, which
// never materialises row lists; other layouts and wider group columns
// fall back to per-row accumulation. Groups are returned in ascending key
// order and empty groups are omitted.
func (t *Table) SumIntBy(valCol, byCol string, res *Result, opts ...QueryOption) ([]GroupSum, error) {
	v, err := t.aggColumn(valCol, KindInt)
	if err != nil {
		return nil, err
	}
	return t.sumBy(v, byCol, res, opts, func(code uint32) float64 {
		return float64(v.ints.Decode(code))
	})
}

// SumDecimalBy is SumIntBy for decimal value columns.
func (t *Table) SumDecimalBy(valCol, byCol string, res *Result, opts ...QueryOption) ([]GroupSum, error) {
	v, err := t.aggColumn(valCol, KindDecimal)
	if err != nil {
		return nil, err
	}
	return t.sumBy(v, byCol, res, opts, func(code uint32) float64 {
		return v.decs.Decode(code)
	})
}

// groupScanMaxWidth bounds the scan-per-group strategy: beyond 2^10
// distinct group codes, per-row accumulation wins.
const groupScanMaxWidth = 10

func (t *Table) sumBy(v *Column, byCol string, res *Result, opts []QueryOption,
	decode func(uint32) float64) ([]GroupSum, error) {

	g, err := t.Column(byCol)
	if err != nil {
		return nil, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	p := cfg.profile

	// Effective mask: result rows minus NULLs of both columns. The group
	// column's NULLs are cleared in place, so a mask that may be the
	// result's own vector is copied first.
	mask, err := t.aggMask(v, res)
	if err != nil {
		return nil, err
	}
	if g.nulls != nil {
		switch {
		case mask == nil:
			mask = bitvec.New(t.n)
			mask.Fill()
		case v.nulls == nil:
			mask = mask.Clone()
		}
		applyNulls(mask, g)
	}

	type agg struct {
		sum   float64
		count int
	}
	groups := map[uint32]*agg{}

	grpK, valK := cfg.kernelOf(g), cfg.kernelOf(v)
	if grpK != nil && grpK.scan != nil && valK != nil && valK.sum != nil && g.Width() <= groupScanMaxWidth {
		// Grouping by scanning: one equality scan per candidate group code
		// (early stopping makes misses cheap), one masked sum each, both
		// through the layouts' dispatch entries. Unprofiled runs use the
		// native kernels under the query's context and worker pool,
		// recording into one stage.
		var x kernel.Exec
		finish := func(error) {}
		if cfg.native() {
			var st *obs.Stage
			st, finish = cfg.aggStage("sum_by("+v.Name()+" by "+g.Name()+")", "sum_by")
			x = cfg.exec(st, g.segments())
		}
		fail := func(err error) ([]GroupSum, error) {
			finish(err)
			return nil, err
		}
		groupMask := bitvec.New(t.n)
		for code := uint32(0); code <= g.maxCode(); code++ {
			// One cancellation point per candidate group: each iteration
			// runs a full scan plus a masked sum.
			if err := cfg.ctxErr(); err != nil {
				return fail(err)
			}
			if _, err := grpK.scan(x, p, g, layout.Predicate{Op: Eq, C1: code}, nil, false, groupMask); err != nil {
				return fail(queryErr(err))
			}
			if mask != nil {
				groupMask.And(mask)
			}
			count := kernel.Count(groupMask)
			if count == 0 {
				continue
			}
			codeSum, _, err := valK.sum(x, p, v, groupMask)
			if err != nil {
				return fail(queryErr(err))
			}
			// Σ decode(c) = count·decode(0) + (decode(1)−decode(0))·Σc for
			// the affine decoders used here.
			step := decode(1) - decode(0)
			groups[code] = &agg{sum: float64(count)*decode(0) + float64(codeSum)*step, count: count}
		}
		finish(nil)
	} else {
		e := p.engine()
		for i := 0; i < t.n; i++ {
			if i%8192 == 0 {
				if err := cfg.ctxErr(); err != nil {
					return nil, err
				}
			}
			if mask != nil && !mask.Get(i) {
				continue
			}
			code := g.data.Lookup(e, i)
			a := groups[code]
			if a == nil {
				a = &agg{}
				groups[code] = a
			}
			a.sum += decode(v.data.Lookup(e, i))
			a.count++
		}
	}

	keys := make([]uint32, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]GroupSum, 0, len(keys))
	for _, k := range keys {
		gs := GroupSum{Sum: groups[k].sum, Count: groups[k].count}
		switch g.kind {
		case KindInt:
			gs.Key = g.ints.Decode(k)
		case KindDecimal:
			gs.Key = g.decs.Decode(k)
		case KindString:
			gs.Key = g.dict.Decode(k)
		default:
			gs.Key = k
		}
		out = append(out, gs)
	}
	return out, nil
}
