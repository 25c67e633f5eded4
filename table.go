package byteslice

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
	"byteslice/internal/plan"
	"byteslice/internal/sortpart"
)

// ErrQueryFault marks a query that died inside a native kernel worker: a
// panic in the scan/aggregate machinery is recovered per segment batch and
// surfaces as an error wrapping this sentinel (with the failing segment
// range in the message) instead of crashing the process from a goroutine
// no caller can defend. Cancellation is reported separately, as the
// context's own error (errors.Is(err, context.Canceled)).
var ErrQueryFault = errors.New("byteslice: query fault")

// queryErr converts a kernel-layer failure into the facade's error
// vocabulary: recovered worker panics wrap ErrQueryFault, context errors
// pass through untouched so errors.Is(err, context.Canceled) keeps
// working.
func queryErr(err error) error {
	if err == nil {
		return nil
	}
	var pe *kernel.PanicError
	if errors.As(err, &pe) {
		return fmt.Errorf("%w: %w", ErrQueryFault, pe)
	}
	return err
}

// Table is an immutable set of equal-length columns queried together.
type Table struct {
	cols   []*Column
	byName map[string]*Column
	n      int
}

// NewTable assembles columns into a table. All columns must have the same
// number of rows and distinct names.
func NewTable(cols ...*Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("byteslice: table needs at least one column")
	}
	t := &Table{cols: cols, byName: make(map[string]*Column, len(cols)), n: cols[0].Len()}
	for _, c := range cols {
		if c.Len() != t.n {
			return nil, fmt.Errorf("byteslice: column %s has %d rows, want %d", c.Name(), c.Len(), t.n)
		}
		if _, dup := t.byName[c.Name()]; dup {
			return nil, fmt.Errorf("byteslice: duplicate column %s", c.Name())
		}
		t.byName[c.Name()] = c
	}
	return t, nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// WithLayout returns a table whose named columns (all of them when no
// names are given) are rebuilt in the given storage layout, sharing the
// encoders of the receiver's columns; zone maps carry over whenever the
// result is raw ByteSlice. FormatByteSliceC runs the build-time
// compression decision, so a column it would not pay off for stays raw
// ByteSlice. Columns already in the requested layout pass through
// unchanged. The receiver is not modified. A column's layout is always
// the caller's choice: nothing re-lays a column out on its own.
func (t *Table) WithLayout(f Format, names ...string) (*Table, error) {
	if _, err := builderFor(f); err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		if _, err := t.Column(n); err != nil {
			return nil, err
		}
		want[n] = true
	}
	cols := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		if len(names) > 0 && !want[c.Name()] {
			cols[i] = c
			continue
		}
		nc, err := c.withLayout(f)
		if err != nil {
			return nil, err
		}
		cols[i] = nc
	}
	return NewTable(cols...)
}

// withLayout rebuilds the column in the given layout, sharing the
// receiver's encoders.
func (c *Column) withLayout(f Format) (*Column, error) {
	if c.Format() == f {
		return c, nil
	}
	codes, err := materializeCodes(c)
	if err != nil {
		return nil, err
	}
	return newColumn(*c, c.Width(), codes, c.nullRows(), f, c.HasZoneMaps())
}

// Columns returns the table's columns in schema order. The slice is a
// fresh copy; the columns themselves are shared (they are immutable).
func (t *Table) Columns() []*Column {
	return append([]*Column(nil), t.cols...)
}

// Column returns the named column.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("byteslice: no column %q", name)
	}
	return c, nil
}

// Result is the outcome of a filter evaluation: one bit per row.
type Result struct {
	bv *bitvec.Vector
	// rows, when non-nil, lists bv's set bits ascending. Top keeps it so
	// that Count, Rows, OrderBy and the projections over its few rows
	// cost O(n) rather than a pass over bv; And and Or drop it.
	rows []int32
	// explain records the planner's decision (plan.Decision.Explain) for
	// the evaluation that produced this result; see Explain.
	explain string
	// zoneSkipped counts the segment evaluations the zone maps resolved
	// without touching column data during this evaluation (native path).
	zoneSkipped int
	// stats is the live observability collector for the evaluation, nil
	// when observability was disabled or the modelled path ran.
	stats *obs.Query
}

// Explain describes how the query was planned and executed: the predicate
// order with selectivity and zone-prune estimates, the chosen strategy
// with its cost candidates, and the worker-pool size. It is set by Filter,
// FilterAny and Query; results derived purely from bit-vector algebra
// (And/Or) keep the receiver's explain string. When the evaluation
// collected statistics, an "analyze" section with the executed stages —
// segments, zone pruning, early-stop depths, bytes, wall times — follows
// the plan.
func (r *Result) Explain() string {
	if r.stats == nil {
		return r.explain
	}
	a := r.stats.Snapshot().Analyze()
	if r.explain == "" {
		return a
	}
	return r.explain + "\n" + a
}

// Stats returns the evaluation's statistics snapshot: the planner's
// decision, per-stage segment/zone/byte counters, early-stop depth
// histograms, worker batches and wall times. It returns nil when the
// query ran with WithObservability(false) or on the modelled WithProfile
// path (whose evidence is the Profile's counters).
func (r *Result) Stats() *QueryStats {
	if r.stats == nil {
		return nil
	}
	return r.stats.Snapshot()
}

// ZoneSkipped returns the number of per-predicate segment evaluations that
// zone maps resolved without loading column data while computing this
// result (always 0 on the modelled WithProfile path, which reports its
// pruning through the profile's counters instead).
func (r *Result) ZoneSkipped() int { return r.zoneSkipped }

// Count returns the number of matching rows.
func (r *Result) Count() int {
	if r.rows != nil {
		return len(r.rows)
	}
	return r.bv.Count()
}

// Rows returns the matching record numbers in ascending order — the
// scan-to-lookup conversion of §2. The slice is the caller's.
func (r *Result) Rows() []int32 {
	if r.rows != nil {
		out := make([]int32, len(r.rows))
		copy(out, r.rows)
		return out
	}
	return r.bv.Positions(make([]int32, 0, r.bv.Count()))
}

// Contains reports whether row i matched.
func (r *Result) Contains(i int) bool { return r.bv.Get(i) }

// And intersects r with o in place and returns r.
func (r *Result) And(o *Result) *Result { r.rows = nil; r.bv.And(o.bv); return r }

// Or unions r with o in place and returns r.
func (r *Result) Or(o *Result) *Result { r.rows = nil; r.bv.Or(o.bv); return r }

// checkResult rejects a Result evaluated over a different row count —
// another table, or a view with rows appended since — whose bits would
// name rows this table does not have. A nil Result (all rows) passes.
func (t *Table) checkResult(res *Result) error {
	if res != nil && res.bv.Len() != t.n {
		return fmt.Errorf("byteslice: result covers %d rows, table has %d", res.bv.Len(), t.n)
	}
	return nil
}

// QueryOption customises filter evaluation.
type QueryOption func(*queryConfig)

type queryConfig struct {
	profile  *Profile
	strategy Strategy
	workers  int
	order    FilterOrder
	ctx      context.Context
	// noObs disables per-query statistics (WithObservability(false));
	// tracer receives span hooks per plan stage.
	noObs  bool
	tracer obs.Tracer
	// into, when set, is the zeroed t.n-bit vector the filter's result is
	// written into: a live view's prefix of its view-length result.
	into *bitvec.Vector
	// noExplain skips formatting the plan for a result whose Explain
	// nobody reads: a live view's delta parts.
	noExplain bool
}

// ctxErr reports the query's context error, if a context was attached and
// has been cancelled. The modelled path checks it between predicates and
// row batches (its engine loops are synchronous); the native path passes
// the context into the kernels, which check it per segment batch.
func (c *queryConfig) ctxErr() error {
	if c.ctx != nil && c.ctx.Err() != nil {
		return c.ctx.Err()
	}
	return nil
}

// native reports whether the query runs on the native SWAR fast path: no
// profile is attached, so nothing needs the modelled engine. Profiled
// queries always take the emulated path, keeping their instruction and
// cycle counts exactly reproducible.
func (c *queryConfig) native() bool { return c.profile == nil }

// minSegmentsPerWorker stops the default worker pool from fanning tiny
// columns out across goroutines: each worker should own at least this many
// 32-code segments (2048 codes) to amortise the spawn/join cost.
const minSegmentsPerWorker = 64

// nativeWorkers is the worker-pool size for a native kernel invocation
// over segs segments: an explicit WithParallelism wins; otherwise one
// worker per CPU, capped so every worker gets a meaningful chunk.
func (c *queryConfig) nativeWorkers(segs int) int {
	if c.workers > 0 {
		return c.workers
	}
	w := runtime.NumCPU()
	if max := segs / minSegmentsPerWorker; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// exec is the kernel execution descriptor for a native invocation over
// segs segments: the query's context, the nativeWorkers pool size and the
// stage (nil = uninstrumented).
func (c *queryConfig) exec(st *obs.Stage, segs int) kernel.Exec {
	return kernel.Exec{Ctx: c.ctx, Workers: c.nativeWorkers(segs), Stage: st}
}

// WithProfile records the evaluation's modelled execution metrics.
func WithProfile(p *Profile) QueryOption {
	return func(c *queryConfig) { c.profile = p }
}

// WithContext attaches a context to the evaluation. On the native path the
// context is observed inside the parallel kernels at segment-batch
// granularity (a cancelled multi-million-row scan stops within ~8K rows
// per worker); on the modelled path it is checked between predicates and
// projection batches. A cancelled query returns the context's error.
func WithContext(ctx context.Context) QueryOption {
	return func(c *queryConfig) { c.ctx = ctx }
}

// WithStrategy overrides the complex-predicate evaluation strategy.
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) { c.strategy = s }
}

// WithParallelism sets the number of worker goroutines used to evaluate
// the query (§4.1.4: ByteSlice segments are independent, so a column is
// partitioned across threads). On the native fast path (no Profile) it
// sizes the worker pool for every ByteSlice scan, pipelined scan,
// projection and aggregate of the query; the default there is already
// runtime.NumCPU(), so the option mainly pins an exact count. On the
// modelled path (WithProfile) it parallelises the driving (first)
// predicate's scan, subsequent pipelined predicates stay serial, and
// per-worker execution metrics are folded into the query profile.
func WithParallelism(workers int) QueryOption {
	return func(c *queryConfig) { c.workers = workers }
}

// Filter evaluates the conjunction (AND) of the given filters.
func (t *Table) Filter(filters []Filter, opts ...QueryOption) (*Result, error) {
	return t.eval(filters, false, opts)
}

// FilterAny evaluates the disjunction (OR) of the given filters.
func (t *Table) FilterAny(filters []Filter, opts ...QueryOption) (*Result, error) {
	return t.eval(filters, true, opts)
}

// resolved is a filter translated into code space.
type resolved struct {
	col  *Column
	pred layout.Predicate
	// matchAll marks a filter that is trivially true for every non-NULL
	// row of a nullable column: it has no predicate to scan, but it still
	// excludes the column's NULL rows (comparison with NULL is not true).
	matchAll bool
}

func (t *Table) eval(filters []Filter, disjunct bool, opts []QueryOption) (*Result, error) {
	return t.evalInto(filters, disjunct, opts, nil)
}

// evalInto is eval writing its result into into (see queryConfig.into),
// or into a new vector when into is nil.
func (t *Table) evalInto(filters []Filter, disjunct bool, opts []QueryOption, into *bitvec.Vector) (*Result, error) {
	if len(filters) == 0 {
		return nil, fmt.Errorf("byteslice: no filters")
	}
	cfg := queryConfig{into: into}
	for _, o := range opts {
		o(&cfg)
	}
	q := cfg.obsQuery()
	var t0 time.Time
	if q != nil {
		t0 = time.Now()
	}
	res, err := t.evalFiltered(filters, disjunct, &cfg, q)
	finishQuery(q, t0, err)
	if res != nil {
		res.stats = q
	}
	return res, err
}

func (t *Table) evalFiltered(filters []Filter, disjunct bool, cfgp *queryConfig, q *obs.Query) (*Result, error) {
	cfg := *cfgp
	e := cfg.profile.engine()
	result := func() *bitvec.Vector {
		if cfg.into != nil {
			return cfg.into
		}
		return bitvec.New(t.n)
	}

	rs := make([]resolved, 0, len(filters))
	for _, f := range filters {
		col, err := t.Column(f.Col)
		if err != nil {
			return nil, err
		}
		pred, trivial, err := col.predicate(f)
		if err != nil {
			return nil, err
		}
		// Trivial filters short-circuit, drop out, or — when the column is
		// nullable — degenerate to "every non-NULL row".
		if trivial != nil {
			switch {
			case !*trivial && !disjunct:
				// false AND … = false, NULLs notwithstanding.
				return &Result{bv: result()}, nil
			case !*trivial && disjunct:
				continue // false OR … : neutral
			case *trivial && col.nulls == nil:
				if disjunct {
					// true OR … = true.
					out := result()
					out.Fill()
					return &Result{bv: out}, nil
				}
				continue // true AND … : neutral
			default:
				// Trivially true on a nullable column: all non-NULL rows.
				rs = append(rs, resolved{col: col, matchAll: true})
				continue
			}
		}
		rs = append(rs, resolved{col: col, pred: pred})
	}
	if len(rs) == 0 {
		// All filters were neutral: AND of nothing = all rows; OR = none.
		out := result()
		if !disjunct {
			out.Fill()
		}
		return &Result{bv: out}, nil
	}

	anyNulls := false
	for _, r := range rs {
		if r.col.nulls != nil {
			anyNulls = true
			break
		}
	}

	pq := t.planQuery(rs, disjunct, anyNulls, &cfg)
	strategy := cfg.strategy
	if strategy == StrategyPredicateFirst && !pq.PredicateFirstOK {
		// Predicate-first pipelines uncondensed masks across columns;
		// per-column null clearing does not compose with it, so a pin on a
		// nullable table (or with a match-all pseudo predicate, or a
		// column that is not ByteSlice) runs baseline. The planner never
		// picks it there.
		strategy = StrategyBaseline
	}
	var explain string
	var zoneSkipped int
	if cfg.native() {
		// Cost-based planning replaces the static StrategyAuto resolution
		// on the native path: the planner orders the conjuncts (subsuming
		// the OrderBySelectivity sort), chooses the evaluation strategy
		// and sizes the worker pool from histogram selectivities, zone-map
		// prune rates and the measured kernel throughput constants.
		d := plan.Plan(pq, t.planPreds(rs))
		if cfg.order == OrderBySelectivity && len(rs) > 1 {
			ordered := make([]resolved, len(rs))
			for i, idx := range d.Order {
				ordered[i] = rs[idx]
			}
			rs = ordered
		}
		if strategy == StrategyAuto {
			strategy = d.Strategy
		} else {
			d.Pin(cfg.strategy, strategy)
		}
		if cfg.workers == 0 {
			cfg.workers = d.Workers
		}
		if !cfg.noExplain {
			explain = d.Explain()
		}
		if q != nil {
			q.SetPlan(explain, strategy.String(), d.Workers)
		}
	} else {
		if strategy == StrategyAuto {
			strategy = StrategyColumnFirst
		}
		// Evaluate the predicate expected to settle the most rows first:
		// the most selective one in a conjunction, the least selective in
		// a disjunction, so the pipelined scans skip the most segments.
		if cfg.order == OrderBySelectivity && len(rs) > 1 {
			sort.SliceStable(rs, func(i, j int) bool {
				si := rs[i].col.hist.estimate(rs[i].pred)
				sj := rs[j].col.hist.estimate(rs[j].pred)
				if disjunct {
					return si > sj
				}
				return si < sj
			})
		}
		explain = "plan: modelled path (WithProfile); strategy and order follow the paper's static policy"
	}

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}

	if strategy == StrategyPredicateFirst {
		// PredicateFirstOK held, so every column is ByteSlice.
		cols, preds, _ := allBS(rs)
		out := result()
		if cfg.native() {
			st, done := cfg.stage(q, "scan(multi)", "scan_multi")
			pruned, err := kernel.ScanMulti(cfg.exec(st, cols[0].Segments()), cols, preds, disjunct, out)
			done()
			if err != nil {
				return nil, queryErr(err)
			}
			zoneSkipped += pruned
		} else if disjunct {
			core.ScanDisjunctionPredicateFirst(e, cols, preds, out)
		} else {
			core.ScanConjunctionPredicateFirst(e, cols, preds, out)
		}
		return &Result{bv: out, explain: explain, zoneSkipped: zoneSkipped}, nil
	}

	acc := result()
	var cur *bitvec.Vector // from the second predicate on
	for i, r := range rs {
		// Between-predicate cancellation point: the modelled engine loops
		// are synchronous, so this is their only chance to observe ctx.
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		if i == 1 {
			cur = bitvec.New(t.n)
		}
		if r.matchAll {
			target := cur
			if i == 0 {
				target = acc
			}
			target.Fill()
			applyNulls(target, r.col)
			if i > 0 {
				if disjunct {
					acc.Or(cur)
				} else {
					acc.And(cur)
				}
			}
			continue
		}
		if i == 0 {
			if lk := nativeKernelOf(r.col); lk != nil && cfg.native() {
				// Native dispatch: the layout's registered SWAR kernel
				// (dispatch.go) runs with whatever metadata pruning the
				// layout carries — zone maps on ByteSlice, exact block
				// bounds on compressed, none on HBP.
				st, done := cfg.stage(q, "scan("+r.col.Name()+")", lk.scanKind(r.col))
				pruned, err := lk.scan(cfg.exec(st, lk.segments(r.col)), r.col, r.pred, nil, false, acc)
				done()
				if err != nil {
					return nil, queryErr(err)
				}
				zoneSkipped += pruned
				applyNulls(acc, r.col)
				continue
			}
			bs, isBS := byteSliceOf(r.col.data)
			switch {
			case isBS && cfg.workers > 1:
				for _, wp := range bs.ParallelScan(r.pred, cfg.workers, acc) {
					if cfg.profile != nil {
						cfg.profile.p.Merge(wp)
					}
				}
			case isBS && bs.HasZoneMaps():
				bs.ScanZoned(e, r.pred, acc)
			default:
				r.col.data.Scan(e, r.pred, acc)
			}
			applyNulls(acc, r.col)
			continue
		}
		if strategy == StrategyColumnFirst {
			// Conjunctive pipelining composes with null clearing (rows
			// NULL in this column drop out of prev AND scan afterwards);
			// disjunctive pipelining does not, so a nullable column in a
			// disjunction is scanned separately. Layouts without a native
			// pipelined kernel (compressed, HBP) fall through to an
			// independent scan combined through the bit vector.
			if lk := nativeKernelOf(r.col); lk != nil && lk.pipelined && cfg.native() && !(disjunct && r.col.nulls != nil) {
				st, done := cfg.stage(q, "scan("+r.col.Name()+")", "pipelined")
				pruned, err := lk.scan(cfg.exec(st, lk.segments(r.col)), r.col, r.pred, acc, disjunct, cur)
				done()
				if err != nil {
					return nil, queryErr(err)
				}
				zoneSkipped += pruned
				if !disjunct {
					applyNulls(cur, r.col)
				}
				acc, cur = cur, acc
				continue
			}
			if p, ok := r.col.data.(layout.Pipelined); ok && !(cfg.native() && nativeKernelOf(r.col) != nil) && !(disjunct && r.col.nulls != nil) {
				p.ScanPipelined(e, r.pred, acc, disjunct, cur)
				if !disjunct {
					applyNulls(cur, r.col)
				}
				acc, cur = cur, acc
				continue
			}
		}
		if lk := nativeKernelOf(r.col); lk != nil && cfg.native() {
			// Independent native scan through the layout dispatch table;
			// the result combines through the bit vector.
			st, done := cfg.stage(q, "scan("+r.col.Name()+")", lk.scanKind(r.col))
			pruned, err := lk.scan(cfg.exec(st, lk.segments(r.col)), r.col, r.pred, nil, false, cur)
			done()
			if err != nil {
				return nil, queryErr(err)
			}
			zoneSkipped += pruned
		} else if bs, isBS := byteSliceOf(r.col.data); isBS && bs.HasZoneMaps() {
			bs.ScanZoned(e, r.pred, cur)
		} else {
			r.col.data.Scan(e, r.pred, cur)
		}
		applyNulls(cur, r.col)
		if disjunct {
			acc.Or(cur)
		} else {
			acc.And(cur)
		}
	}
	if cfg.into != nil && acc != cfg.into {
		// Pipelined conjuncts swap acc and cur: the answer ended in the
		// other vector.
		copy(cfg.into.Words(), acc.Words())
		acc = cfg.into
	}
	return &Result{bv: acc, explain: explain, zoneSkipped: zoneSkipped}, nil
}

// planQuery gathers the query-level inputs for the cost-based planner.
func (t *Table) planQuery(rs []resolved, disjunct, anyNulls bool, cfg *queryConfig) plan.Query {
	pfOK := !anyNulls
	for _, r := range rs {
		if r.matchAll {
			pfOK = false
			break
		}
	}
	if pfOK {
		if _, _, ok := allBS(rs); !ok {
			pfOK = false
		}
	}
	return plan.Query{
		Rows:             t.n,
		Segments:         (t.n + core.SegmentSize - 1) / core.SegmentSize,
		Disjunct:         disjunct,
		PredicateFirstOK: pfOK,
		Workers:          cfg.workers,
		MaxWorkers:       runtime.NumCPU(),
	}
}

// planPreds gathers the per-conjunct statistics for the planner: histogram
// selectivity estimates, byte-slice widths and zone-map prune rates.
// Match-all pseudo predicates become free (Slices=0, Sel=1) entries so the
// order still covers every resolved filter.
func (t *Table) planPreds(rs []resolved) []plan.Pred {
	preds := make([]plan.Pred, len(rs))
	for i, r := range rs {
		p := plan.Pred{Col: r.col.Name(), Sel: 1}
		if !r.matchAll {
			p.Sel = r.col.hist.estimate(r.pred)
			p.Slices = (r.col.Width() + 7) / 8
			if bs, ok := byteSliceOf(r.col.data); ok && bs.HasZoneMaps() {
				p.HasZoneMap = true
				p.ZonePrune = bs.ZonePruneRate(r.pred)
			}
			if cc, ok := compressedOf(r.col.data); ok {
				p.Compressed = true
				p.CompBytesPerRow = cc.BytesPerRow()
				p.BlockPrune = cc.PruneEstimate()
				p.Uniform1 = cc.Uniform1Frac()
			}
		}
		preds[i] = p
	}
	return preds
}

func allBS(rs []resolved) ([]*core.ByteSlice, []layout.Predicate, bool) {
	cols := make([]*core.ByteSlice, len(rs))
	preds := make([]layout.Predicate, len(rs))
	for i, r := range rs {
		b, ok := byteSliceOf(r.col.data)
		if !ok {
			return nil, nil, false
		}
		cols[i] = b
		preds[i] = r.pred
	}
	return cols, preds, true
}

// ProjectInt decodes an integer column's values for the matching rows
// (NULL rows of the projected column are skipped; their row numbers are
// omitted from the parallel Rows slice returned alongside).
func (t *Table) ProjectInt(col string, res *Result, opts ...QueryOption) ([]int32, []int64, error) {
	c, err := t.aggColumn(col, KindInt)
	if err != nil {
		return nil, nil, err
	}
	rows, codes, err := t.projectCodes(c, res, opts)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]int64, len(codes))
	for i, code := range codes {
		vals[i] = c.ints.Decode(code)
	}
	return rows, vals, nil
}

// ProjectDecimal decodes a decimal column's values for the matching rows.
func (t *Table) ProjectDecimal(col string, res *Result, opts ...QueryOption) ([]int32, []float64, error) {
	c, err := t.aggColumn(col, KindDecimal)
	if err != nil {
		return nil, nil, err
	}
	rows, codes, err := t.projectCodes(c, res, opts)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]float64, len(codes))
	for i, code := range codes {
		vals[i] = c.decs.Decode(code)
	}
	return rows, vals, nil
}

// ProjectString decodes a string column's values for the matching rows.
func (t *Table) ProjectString(col string, res *Result, opts ...QueryOption) ([]int32, []string, error) {
	c, err := t.aggColumn(col, KindString)
	if err != nil {
		return nil, nil, err
	}
	rows, codes, err := t.projectCodes(c, res, opts)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]string, len(codes))
	for i, code := range codes {
		vals[i] = c.dict.Decode(code)
	}
	return rows, vals, nil
}

// projectCodes looks up a column's codes for the non-NULL matching rows —
// the scan-to-lookup conversion of §2, feeding an array of a standard
// type. Without a profile, ByteSlice columns stitch codes natively (and in
// parallel across row chunks when the query is parallel); profiled runs
// keep the modelled per-lookup engine path.
func (t *Table) projectCodes(c *Column, res *Result, opts []QueryOption) ([]int32, []uint32, error) {
	if res == nil {
		return nil, nil, fmt.Errorf("byteslice: projection needs a filter result")
	}
	if err := t.checkResult(res); err != nil {
		return nil, nil, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	rows := c.dropNulls(res.Rows())
	codes := make([]uint32, len(rows))
	if lk := nativeKernelOf(c); lk != nil && cfg.native() {
		// Native projection through the layout dispatch table: ByteSlice
		// stitches, HBP extracts banks, compressed decodes each ascending
		// block once. The stage lands in the filter result's collector, so
		// res.Stats() after a projection shows scan and lookup together.
		st, done := cfg.stage(cfg.resQuery(res), "project("+c.Name()+")", "project")
		defer done()
		if err := cfg.ctxErr(); err != nil {
			return nil, nil, err
		}
		// Row-chunk fan-out only on an explicit WithParallelism, and only
		// while every worker still gets minSegmentsPerWorker segments' worth
		// of rows.
		workers := cfg.workers
		if max := len(rows) / (minSegmentsPerWorker * core.SegmentSize); workers > max {
			workers = max
		}
		x := kernel.Exec{Ctx: cfg.ctx, Workers: workers, Stage: st}
		if err := lk.lookupMany(x, c, rows, codes); err != nil {
			return nil, nil, queryErr(err)
		}
		return rows, codes, nil
	}
	e := cfg.profile.engine()
	for i, r := range rows {
		// Modelled per-lookup path: observe cancellation between row
		// batches so a huge profiled projection can still be stopped.
		if i%8192 == 0 {
			if err := cfg.ctxErr(); err != nil {
				return nil, nil, err
			}
		}
		codes[i] = c.data.Lookup(e, int(r))
	}
	return rows, codes, nil
}

// OrderBy returns the matching rows sorted by the named column's values in
// ascending order (ties keep row order). NULL rows of the sort column are
// excluded. Natively the survivors' codes are gathered through the
// layout's lookup kernel and radix-sorted; the modelled WithProfile path
// sorts ByteSlice columns with the §6 radix sort over byte slices
// (sortpart) and other formats with a comparison sort on looked-up codes.
func (t *Table) OrderBy(col string, res *Result, opts ...QueryOption) ([]int32, error) {
	c, err := t.Column(col)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("byteslice: OrderBy needs a filter result")
	}
	if err := t.checkResult(res); err != nil {
		return nil, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	rows := c.dropNulls(res.Rows())
	if len(rows) == 0 {
		return rows, nil
	}
	st, done := cfg.stage(cfg.resQuery(res), "orderby("+col+")", "orderby")
	if st != nil {
		st.AddRows(int64(len(rows)), int64(len(rows))*int64((c.Width()+7)/8))
	}
	defer done()
	return sortRows(c, rows, &cfg)
}

// sortRows orders rows (ascending, none NULL in c) by c's codes, ties in
// row order; rows is not modified.
func sortRows(c *Column, rows []int32, cfg *queryConfig) ([]int32, error) {
	if cfg.native() {
		x := kernel.Exec{Ctx: cfg.ctx}
		codes := make([]uint32, len(rows))
		if err := gatherRows(x, c, rows, codes); err != nil {
			return nil, err
		}
		out, err := kernel.SortCodes(x, codes, c.Width(), rows)
		return out, queryErr(err)
	}
	// Modelled path: materialise the survivors' codes with per-row engine
	// lookups, then radix-sort ByteSlice codes over their byte slices.
	e := cfg.profile.engine()
	codes := make([]uint32, len(rows))
	for i, r := range rows {
		codes[i] = c.data.Lookup(e, int(r))
	}
	var order []int32
	if _, ok := byteSliceOf(c.data); ok {
		order = sortpart.Sort(e, core.New(codes, c.Width(), nil))
	} else {
		order = make([]int32, len(rows))
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(i, j int) bool { return codes[order[i]] < codes[order[j]] })
	}
	out := make([]int32, len(rows))
	for i, idx := range order {
		out[i] = rows[idx]
	}
	return out, nil
}

// Top returns the rows OrderBy(col, res) lists first — at most n of them,
// ties in row order, NULLs of col excluded — as a Result; col == "" keeps
// the first n matches in row order. The Result remembers its ascending
// row list, so Count, Rows, OrderBy and the projections over it cost O(n)
// rather than a pass over the table's bit vector (And and Or drop the
// list). It shares res's explain and statistics collector, so the stages
// run over it appear in res.Explain as well. Picking the rows is the
// OrderBy sort over the survivors — native or modelled, as the options
// say — truncated to n.
func (t *Table) Top(col string, res *Result, n int, opts ...QueryOption) (*Result, error) {
	var c *Column
	if col != "" {
		var err error
		if c, err = t.Column(col); err != nil {
			return nil, err
		}
	}
	if res == nil {
		return nil, fmt.Errorf("byteslice: Top needs a filter result")
	}
	if n < 0 {
		return nil, fmt.Errorf("byteslice: Top needs n >= 0, got %d", n)
	}
	if err := t.checkResult(res); err != nil {
		return nil, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	rows := res.Rows()
	if c != nil {
		rows = c.dropNulls(rows)
	}
	st, done := cfg.stage(cfg.resQuery(res), "top("+col+")", "top")
	kept, err := topRows(c, rows, n, &cfg, st)
	done()
	if err != nil {
		return nil, err
	}
	// The bits keep Contains, And, Or and the aggregates over out exact.
	out := &Result{bv: bitvec.New(t.n), rows: kept, explain: res.explain, zoneSkipped: res.zoneSkipped, stats: res.stats}
	for _, r := range kept {
		out.bv.Set(int(r), true)
	}
	return out, nil
}

// topRows picks Top's kept rows, ascending and never nil, out of the
// candidate rows (ascending, none NULL in c; c == nil keeps row order),
// and records the rows in, the rows kept and the column bytes read on st.
func topRows(c *Column, rows []int32, n int, cfg *queryConfig, st *obs.Stage) ([]int32, error) {
	kept := rows
	var read int64 // none when n or row order decides
	if n < len(rows) {
		if c == nil {
			kept = append(make([]int32, 0, n), rows[:n]...)
		} else {
			order, err := sortRows(c, rows, cfg)
			if err != nil {
				return nil, err
			}
			kept = append(make([]int32, 0, n), order[:n]...)
			slices.Sort(kept)
			read = int64(len(rows)) * int64((c.Width()+7)/8)
		}
	}
	if st != nil {
		st.AddRows(int64(len(rows)), read)
		st.AddKept(int64(len(kept)))
	}
	return kept, nil
}
