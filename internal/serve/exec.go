package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"byteslice"
	"byteslice/internal/bitvec"
)

// defaultRowLimit caps op "rows" output when the request names no limit.
const defaultRowLimit = 100

// Do runs one request end to end: admission, binding, deadline, cache,
// scheduling, execution, accounting. ctx is the transport's context
// (client disconnect); the per-query deadline is layered on top of it.
//
//bsvet:builder Do stamps per-request fields on a fresh shallow copy
func (s *Server) Do(ctx context.Context, req *Request) (*Response, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	tenant, ts := s.tenantStats(req.Tenant)

	// Admission first: a rejected request must cost nothing — no worker
	// lanes, no binding, no cache probe.
	if !s.adm.tryAcquire() {
		s.stats().Overloads.Add(1)
		ts.Overloads.Add(1)
		return nil, ErrOverloaded
	}
	defer s.adm.release()
	s.stats().Admitted.Add(1)
	ts.Queries.Add(1)
	s.stats().Inflight.Add(1)
	defer s.stats().Inflight.Add(-1)

	start := time.Now()
	resp, err := s.exec(ctx, req, tenant)
	elapsed := time.Since(start)
	ts.QueryNs.Observe(elapsed.Nanoseconds())
	if err != nil {
		ts.Errors.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			s.stats().Deadlines.Add(1)
		}
		return nil, err
	}
	resp.Tenant = tenant
	resp.ElapsedMs = float64(elapsed.Nanoseconds()) / 1e6
	ts.RowsReturned.Add(int64(len(resp.RowIDs)))
	switch resp.Cache {
	case "hit":
		ts.CacheHits.Add(1)
	case "miss":
		ts.CacheMisses.Add(1)
	}
	return resp, nil
}

// exec runs the admitted request. The returned Response has every field
// set except Tenant and ElapsedMs (stamped per request by Do, including
// on cache hits).
//
//bsvet:builder exec constructs the Response it returns
func (s *Server) exec(ctx context.Context, req *Request, tenant string) (*Response, error) {
	b, err := s.cat.bind(req.Table)
	if err != nil {
		return nil, err
	}
	if b.live {
		// Refused before the cache probe and the lanes: a live mount's
		// delta rows live outside the facade table these need.
		if err := req.liveUnsupported(); err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithTimeout(ctx, s.deadline(req.TimeoutMs))
	defer cancel()
	if s.testHook != nil {
		s.testHook(ctx)
	}
	// A dead context fails here, before the cache or the pool: an expired
	// deadline must never produce a result, not even a cached one.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Cache probe. Explain output is per-execution (worker counts, stage
	// timings), so explain requests bypass; the canonical query string is
	// also the bad-predicate fast path — a malformed tree fails here
	// before any lanes are claimed.
	wantExplain := s.cfg.Explain && req.Explain
	mode := "off"
	var key cacheKey
	if s.cache != nil {
		query, err := req.cacheKeyQuery()
		if err != nil {
			return nil, err
		}
		if req.NoCache || wantExplain {
			mode = "bypass"
			s.stats().CacheBypass.Add(1)
		} else {
			key = cacheKey{table: req.Table, epoch: b.epoch, rows: b.rows, query: query}
			if cached, ok := s.cache.get(key); ok {
				s.stats().CacheHits.Add(1)
				hit := *cached
				hit.Cache = "hit"
				return &hit, nil
			}
			mode = "miss"
			s.stats().CacheMisses.Add(1)
		}
	}

	expr, err := buildExpr(b.schema(), req.Where)
	if err != nil {
		return nil, err
	}

	// One fair share of the pool for the whole request: the filter and
	// any aggregate after it run at the same width.
	granted, workers := s.pool.acquire(s.fairShare())
	defer s.pool.release(granted)
	opts := []byteslice.QueryOption{
		byteslice.WithContext(ctx),
		byteslice.WithParallelism(workers),
	}

	res, err := b.query(expr, opts...)
	if err != nil {
		return nil, err
	}
	// The response below copies what it needs out of res, so the result
	// vector goes back to the table for the next request when exec ends.
	defer bitvec.Release(res)

	resp := &Response{Table: req.Table, Epoch: b.epoch, Rows: b.rows, Count: res.Count(), Cache: mode}
	switch req.Op {
	case "", "count":
	case "rows":
		if err := s.execRows(req, b, res, resp, opts); err != nil {
			return nil, err
		}
	default:
		if err := s.execAggregate(req, b, res, resp, opts); err != nil {
			return nil, err
		}
	}
	if wantExplain {
		resp.Explain = res.Explain()
	}
	// One pass renders the body up to its checksum and hashes the
	// checksum text; /query writes the rendered bytes.
	bp := bodyPool.Get().(*[]byte)
	var sum uint64
	var ok bool
	*bp, sum, ok = appendContent((*bp)[:0], resp, true)
	resp.Checksum = checksumHex(sum)
	if ok {
		resp.body = bp
	} else {
		putBody(bp)
	}
	if mode == "miss" {
		// Store a copy: Do stamps per-request fields (tenant, elapsed) on
		// the returned response, and the cached object must stay frozen —
		// concurrent hits read it without locks. The slices and maps
		// inside are shared but never mutated after this point; the
		// render buffer is this request's alone.
		stored := *resp
		stored.body = nil
		s.cache.put(key, &stored)
	}
	return resp, nil
}

// execRows materialises op "rows": the matching row ids (ordered when
// asked, capped by the limit) plus the requested projected columns, read
// for the kept rows only. Projections need the immutable facade table;
// live ingest bindings support ids only (exec refuses the rest).
//
//bsvet:builder execRows fills the under-construction Response
func (s *Server) execRows(req *Request, b binding, res *byteslice.Result, resp *Response, opts []byteslice.QueryOption) error {
	limit := req.Limit
	if limit == 0 {
		limit = defaultRowLimit
	}
	if limit < 0 {
		limit = res.Count()
	}
	if b.live {
		ids := res.Rows()
		if len(ids) > limit {
			// A copy, so a cached answer does not pin every match.
			ids = append(make([]int32, 0, limit), ids[:limit]...)
		}
		resp.RowIDs = ids
		return nil
	}

	kept, err := b.tbl.Top(req.OrderBy, res, limit, opts...)
	if err != nil {
		return wrapFacadeErr(err)
	}
	if req.OrderBy != "" {
		if resp.RowIDs, err = b.tbl.OrderBy(req.OrderBy, kept, opts...); err != nil {
			return wrapFacadeErr(err)
		}
	} else {
		resp.RowIDs = kept.Rows()
	}

	if len(req.Cols) == 0 {
		return nil
	}
	resp.Data = make(map[string]*ColumnData, len(req.Cols))
	for _, name := range req.Cols {
		col, err := b.tbl.Column(name)
		if err != nil {
			return badQueryErr(err)
		}
		d := &ColumnData{digits: col.Digits()}
		switch col.Kind() {
		case byteslice.KindInt:
			d.Rows, d.Ints, err = b.tbl.ProjectInt(name, kept, opts...)
		case byteslice.KindDecimal:
			d.Rows, d.Decimals, err = b.tbl.ProjectDecimal(name, kept, opts...)
		case byteslice.KindString:
			d.Rows, d.Strings, err = b.tbl.ProjectString(name, kept, opts...)
		default:
			return errUnsupported("column %s: kind has no projection", name)
		}
		if err != nil {
			return wrapFacadeErr(err)
		}
		if len(d.Rows) == 0 {
			*d = ColumnData{} // no kept row has a value: "rows": null
		}
		resp.Data[name] = d
	}
	return nil
}

// execAggregate runs sum/avg/min/max over Col, restricted to the filter
// result, on the facade table (exec refuses them on a live mount).
//
//bsvet:builder execAggregate fills the under-construction Response
func (s *Server) execAggregate(req *Request, b binding, res *byteslice.Result, resp *Response, opts []byteslice.QueryOption) error {
	col, err := b.tbl.Column(req.Col)
	if err != nil {
		return badQueryErr(err)
	}

	switch req.Op {
	case "sum", "avg":
		switch col.Kind() {
		case byteslice.KindInt:
			sum, count, err := b.tbl.SumInt(req.Col, res, opts...)
			if err != nil {
				return wrapFacadeErr(err)
			}
			if req.Op == "avg" {
				if count > 0 {
					v := float64(sum) / float64(count)
					resp.Value = &v
				}
			} else {
				resp.IntValue = &sum
			}
		case byteslice.KindDecimal:
			sum, count, err := b.tbl.SumDecimal(req.Col, res, opts...)
			if err != nil {
				return wrapFacadeErr(err)
			}
			if req.Op == "avg" {
				if count > 0 {
					v := sum / float64(count)
					resp.Value = &v
				}
			} else {
				resp.Value = &sum
			}
		default:
			return badQuery("op %q needs a numeric column, %s is not", req.Op, req.Col)
		}
	case "min", "max":
		isMin := req.Op == "min"
		switch col.Kind() {
		case byteslice.KindInt:
			v, ok, err := extremeInt(b.tbl, req.Col, res, isMin, opts)
			if err != nil {
				return wrapFacadeErr(err)
			}
			if ok {
				resp.IntValue = &v
			}
		case byteslice.KindDecimal:
			v, ok, err := extremeDecimal(b.tbl, req.Col, res, isMin, opts)
			if err != nil {
				return wrapFacadeErr(err)
			}
			if ok {
				resp.Value = &v
			}
		case byteslice.KindString:
			v, ok, err := extremeString(b.tbl, req.Col, res, isMin, opts)
			if err != nil {
				return wrapFacadeErr(err)
			}
			if ok {
				resp.StrValue = &v
			}
		default:
			return badQuery("op %q does not apply to column %s", req.Op, req.Col)
		}
	}
	return nil
}

func extremeInt(t *byteslice.Table, col string, res *byteslice.Result, isMin bool, opts []byteslice.QueryOption) (int64, bool, error) {
	if isMin {
		return t.MinInt(col, res, opts...)
	}
	return t.MaxInt(col, res, opts...)
}

func extremeDecimal(t *byteslice.Table, col string, res *byteslice.Result, isMin bool, opts []byteslice.QueryOption) (float64, bool, error) {
	if isMin {
		return t.MinDecimal(col, res, opts...)
	}
	return t.MaxDecimal(col, res, opts...)
}

func extremeString(t *byteslice.Table, col string, res *byteslice.Result, isMin bool, opts []byteslice.QueryOption) (string, bool, error) {
	if isMin {
		return t.MinString(col, res, opts...)
	}
	return t.MaxString(col, res, opts...)
}

// wrapFacadeErr passes context errors (deadline/cancel codes) and kernel
// faults (internal) through untouched and tags everything else — unknown
// columns, kind mismatches — as a bad query.
func wrapFacadeErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		errors.Is(err, byteslice.ErrQueryFault) {
		return err
	}
	return badQueryErr(err)
}

// errUnsupported wraps an operation the binding cannot run.
func errUnsupported(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}
