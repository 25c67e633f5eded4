package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"byteslice"
	"byteslice/internal/obs"
	"byteslice/internal/serve"
)

// traced produces the per-layer metrics. The HTTP window already ran
// untraced; this replays the same request streams three ways, each call
// into a layer timed from the benchmark's own code:
//
//   - serve: DecodeRequest → Server.Do → JSON encode, the handler's
//     steps without HTTP, on a fresh server over the same data;
//   - facade: Table.Query (or Pinned.Query), then the aggregate, count,
//     OrderBy or Project* calls serve would make, with WithTracer
//     stage spans from the planner's kernels;
//   - ingest: OpenIngest, Append on the writer schedule and MergeNow on
//     a benchmark-owned IngestTable. ingest_live's reader runs its
//     facade replay against this table while the writer appends.
//
// Replay clients match the window's: two query clients (one reader on
// ingest_live), each at one worker.
func traced(ctx context.Context, cfg config, res *result, a *phaseA, snapPath, tmpl, work string, log io.Writer) error {
	live := cfg.workload == "ingest_live"
	res.Layers = map[string]float64{}
	a.layerReport(res)
	t0 := time.Now()
	setup := newRecorder(t0, 0)

	loadPath := snapPath
	if live {
		bases, _ := filepath.Glob(filepath.Join(tmpl, "base-*.bslc"))
		if len(bases) != 1 {
			return fmt.Errorf("ingest template holds %d base snapshots", len(bases))
		}
		loadPath = bases[0]
	}
	info, err := os.Stat(loadPath)
	if err != nil {
		return err
	}
	setup.request()
	end := setup.begin("persist.load")
	t := time.Now()
	tbl, err := byteslice.LoadFile(loadPath)
	loadS := time.Since(t).Seconds()
	end()
	if err != nil {
		return err
	}
	res.Layers["persist.load_mb_per_s"] = float64(info.Size()) / (1 << 20) / loadS

	readers := maxConns
	mount := func(c *serve.Catalog) error { return c.MountTable(table, tbl) }
	if live {
		readers = 1
		dir := filepath.Join(work, "replay-serve")
		if err := copyDir(dir, tmpl); err != nil {
			return err
		}
		mount = func(c *serve.Catalog) error { return c.MountIngest(table, dir) }
	}
	sr, err := serveReplay(ctx, cfg, mount, readers, live, t0)
	if err != nil {
		return fmt.Errorf("serve replay: %w", err)
	}
	sr.report(res)
	layerTable(log, "serve replay", sr.spans)

	var fr *facadeRun
	if !live {
		v := view{query: tbl.Query, tbl: tbl, rows: tbl.Len()}
		if fr, err = facadeClients(ctx, cfg, readers, t0, time.Now().Add(cfg.window/2), func() view { return v }); err != nil {
			return fmt.Errorf("facade replay: %w", err)
		}
		// Every traced run also times the ingest layer, on the same
		// prepared directory ingest_live mounts.
		tmpl = filepath.Join(work, "replay-template")
		if _, err := prepareIngest(tmpl, newIngestRows(cfg.seed, cfg.ingestBase, cfg.ingestReplay)); err != nil {
			return err
		}
	}
	ig, err := ingestReplay(ctx, cfg, tmpl, filepath.Join(work, "replay-ingest"), live, t0, setup)
	if err != nil {
		return fmt.Errorf("ingest replay: %w", err)
	}
	if live {
		fr = ig.reader
	}
	fr.report(res)
	layerTable(log, "facade replay", fr.spans)
	ig.report(res, a)
	layerTable(log, "ingest replay", ig.spans)
	layerTable(log, "set-up calls", setup.spans)

	res.spans = append(append(append(setup.spans, sr.spans...), fr.spans...), ig.spans...)
	return nil
}

// layerReport derives the per-layer counters of the HTTP window from the
// registry /stats serves and the runtime's own accounting.
func (a *phaseA) layerReport(res *result) {
	b, e := a.before, a.after
	hits := e.reg.Serve.CacheHits - b.reg.Serve.CacheHits
	probes := hits + e.reg.Serve.CacheMisses - b.reg.Serve.CacheMisses
	res.Layers["serve.cache_hit_ratio"] = float64(hits) / float64(max(probes, 1))
	res.Layers["serve.overloads"] = float64(e.reg.Serve.Overloads - b.reg.Serve.Overloads)
	res.Layers["ingest.merges"] = float64(e.reg.Ingest.Merges - b.reg.Ingest.Merges)
	res.Layers["ingest.backpressure"] = float64(e.reg.Ingest.Backpressure - b.reg.Ingest.Backpressure)

	var ok, reqs int
	var respBytes int64
	var matched, returned int
	for _, cr := range a.clients {
		ok += cr.attempted - cr.failed
		reqs += cr.attempted
		respBytes += cr.bytes
		for _, s := range cr.samples {
			if s.q.op != "rows" {
				continue
			}
			var r serve.Response
			if json.Unmarshal(s.resp, &r) == nil {
				matched += r.Count
				returned += len(r.RowIDs)
			}
		}
	}
	reqs += a.writer.attempted
	res.Layers["serve.response_bytes"] = float64(respBytes) / float64(max(ok, 1))
	res.Layers["serve.rows_materialised_per_returned"] = float64(matched) / float64(max(returned, 1))

	n := float64(max(reqs, 1))
	res.Layers["runtime.alloc_kb_per_req"] = float64(e.mem.TotalAlloc-b.mem.TotalAlloc) / 1024 / n
	res.Layers["runtime.gc_pause_ms"] = float64(e.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	res.Layers["runtime.gc_cycles"] = float64(e.mem.NumGC - b.mem.NumGC)
	res.Layers["runtime.cpu_ms_per_req"] = float64(e.cpuNs-b.cpuNs) / 1e6 / n
	res.Layers["bench.read_gbps"] = res.Env.ReadGBps
}

// serveRun is the handler-replica replay. Requests alternate between
// traced and untraced blocks so the tracing overhead is measured under
// the same conditions.
type serveRun struct {
	spans            []span
	traced, untraced []float64 // ms per request, decode through encode
	exec             []float64 // each response's elapsed_ms
}

// serveReplay replays the query streams through DecodeRequest, Do and
// encode. On a live mount the writer schedule keeps appending through
// the server's /append handler meanwhile, as in the window.
func serveReplay(ctx context.Context, cfg config, mount func(*serve.Catalog) error, readers int, live bool, t0 time.Time) (*serveRun, error) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	if err := mount(srv.Catalog()); err != nil {
		return nil, err
	}
	if cfg.workload == "dashboard_hot" {
		for _, q := range dashboardQueries(cfg.seed) {
			req, err := serve.DecodeRequest(q.body(table))
			if err == nil {
				_, err = srv.Do(ctx, req)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	runs := make([]serveRun, readers)
	errs := make([]error, readers+1)
	win := newWindow(0, cfg.window/2)
	clients := readers
	if live {
		clients++
	}
	runClients(clients, func(i int) {
		if i == readers {
			errs[i] = handlerAppends(ctx, cfg.seed, srv.Handler(), win)
			return
		}
		rec := newRecorder(t0, 10+i)
		next := newStream(cfg.workload, cfg.seed, i)
		var buf bytes.Buffer
		r := &runs[i]
		for n := 0; n < cfg.maxReplay && ctx.Err() == nil && time.Now().Before(win.end); n++ {
			body := next().body(table)
			// Blocks of 12 hold every template of every workload equally
			// often, so traced and untraced requests see the same mix.
			on := n/12%2 == 0
			begin := func(name string) func() {
				if on {
					return rec.begin(name)
				}
				return func() {}
			}
			if on {
				rec.request()
			}
			t := time.Now()
			endReq := begin("request")
			end := begin("serve.decode")
			req, err := serve.DecodeRequest(body)
			end()
			var resp *serve.Response
			if err == nil {
				end = begin("serve.do")
				resp, err = srv.Do(ctx, req)
				end()
			}
			if err == nil {
				end = begin("serve.encode")
				buf.Reset()
				err = json.NewEncoder(&buf).Encode(resp)
				end()
			}
			endReq()
			total := ms(time.Since(t))
			if err != nil {
				errs[i] = err
				return
			}
			if on {
				r.traced = append(r.traced, total)
			} else {
				r.untraced = append(r.untraced, total)
			}
			r.exec = append(r.exec, resp.ElapsedMs)
		}
		r.spans = rec.spans
	})
	out := &serveRun{}
	if err := errs[readers]; err != nil {
		return nil, err
	}
	for i, r := range runs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.spans = append(out.spans, r.spans...)
		out.traced = append(out.traced, r.traced...)
		out.untraced = append(out.untraced, r.untraced...)
		out.exec = append(out.exec, r.exec...)
	}
	return out, nil
}

// handlerAppends posts the writer schedule's batches straight to the
// server's handler.
func handlerAppends(ctx context.Context, seed uint64, h http.Handler, win window) error {
	r := newRNG(seed, streamWriter)
	var first error
	schedule(ctx, win, func() error {
		_, body := nextBatch(r)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", bytes.NewReader(body)))
		var err error
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("append: status %d: %s", rec.Code, rec.Body)
		}
		if err != nil && first == nil {
			first = err
		}
		return err
	})
	return first
}

func (sr *serveRun) report(res *result) {
	do := spanMicros(sr.spans, "serve.do")
	res.Layers["serve.decode_us"] = quantile(spanMicros(sr.spans, "serve.decode"), 0.5)
	res.Layers["serve.do_us"] = quantile(do, 0.5)
	res.Layers["serve.do_us_p99"] = tailOrMax(do, 0.99)
	res.Layers["serve.encode_us"] = quantile(spanMicros(sr.spans, "serve.encode"), 0.5)
	res.Layers["serve.exec_ms"] = median(sr.exec)
	untraced := median(sr.untraced)
	res.Layers["serve.http_us"] = (res.E2E["p50_ms"] - untraced) * 1e3
	res.Layers["bench.trace_overhead_pct"] = (median(sr.traced) - untraced) / untraced * 100
}

// spanMicros returns the sorted durations, in µs, of the spans named name.
func spanMicros(spans []span, name string) []float64 {
	var us []float64
	for _, s := range spans {
		if s.Name == name {
			us = append(us, float64(s.dur())/1e3)
		}
	}
	return sorted(us)
}

// view is what one facade request runs against: a snapshot table, or a
// pinned live view (which serves counts and id lists only, as serve does).
type view struct {
	query func(byteslice.Expr, ...byteslice.QueryOption) (*byteslice.Result, error)
	tbl   *byteslice.Table // nil for a live view
	rows  int
	delta int
}

// facadeRun is one facade replay: spans plus the kernel counters the
// query results' Stats report.
type facadeRun struct {
	spans                   []span
	rows, bytes, segs, zone int64
	deltas                  []float64
}

func (fr *facadeRun) merge(o *facadeRun) {
	fr.spans = append(fr.spans, o.spans...)
	fr.rows += o.rows
	fr.bytes += o.bytes
	fr.segs += o.segs
	fr.zone += o.zone
	fr.deltas = append(fr.deltas, o.deltas...)
}

// facadeClients runs the workload's streams directly on the facade, one
// worker per client, until stop; at gives each request its view.
func facadeClients(ctx context.Context, cfg config, readers int, t0, stop time.Time, at func() view) (*facadeRun, error) {
	runs := make([]facadeRun, readers)
	errs := make([]error, readers)
	runClients(readers, func(i int) {
		rec := newRecorder(t0, 20+i)
		next := newStream(cfg.workload, cfg.seed, i)
		for n := 0; n < cfg.maxReplay && ctx.Err() == nil && time.Now().Before(stop); n++ {
			v := at()
			if v.tbl == nil {
				runs[i].deltas = append(runs[i].deltas, float64(v.delta))
			}
			if err := facadeRequest(ctx, rec, next(), v, &runs[i]); err != nil {
				errs[i] = err
				return
			}
		}
		runs[i].spans = rec.spans
	})
	out := &facadeRun{}
	for i := range runs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.merge(&runs[i])
	}
	return out, nil
}

// facadeRequest makes the facade calls serve's exec makes for q, each
// inside a span.
func facadeRequest(ctx context.Context, rec *recorder, q *query, v view, fr *facadeRun) error {
	opts := []byteslice.QueryOption{byteslice.WithContext(ctx), byteslice.WithParallelism(1), byteslice.WithTracer(rec)}
	rec.request()
	defer rec.begin("request")()
	end := rec.begin("facade.query")
	res, err := v.query(q.expr(), opts...)
	end()
	if err != nil {
		return err
	}
	if st := res.Stats(); st != nil {
		fr.rows += int64(v.rows)
		fr.bytes += st.BytesTouched()
		fr.segs += st.SegmentsScanned()
		fr.zone += st.ZoneSkipped()
	}
	switch {
	case q.op == "count":
		defer rec.begin("facade.count")()
		_ = res.Count()
	case q.op == "rows" && v.tbl == nil:
		defer rec.begin("facade.rows")()
		_ = res.Rows()
	case q.op == "rows":
		end = rec.begin("facade.orderby")
		_, err = v.tbl.OrderBy(q.orderBy, res, opts...)
		end()
		defer rec.begin("facade.project")()
		for _, col := range q.cols {
			if err != nil {
				break
			}
			switch kindOf(col) {
			case kindInt:
				_, _, err = v.tbl.ProjectInt(col, res, opts...)
			case kindDecimal:
				_, _, err = v.tbl.ProjectDecimal(col, res, opts...)
			case kindString:
				_, _, err = v.tbl.ProjectString(col, res, opts...)
			}
		}
	default:
		defer rec.begin("facade.aggregate")()
		switch {
		case q.op == "min":
			_, _, err = v.tbl.MinInt(q.col, res, opts...)
		case kindOf(q.col) == kindDecimal:
			_, _, err = v.tbl.SumDecimal(q.col, res, opts...)
		default:
			_, _, err = v.tbl.SumInt(q.col, res, opts...)
		}
	}
	return err
}

// materialise names the facade calls that turn a selection into the
// answer.
var materialise = map[string]bool{
	"facade.count": true, "facade.rows": true, "facade.orderby": true, "facade.project": true, "facade.aggregate": true,
}

func (fr *facadeRun) report(res *result) {
	self := selfTimes(fr.spans)
	byID := make(map[int64]span, len(fr.spans))
	for _, s := range fr.spans {
		byID[s.ID] = s
	}
	query := map[int64]float64{}
	mat := map[int64]float64{}
	scan := map[int64]float64{}
	for _, s := range fr.spans {
		switch {
		case s.Name == "facade.query":
			query[s.Req] += float64(s.dur())
		case materialise[s.Name]:
			mat[s.Req] += float64(s.dur())
		case s.layer() == "kernel":
			p := byID[s.Parent]
			for p.layer() == "kernel" {
				p = byID[p.Parent]
			}
			if p.Name == "facade.query" {
				scan[s.Req] += float64(self[s.ID])
			}
		}
	}
	medMs := func(m map[int64]float64) float64 {
		var xs []float64
		for _, v := range m {
			xs = append(xs, v/1e6)
		}
		return median(xs)
	}
	var scanNs float64
	for _, v := range scan {
		scanNs += v
	}
	res.Layers["facade.query_ms"] = medMs(query)
	res.Layers["facade.materialise_ms"] = medMs(mat)
	res.Layers["kernel.scan_ms"] = medMs(scan)
	res.Layers["kernel.rows_per_s"] = float64(fr.rows) / (scanNs / 1e9)
	res.Layers["kernel.bytes_per_row"] = float64(fr.bytes) / float64(max(fr.rows, 1))
	res.Layers["kernel.zone_skip_ratio"] = float64(fr.zone) / float64(max(fr.segs+fr.zone, 1))
	res.Layers["kernel.pct_of_bandwidth"] = float64(fr.bytes) / (scanNs / 1e9) / (res.Env.ReadGBps * 1e9) * 100
	if len(fr.deltas) > 0 {
		res.Layers["ingest.delta_rows"] = median(fr.deltas)
	} else {
		res.Layers["ingest.delta_rows"] = 0
	}
}

// ingestRun is the ingest-layer replay.
type ingestRun struct {
	spans          []span
	late           []float64
	openS, mergeS  float64
	replayed       int
	mergedRows     int
	walBytesPerRow float64
	reader         *facadeRun
}

// ingestReplay opens a copy of the prepared directory, appends on the
// writer schedule for half a window (with ingest_live's reader querying
// pinned views beside it), then merges and closes.
func ingestReplay(ctx context.Context, cfg config, tmpl, dir string, withReader bool, t0 time.Time, setup *recorder) (*ingestRun, error) {
	if err := copyDir(dir, tmpl); err != nil {
		return nil, err
	}
	ig := &ingestRun{replayed: cfg.ingestReplay}
	setup.request()
	end := setup.begin("ingest.open")
	t := time.Now()
	it, err := byteslice.OpenIngest(dir)
	ig.openS = time.Since(t).Seconds()
	end()
	if err != nil {
		return nil, err
	}
	defer it.Close()

	before := obs.Default.Ingest.Snapshot()
	win := newWindow(0, cfg.window/2)
	var werr, rerr error
	var wspans []span
	runClients(2, func(i int) {
		if i == 1 {
			if withReader {
				ig.reader, rerr = facadeClients(ctx, cfg, 1, t0, win.end, func() view {
					p := it.Pin()
					return view{query: p.Query, rows: p.Len(), delta: p.DeltaLen()}
				})
			}
			return
		}
		rec := newRecorder(t0, 30)
		r := newRNG(cfg.seed, streamWriter)
		_, ig.late, _, _ = schedule(ctx, win, func() error {
			rec.request()
			defer rec.begin("request")()
			for j := 0; j < batchRows; j++ {
				vals := genRow(r).values()
				end := rec.begin("ingest.append")
				err := it.Append(vals)
				end()
				if err != nil {
					werr = err
					return err
				}
			}
			return nil
		})
		wspans = rec.spans
	})
	if werr != nil {
		return nil, werr
	}
	if rerr != nil {
		return nil, rerr
	}
	after := obs.Default.Ingest.Snapshot()
	ig.walBytesPerRow = float64(after.AppendedBytes-before.AppendedBytes) / float64(max(after.AppendedRows-before.AppendedRows, 1))

	setup.request()
	end = setup.begin("ingest.merge")
	t = time.Now()
	err = it.MergeNow()
	ig.mergeS = time.Since(t).Seconds()
	end()
	if err != nil {
		return nil, err
	}
	ig.mergedRows = it.Base().Len()
	ig.spans = wspans
	return ig, it.Close()
}

func (ig *ingestRun) report(res *result, a *phaseA) {
	s := spanMicros(ig.spans, "ingest.append")
	res.Layers["ingest.append_us"] = quantile(s, 0.5)
	res.Layers["ingest.append_us_p99"] = tailOrMax(s, 0.99)
	res.Layers["ingest.merge_rows_per_s"] = float64(ig.mergedRows) / ig.mergeS
	res.Layers["ingest.wal_bytes_per_row"] = ig.walBytesPerRow
	res.Layers["ingest.replay_rows_per_s"] = float64(ig.replayed) / ig.openS
	late := append(append([]float64(nil), ig.late...), a.writer.late...)
	res.Layers["bench.gen_late_ms_p99"] = tailOrMax(sorted(late), 0.99)
}
