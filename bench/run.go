package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"byteslice"
	"byteslice/internal/serve"
)

// workloadNames are the benchmark's workloads; the first three serve the
// lineitem snapshot, ingest_live a live ingest mount.
var workloadNames = []string{"olap_scan", "dashboard_hot", "rows_lookup", "ingest_live"}

// table is the mount name every workload queries.
const table = "lineitem"

type config struct {
	workload string
	seed     uint64
	warmup   time.Duration
	window   time.Duration
	trace    bool
	// rows is the lineitem snapshot's size; ingestBase and ingestReplay
	// the live table's base snapshot and prepared WAL.
	rows, ingestBase, ingestReplay int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// maxReplay caps each traced replay client's requests, which bounds
	// the spans kept in memory on the sub-millisecond workloads.
	maxReplay int
	dir       string // scratch root for generated files (TMPDIR)
	spans     string // traced runs write spans here ("" = under dir)
}

func defaultConfig() config {
	return config{
		seed: 1, warmup: 3 * time.Second, window: 12 * time.Second,
		rows: 4 << 20, ingestBase: 1 << 16, ingestReplay: 1 << 16,
		setups: 5, maxReplay: 10000, dir: os.TempDir(),
	}
}

// result is one run's report.
type result struct {
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
	// Extra holds readout-only numbers: the error rate, sample counts,
	// and ingest_live's append latencies.
	Extra map[string]float64 `json:"extra"`

	checked, wrong int
	spans          []span
}

// fail records one wrong answer.
func (r *result) fail(log io.Writer, what string, err error) {
	r.wrong++
	fmt.Fprintf(log, "WRONG %s: %v\n", what, err)
}

// run executes one workload end to end: untimed data preparation,
// repeated set-up, warm-up and the measured window over HTTP, the oracle
// check, and — when tracing — the layer-by-layer replays.
func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	live := cfg.workload == "ingest_live"
	work, err := os.MkdirTemp(cfg.dir, "bsbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Untimed preparation: the program sees only these generated files.
	var (
		snapPath, tmpl string
		ir             *ingestRows
		tableBytes     int64
		rows           int
	)
	if live {
		ir = newIngestRows(cfg.seed, cfg.ingestBase, cfg.ingestReplay)
		tmpl = filepath.Join(work, "ingest-template")
		tableBytes, err = prepareIngest(tmpl, ir)
		rows = ir.rows.len()
	} else {
		snapPath = filepath.Join(work, "lineitem.bslc")
		tableBytes, err = writeSnapshot(snapPath, genLineitem(cfg.seed, streamLineitem, cfg.rows))
		rows = cfg.rows
	}
	if err != nil {
		return nil, err
	}
	res := &result{Env: stamp(cfg, rows, readProbe(tableBytes)), E2E: map[string]float64{}, Extra: map[string]float64{}}
	envJSON, _ := json.Marshal(res.Env)
	fmt.Fprintf(log, "env %s\n", envJSON)

	mountAt := func(i int) (func(*serve.Catalog) error, string, error) {
		if !live {
			return func(c *serve.Catalog) error { return c.MountSnapshot(table, snapPath) }, snapPath, nil
		}
		dir := filepath.Join(work, fmt.Sprintf("live-%d", i))
		if err := copyDir(dir, tmpl); err != nil {
			return nil, "", err
		}
		return func(c *serve.Catalog) error { return c.MountIngest(table, dir) }, dir, nil
	}
	srv, c, mountPath, err := setUp(ctx, cfg, res, rows, mountAt)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop(ctx) //nolint:errcheck // error path; the run already failed
		}
	}()

	var samples []sample
	if cfg.workload == "dashboard_hot" {
		// Every dashboard body is answered (and cached) before the window;
		// the oracle checks all 64 of these answers.
		for _, q := range dashboardQueries(cfg.seed) {
			status, body, err := c.post(ctx, "/query", q.body(table))
			if err != nil || status != 200 {
				return nil, fmt.Errorf("dashboard warm-up: status %d: %v", status, err)
			}
			samples = append(samples, sample{q: q, resp: slices.Clone(body)})
		}
	}

	a := measure(ctx, cfg, c, ir)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, cr := range a.clients {
		samples = append(samples, cr.samples...)
	}
	heapServing := liveHeap()

	stored, err := storedBytes(ctx, c, res, ir, snapPath, mountPath, log)
	if err != nil {
		return nil, err
	}
	err = srv.stop(ctx)
	srv = nil // stopped, and unreachable for the heap reading below
	c.hc.CloseIdleConnections()
	if err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	heapStopped := liveHeap()
	if live {
		if err := reopenCheck(res, ir, mountPath, log); err != nil {
			return nil, err
		}
	}

	// The oracle regenerates the columns from the seed rather than trust
	// anything the program produced.
	var truth *oracle
	if live {
		truth = newOracle(ir.rows)
	} else {
		truth = newOracle(genLineitem(cfg.seed, streamLineitem, cfg.rows))
	}
	for _, s := range samples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.checked++
		if err := truth.check(s.q, s.resp); err != nil {
			res.fail(log, string(s.q.body(table)), err)
		}
	}

	a.report(cfg, res)
	res.E2E["mem_mb"] = float64(int64(heapServing)-int64(heapStopped)) / (1 << 20)
	res.E2E["stored_bytes_per_row"] = stored

	if cfg.trace {
		if err := traced(ctx, cfg, res, a, snapPath, tmpl, work, log); err != nil {
			return nil, err
		}
		res.Layers["bench.checked"] = float64(res.checked)
		res.Layers["bench.wrong"] = float64(res.wrong)
	}
	res.Failed += res.wrong
	res.Correct = res.wrong == 0 && res.Failed == 0
	res.Extra["error_rate"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Extra["checked"] = float64(res.checked)
	return res, nil
}

// liveHeap is the heap still reachable after forced collections; the
// second frees what the first only moved to sync.Pool victim caches or
// queued for finalizers.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp mounts the table cfg.setups times, each time timing mount,
// listener start and the first answered query; every set-up but the last
// is torn down. setup_s is the median.
func setUp(ctx context.Context, cfg config, res *result, rows int, mountAt func(int) (func(*serve.Catalog) error, string, error)) (*server, *client, string, error) {
	var times []float64
	for i := 0; ; i++ {
		mount, path, err := mountAt(i)
		if err != nil {
			return nil, nil, "", err
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startServer(mount)
		if err != nil {
			return nil, nil, "", fmt.Errorf("mount: %w", err)
		}
		c := &client{hc: newHTTPClient(), url: s.url}
		var resp serve.Response
		err = c.postJSON(ctx, "/query", probeQuery().body(table), &resp)
		times = append(times, time.Since(t0).Seconds())
		if err == nil && resp.Count != rows {
			err = fmt.Errorf("probe counted %d rows, want %d", resp.Count, rows)
		}
		if err != nil {
			s.stop(ctx) //nolint:errcheck // already failing
			return nil, nil, "", err
		}
		if i == cfg.setups-1 {
			res.E2E["setup_s"] = median(times)
			return s, c, path, nil
		}
		c.hc.CloseIdleConnections()
		if err := s.stop(ctx); err != nil {
			return nil, nil, "", err
		}
	}
}

// phaseA is what the measured window recorded.
type phaseA struct {
	win           window
	clients       []clientResult
	writer        writerResult
	before, after resources
}

// measure runs warm-up and the window: two closed-loop query clients,
// or for ingest_live one closed-loop reader beside the open-loop writer.
// They share the set-up client's transport, so the run never holds more
// than maxConns connections.
func measure(ctx context.Context, cfg config, setup *client, ir *ingestRows) *phaseA {
	a := &phaseA{win: newWindow(cfg.warmup, cfg.window), clients: make([]clientResult, maxConns)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		runClients(maxConns, func(i int) {
			c := &client{hc: setup.hc, url: setup.url}
			if ir != nil && i == 1 {
				a.writer = appendWriter(ctx, c, ir, a.win)
				return
			}
			a.clients[i] = closedLoop(ctx, c, newStream(cfg.workload, cfg.seed, i), a.win)
		})
	}()
	sleepUntil(ctx, a.win.start)
	a.before = readResources()
	sleepUntil(ctx, a.win.end)
	a.after = readResources()
	<-done
	if ir != nil {
		a.clients = a.clients[:1]
	}
	return a
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

// report turns the window into end-to-end metrics (and the readout-only
// extras).
func (a *phaseA) report(cfg config, res *result) {
	var lat []float64
	ok := 0
	var last time.Time
	for _, cr := range a.clients {
		lat = append(lat, cr.lat...)
		res.Attempted += cr.attempted
		res.Failed += cr.failed
		ok += cr.attempted - cr.failed
		if cr.last.After(last) {
			last = cr.last
		}
	}
	res.Attempted += a.writer.attempted
	res.Failed += a.writer.failed
	secs := cfg.window.Seconds()
	s := sorted(lat)
	// The window closes to new requests at its end; the ones in flight
	// then still count, over the time they took to finish.
	res.E2E["qps"] = float64(ok) / max(last.Sub(a.win.start).Seconds(), 1e-9)
	res.E2E["p50_ms"] = finite(quantile(s, 0.5))
	// The gated tail is p95: beyond it, how often the shared host stalls
	// the process decides the value more than the program does (p99
	// spread 11-29% between runs of one commit). p99 stays in the readout.
	res.E2E["p95_ms"] = finite(tailOrMax(s, 0.95))
	res.Extra["p99_ms"] = finite(tailOrMax(s, 0.99))
	res.Extra["queries"] = float64(len(lat))
	if a.writer.attempted > 0 {
		w := sorted(a.writer.lat)
		res.Extra["append_rows_per_s"] = float64((a.writer.attempted-a.writer.failed)*batchRows) / secs
		res.Extra["append_p50_ms"] = finite(quantile(w, 0.5))
		res.Extra["append_p99_ms"] = finite(tailOrMax(w, 0.99))
		res.Extra["http_gen_late_ms_p99"] = tailOrMax(sorted(a.writer.late), 0.99)
	}
}

// tailOrMax is tail, falling back to the maximum for samples too small
// to support any tail percentile (only tiny test windows).
func tailOrMax(s []float64, q float64) float64 {
	if v, err := tail(s, q); err == nil {
		return v
	}
	if len(s) == 0 {
		return math.NaN()
	}
	return s[len(s)-1]
}

// finite maps the +Inf a failed request counts as onto the largest float
// JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// storedBytes is stored_bytes_per_row: the snapshot file's size, or the
// ingest directory's after finishIngest, over the rows it holds.
func storedBytes(ctx context.Context, c *client, res *result, ir *ingestRows, snapPath, dir string, log io.Writer) (float64, error) {
	if ir == nil {
		info, err := os.Stat(snapPath)
		if err != nil {
			return 0, err
		}
		return float64(info.Size()) / float64(res.Env.Rows), nil
	}
	n, err := finishIngest(ctx, c, res, ir, dir, log)
	return float64(n) / float64(ir.rows.len()), err
}

// finishIngest merges the live mount until its delta is empty, checks
// through HTTP that every acknowledged row is visible, and returns the
// ingest directory's size.
func finishIngest(ctx context.Context, c *client, res *result, ir *ingestRows, dir string, log io.Writer) (int64, error) {
	body, _ := json.Marshal(serve.MergeRequest{Table: table})
	for i := 0; ; i++ {
		var m struct {
			DeltaRows int `json:"delta_rows"`
		}
		if err := c.postJSON(ctx, "/merge", body, &m); err != nil {
			return 0, err
		}
		if m.DeltaRows == 0 {
			break
		}
		if i == 4 {
			return 0, fmt.Errorf("final merge left %d delta rows", m.DeltaRows)
		}
	}
	status, resp, err := c.post(ctx, "/query", probeQuery().body(table))
	if err != nil || status != 200 {
		return 0, fmt.Errorf("post-merge count: status %d: %v", status, err)
	}
	res.checked++
	var r serve.Response
	if err := json.Unmarshal(resp, &r); err != nil {
		return 0, err
	}
	if r.Count != ir.rows.len() || r.Rows != ir.rows.len() {
		res.fail(log, "post-merge count", fmt.Errorf("%d rows visible, %d counted; want base+replayed+acknowledged = %d", r.Rows, r.Count, ir.rows.len()))
	}
	return dirBytes(dir)
}

// reopenCheck opens the closed ingest directory again and checks the
// row count and sum(quantity) against the rows the benchmark wrote.
func reopenCheck(res *result, ir *ingestRows, dir string, log io.Writer) error {
	it, err := byteslice.OpenIngest(dir)
	if err != nil {
		return fmt.Errorf("reopen ingest: %w", err)
	}
	defer it.Close()
	res.checked++
	var want int64
	for _, q := range ir.rows.quantity {
		want += int64(q)
	}
	base := it.Base()
	all, err := base.Query(probeQuery().expr())
	if err != nil {
		return err
	}
	got, n, err := base.SumInt("quantity", all)
	if err != nil {
		return err
	}
	if it.Len() != ir.rows.len() || it.DeltaLen() != 0 || n != ir.rows.len() || got != want {
		res.fail(log, "reopen", fmt.Errorf("len %d delta %d count %d sum(quantity) %d; want len %d delta 0 sum %d",
			it.Len(), it.DeltaLen(), n, got, ir.rows.len(), want))
	}
	return nil
}
