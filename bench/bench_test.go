package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"byteslice/internal/serve"
)

func TestQuantileAndTail(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 1000 {
		t.Errorf("median of 1..2000 = %v, want 1000", got)
	}
	if got, err := tail(xs, 0.99); err != nil || got != 1980 {
		t.Errorf("p99 of 1..2000 = %v, %v; want 1980 (20 samples beyond it)", got, err)
	}
	// 100 samples leave only one beyond p99: tail falls back to the
	// highest quantile with ten samples above it.
	got, err := tail(xs[:100], 0.99)
	if err != nil || got != 90 {
		t.Errorf("p99 of 1..100 = %v, %v; want 90 (the 90th of 100, ten beyond)", got, err)
	}
	if _, err := tail(xs[:10], 0.99); err == nil {
		t.Error("tail of 10 samples succeeded; it cannot leave ten beyond")
	}
	if got := tailOrMax(xs[:10], 0.99); got != 10 {
		t.Errorf("tailOrMax of 1..10 = %v, want the maximum 10", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "facade.query", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "facade.aggregate", Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Name: "ingest.append", Start: 90, End: 120},   // runs past its parent
		{ID: 5, Parent: 2, Name: "kernel.scan(price)", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	// request: 100 - ([10,50] + [90,100]) = 50; facade.query: 20 - 6.
	want := map[int64]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	var buf bytes.Buffer
	layerTable(&buf, "test", spans)
	for _, layer := range []string{"request", "facade", "ingest", "kernel"} {
		if !strings.Contains(buf.String(), layer) {
			t.Errorf("layer table lacks %s:\n%s", layer, buf.String())
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder(time.Now(), 0)
	rec.request()
	endReq := rec.begin("request")
	endQ := rec.begin("facade.query")
	rec.StartSpan("scan(price)")()
	endQ()
	endReq()
	if len(rec.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(rec.spans))
	}
	req, q, k := rec.spans[0], rec.spans[1], rec.spans[2]
	if q.Parent != req.ID || k.Parent != q.ID || k.Name != "kernel.scan(price)" || k.layer() != "kernel" {
		t.Errorf("bad nesting: %+v", rec.spans)
	}
	if req.Req != q.Req || q.Req != k.Req {
		t.Errorf("spans of one request carry different request ids: %+v", rec.spans)
	}
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloadNames {
		for c := 0; c < maxConns; c++ {
			a, b, other := newStream(w, 7, c), newStream(w, 7, c), newStream(w, 8, c)
			differs := false
			for i := 0; i < 200; i++ {
				qa, qb, qo := a(), b(), other()
				if !bytes.Equal(qa.body(table), qb.body(table)) {
					t.Fatalf("%s client %d request %d differs between two streams of seed 7", w, c, i)
				}
				differs = differs || !bytes.Equal(qa.body(table), qo.body(table))
			}
			if !differs {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same 200 bodies", w, c)
			}
		}
	}
	if !reflect.DeepEqual(genLineitem(3, streamLineitem, 1000), genLineitem(3, streamLineitem, 1000)) {
		t.Error("genLineitem is not deterministic")
	}
}

// TestOracle serves every workload's requests from a 64Ki-row table
// through serve.Server.Do and checks the oracle agrees, then that it
// rejects wrong answers.
func TestOracle(t *testing.T) {
	l := genLineitem(5, streamLineitem, 1<<16)
	o := newOracle(l)
	tbl, err := buildTable(l)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	defer srv.Close()
	if err := srv.Catalog().MountTable(table, tbl); err != nil {
		t.Fatal(err)
	}
	do := func(q *query) []byte {
		t.Helper()
		req, err := serve.DecodeRequest(q.body(table))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", q.body(table), err)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var rowsBody []byte
	var rowsQuery *query
	for _, w := range []string{"olap_scan", "dashboard_hot", "rows_lookup"} {
		next := newStream(w, 5, 0)
		for i := 0; i < 40; i++ {
			q := next()
			body := do(q)
			if err := o.check(q, body); err != nil {
				t.Fatalf("%s request %d %s: %v", w, i, q.body(table), err)
			}
			if q.op == "rows" && rowsBody == nil && strings.Contains(string(body), `"ints"`) {
				rowsBody, rowsQuery = body, q
			}
		}
	}

	tamper := func(body []byte, edit func(*serve.Response)) []byte {
		var r serve.Response
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		b, _ := json.Marshal(&r)
		return b
	}
	count := &query{op: "count", where: []pred{{col: "quantity", op: "lt", a: 10}}}
	sum := &query{op: "sum", col: "price", where: []pred{{col: "mode", op: "eq", a: 2}}}
	cases := []struct {
		name string
		q    *query
		body []byte
	}{
		{"count", count, tamper(do(count), func(r *serve.Response) { r.Count++ })},
		{"sum", sum, tamper(do(sum), func(r *serve.Response) { *r.Value += 0.01 })},
		{"row id", rowsQuery, tamper(rowsBody, func(r *serve.Response) { r.RowIDs[0]++ })},
		{"projected value", rowsQuery, tamper(rowsBody, func(r *serve.Response) {
			for _, d := range r.Data {
				if len(d.Ints) > 0 {
					d.Ints[0]++
					return
				}
			}
		})},
	}
	for _, c := range cases {
		if err := newOracle(l).check(c.q, c.body); err == nil {
			t.Errorf("oracle accepted a wrong %s", c.name)
		}
	}
}

// quickConfig is a seconds-long configuration over small tables.
func quickConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 2
	cfg.rows, cfg.ingestBase, cfg.ingestReplay = 1<<16, 1<<12, 1<<12
	cfg.warmup, cfg.window = 100*time.Millisecond, 400*time.Millisecond
	cfg.setups, cfg.maxReplay = 2, 200
	cfg.dir = t.TempDir()
	cfg.trace = true
	return cfg
}

// TestQuickSmoke runs every workload end to end, traced, and checks the
// result line carries exactly the benchmark's metrics.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := quickConfig(t, w)
			var log bytes.Buffer
			res, err := run(context.Background(), cfg, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Attempted == 0 || res.checked == 0 {
				t.Fatalf("correct %v attempted %d checked %d\n%s", res.Correct, res.Attempted, res.checked, log.String())
			}
			for _, traced := range []bool{false, true} {
				cfg.trace = traced
				var out bytes.Buffer
				if err := write(cfg, res, filepath.Join(cfg.dir, "out.json"), &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var l line
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
					t.Fatal(err)
				}
				defs := e2eMetrics
				if traced {
					defs = layerMetrics
				}
				if len(l.Metrics) != len(defs) {
					t.Errorf("trace %v: %d metrics, want %d", traced, len(l.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := l.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace %v: metric %s missing or wrong unit: %+v", traced, d.name, m)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.dir, "spans-"+w+".json")); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
			if res.Layers["serve.cache_hit_ratio"] < 0.99 && w == "dashboard_hot" {
				t.Errorf("dashboard_hot cache hit ratio %v", res.Layers["serve.cache_hit_ratio"])
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	cfg := quickConfig(t, "nope")
	if _, err := run(context.Background(), cfg, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload ran")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the metric tables here in
// lockstep.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		E2E       []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		Layers []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range b.E2E {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.Layers {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("end_to_end %v, code reports %v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layers, layerMetrics) {
		t.Errorf("per_layer %v, code reports %v", layers, layerMetrics)
	}
}
