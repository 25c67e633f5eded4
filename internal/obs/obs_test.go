package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHistBucketing pins the power-of-two bucket layout: an observation
// of n ns lands in the bucket whose bounds contain n.
func TestHistBucketing(t *testing.T) {
	cases := []int64{0, 1, 2, 3, 7, 8, 512, 1023, 1024, 1 << 20, 1 << 45}
	var h Hist
	for _, ns := range cases {
		h.Observe(ns)
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	var sum int64
	for _, ns := range cases {
		sum += ns
	}
	if s.SumNs != sum {
		t.Fatalf("sum = %d, want %d", s.SumNs, sum)
	}
	for _, ns := range cases {
		found := false
		for _, b := range s.Buckets {
			if ns >= b.LoNs && (b.HiNs == -1 || ns < b.HiNs) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("observation %d ns not covered by any non-empty bucket: %+v", ns, s.Buckets)
		}
	}
	// Exact bucket placement for a couple of values.
	if lo, hi := BucketBounds(bucketOf(1023)); lo != 512 || hi != 1024 {
		t.Fatalf("1023 ns bucket = [%d,%d), want [512,1024)", lo, hi)
	}
	if lo, hi := BucketBounds(bucketOf(0)); lo != 0 || hi != 1 {
		t.Fatalf("0 ns bucket = [%d,%d), want [0,1)", lo, hi)
	}
	// Overflow bucket is unbounded.
	if _, hi := BucketBounds(histBuckets - 1); hi != -1 {
		t.Fatalf("overflow bucket must be unbounded, got hi=%d", hi)
	}
}

// TestHistParallel hammers one histogram from many goroutines; totals
// must be exact (run under -race in CI).
func TestHistParallel(t *testing.T) {
	var h Hist
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum int64
	for _, b := range s.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != workers*per {
		t.Fatalf("bucket counts sum to %d, want %d", bucketSum, workers*per)
	}
}

// TestStageParallelMerge models the kernel fan-out: several workers add
// local depth histograms into one shared Stage; the snapshot's totals
// must equal the sum of the inputs and the byte accounting must follow
// the 32-bytes-per-slice rule.
func TestStageParallelMerge(t *testing.T) {
	q := NewQuery()
	st := q.NewStage("scan(x)", "scan")
	const workers = 8
	local := DepthCounts{0: 3, 1: 100, 2: 20, 3: 5}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := local
			st.AddDepths(&d)
			var bt BatchTimes
			bt.Observe(1000)
			st.AddBatches(&bt)
		}()
	}
	wg.Wait()
	s := st.Snapshot()
	if want := int64(workers * (100 + 20 + 5)); s.Segments != want {
		t.Fatalf("segments = %d, want %d", s.Segments, want)
	}
	if want := int64(workers * 3); s.ZoneSkipped != want {
		t.Fatalf("zoneSkipped = %d, want %d", s.ZoneSkipped, want)
	}
	wantBytes := int64(workers) * (100*1*32 + 20*2*32 + 5*3*32)
	if s.BytesTouched != wantBytes {
		t.Fatalf("bytes = %d, want %d", s.BytesTouched, wantBytes)
	}
	for d, n := range s.EarlyStop {
		if n != int64(workers)*local[d] {
			t.Fatalf("depth[%d] = %d, want %d", d, n, int64(workers)*local[d])
		}
	}
	if s.Batches != workers || s.BatchNs.Count != workers {
		t.Fatalf("batches = %d / hist count %d, want %d", s.Batches, s.BatchNs.Count, workers)
	}
}

// TestQueryAbsorb pins the live-collector combination used by Expr
// evaluation.
func TestQueryAbsorb(t *testing.T) {
	a, b := NewQuery(), NewQuery()
	a.SetPlan("column-first", 2)
	b.SetPlan("baseline", 1)
	a.NewStage("scan(a)", "scan").AddSegments(3, 96)
	b.NewStage("scan(b)", "scan").AddSegments(4, 128)
	b.RecordPanic()
	a.Absorb(b)
	qs := a.Snapshot()
	if len(qs.Stages) != 2 || qs.SegmentsScanned() != 7 || qs.Panics != 1 {
		t.Fatalf("absorb lost data: %+v", qs)
	}
	if qs.Strategy != "column-first" || qs.Workers != 2 {
		t.Fatalf("absorb must keep the receiver's strategy, got %q/%d", qs.Strategy, qs.Workers)
	}
}

// TestAnalyzeRendering sanity-checks the human rendering.
func TestAnalyzeRendering(t *testing.T) {
	qs := &QueryStats{WallNs: 1500, Stages: []StageStats{{
		Name: "scan(a)", Kind: "scan_zoned", Workers: 4,
		Segments: 10, ZoneSkipped: 90, BytesTouched: 640,
		EarlyStop: [MaxDepth + 1]int64{0: 90, 1: 8, 2: 2},
		Batches:   2, WallNs: 900,
	}}}
	out := qs.Analyze()
	for _, want := range []string{"scan(a)", "segments 10", "zone-skipped", "depth[0:90 1:8 2:2]", "workers 4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Analyze missing %q:\n%s", want, out)
		}
	}
}

// TestRegistry pins the fold-in of live collectors and the HTTP snapshot.
func TestRegistry(t *testing.T) {
	r := &Registry{}
	q := NewQuery()
	q.SetPlan("column-first", 2)
	q.AddWallNs(1000)
	q.NewStage("scan(a)", "scan_zoned").AddDepths(&DepthCounts{0: 22, 1: 10})
	r.RecordQuery(q)
	faulted := NewQuery()
	faulted.SetPlan("baseline", 1)
	faulted.RecordPanic()
	r.RecordQuery(faulted)
	s := r.Snapshot()
	if s.Queries != 2 || s.Segments != 10 || s.ZoneSkipped != 22 || s.Bytes != 320 || s.Faults != 1 ||
		s.QueryNs.Count != 2 || s.QueryNs.SumNs != 1000 {
		t.Fatalf("registry snapshot wrong: %+v", s)
	}
	if s.Strategies.ColumnFirst != 1 || s.Strategies.Baseline != 1 {
		t.Fatalf("strategy counters wrong: %+v", s.Strategies)
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var decoded RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("handler did not serve JSON: %v\n%s", err, rec.Body.String())
	}
	if decoded.Queries != 2 {
		t.Fatalf("handler snapshot queries = %d, want 2", decoded.Queries)
	}
}
