package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
)

// Registry aggregates query statistics process-wide. The facade folds
// every evaluation into Default (a few atomic adds per query, so it is
// always on, even when per-query stats are disabled); expvar exposes it
// under the "byteslice" key, and Handler serves the same snapshot as a
// standalone JSON endpoint.
type Registry struct {
	// Queries counts observed evaluations; Faults recovered kernel
	// worker panics; Cancels context cancellations.
	Queries Counter
	Faults  Counter
	Cancels Counter
	// Segments / ZoneSkipped / Bytes accumulate the per-stage counters
	// across all observed queries.
	Segments    Counter
	ZoneSkipped Counter
	Bytes       Counter
	// Strategy counts the planner's decisions by name.
	StratColumnFirst Counter
	StratBaseline    Counter
	// QueryNs is the histogram of per-query wall times.
	QueryNs Hist
	// Ingest aggregates the write path: appends, merges, backpressure and
	// recovery outcomes, plus current epoch/delta gauges.
	Ingest IngestStats
	// Serve aggregates the serving layer's counters (admission, result
	// cache, deadlines, reloads); Tenants its per-tenant accounting. Both
	// stay zero/empty for library users who never serve.
	Serve   ServeStats
	Tenants TenantSet
}

// Default is the process-wide registry, published via expvar on first
// import of this package.
var Default = &Registry{}

// KernelPath names the scan loops this process runs, "avx2" or "swar".
// The kernel package sets it once, at start-up, from its CPU probe.
var KernelPath string

// RecordStrategy counts one planner decision by its Explain name.
func (r *Registry) RecordStrategy(name string) {
	switch name {
	case "column-first":
		r.StratColumnFirst.Add(1)
	case "baseline":
		r.StratBaseline.Add(1)
	}
}

// RecordQuery folds one finished query's live collector into the
// registry: its stages' counters are read in place, without a snapshot.
func (r *Registry) RecordQuery(q *Query) {
	if q == nil {
		return
	}
	var segments, zoneSkipped, bytes int64
	q.mu.Lock()
	strategy := q.strategy
	for _, st := range q.stages {
		segments += st.segments.Load()
		zoneSkipped += st.zoneSkipped.Load()
		bytes += st.bytes.Load()
	}
	q.mu.Unlock()
	r.Queries.Add(1)
	r.Faults.Add(q.panics.Load())
	r.Cancels.Add(q.cancels.Load())
	r.Segments.Add(segments)
	r.ZoneSkipped.Add(zoneSkipped)
	r.Bytes.Add(bytes)
	r.QueryNs.Observe(q.wallNs.Load())
	r.RecordStrategy(strategy)
}

// RegistrySnapshot is the JSON shape of a Registry, served by expvar
// and Handler.
type RegistrySnapshot struct {
	Queries     int64 `json:"queries"`
	Faults      int64 `json:"faults"`
	Cancels     int64 `json:"cancels"`
	Segments    int64 `json:"segments_scanned"`
	ZoneSkipped int64 `json:"segments_zone_skipped"`
	Bytes       int64 `json:"bytes_touched"`
	Strategies  struct {
		ColumnFirst int64 `json:"column_first"`
		Baseline    int64 `json:"baseline"`
	} `json:"strategies"`
	QueryNs HistSnapshot `json:"query_ns"`
	// KernelPath names the scan loops the process runs (KernelPath).
	KernelPath string                    `json:"kernel_path"`
	Ingest     IngestSnapshot            `json:"ingest"`
	Serve      ServeSnapshot             `json:"serve"`
	Tenants    map[string]TenantSnapshot `json:"tenants,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() RegistrySnapshot {
	var s RegistrySnapshot
	s.Queries = r.Queries.Load()
	s.Faults = r.Faults.Load()
	s.Cancels = r.Cancels.Load()
	s.Segments = r.Segments.Load()
	s.ZoneSkipped = r.ZoneSkipped.Load()
	s.Bytes = r.Bytes.Load()
	s.Strategies.ColumnFirst = r.StratColumnFirst.Load()
	s.Strategies.Baseline = r.StratBaseline.Load()
	s.QueryNs = r.QueryNs.Snapshot()
	s.KernelPath = KernelPath
	s.Ingest = r.Ingest.Snapshot()
	s.Serve = r.Serve.Snapshot()
	s.Tenants = r.Tenants.Snapshot()
	return s
}

// Handler returns an http.Handler serving the registry snapshot as
// indented JSON — a standalone alternative to expvar's /debug/vars for
// callers that mount their own mux.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

func init() {
	expvar.Publish("byteslice", expvar.Func(func() any { return Default.Snapshot() }))
}
