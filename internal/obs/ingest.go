package obs

import "sync/atomic"

// Gauge is an atomic point-in-time value (as opposed to Counter's
// monotonic accumulation): the ingest pipeline stores the current epoch,
// unmerged delta size and WAL length here so the expvar surface shows
// where the pipeline is, not just how much it has done.
type Gauge struct{ v atomic.Int64 }

// Store sets the gauge.
func (g *Gauge) Store(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta and returns the new value — the shape
// in-flight tracking needs (increment on admit, decrement on finish).
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// IngestStats aggregates the write path's counters process-wide, the
// ingest-side sibling of the query Registry: appends and their WAL bytes,
// merges (with their failure and recovered-panic tallies), backpressure
// rejections, and what recovery replayed or truncated. All fields are
// atomic — the appender, the background merger and any number of
// observers touch them concurrently.
type IngestStats struct {
	// AppendedRows / AppendedBytes count acknowledged appends and the WAL
	// bytes that made them durable.
	AppendedRows  Counter
	AppendedBytes Counter
	// Merges counts epoch switches; MergeFailures failed attempts (each
	// retried with backoff); MergePanics recovered merge panics.
	Merges        Counter
	MergeFailures Counter
	MergePanics   Counter
	// Backpressure counts appends rejected at the delta bound.
	Backpressure Counter
	// ReplayedRows / TruncatedBytes describe recovery: rows replayed from
	// the WAL and torn-tail bytes cut from it.
	ReplayedRows   Counter
	TruncatedBytes Counter
	// WALSyncs counts the fsyncs that made WAL row frames durable: one
	// per synced append, one per merge commit's rotated WAL.
	WALSyncs Counter
	// Epoch / DeltaRows / WALBytes are the pipeline's current position.
	Epoch     Gauge
	DeltaRows Gauge
	WALBytes  Gauge
}

// IngestSnapshot is the JSON shape of IngestStats.
type IngestSnapshot struct {
	AppendedRows   int64 `json:"appended_rows"`
	AppendedBytes  int64 `json:"appended_bytes"`
	Merges         int64 `json:"merges"`
	MergeFailures  int64 `json:"merge_failures"`
	MergePanics    int64 `json:"merge_panics"`
	Backpressure   int64 `json:"backpressure_rejects"`
	ReplayedRows   int64 `json:"replayed_rows"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	WALSyncs       int64 `json:"wal_syncs"`
	Epoch          int64 `json:"epoch"`
	DeltaRows      int64 `json:"delta_rows"`
	WALBytes       int64 `json:"wal_bytes"`
}

// Snapshot captures the ingest counters' current state.
func (s *IngestStats) Snapshot() IngestSnapshot {
	return IngestSnapshot{
		AppendedRows:   s.AppendedRows.Load(),
		AppendedBytes:  s.AppendedBytes.Load(),
		Merges:         s.Merges.Load(),
		MergeFailures:  s.MergeFailures.Load(),
		MergePanics:    s.MergePanics.Load(),
		Backpressure:   s.Backpressure.Load(),
		ReplayedRows:   s.ReplayedRows.Load(),
		TruncatedBytes: s.TruncatedBytes.Load(),
		WALSyncs:       s.WALSyncs.Load(),
		Epoch:          s.Epoch.Load(),
		DeltaRows:      s.DeltaRows.Load(),
		WALBytes:       s.WALBytes.Load(),
	}
}
