// Package obs is the query observability layer: low-overhead atomic
// counters, power-of-two nanosecond histograms and per-query/per-stage
// statistics threaded through the native kernel batching loop
// (internal/kernel/exec.go) and the facade's planner dispatch.
//
// The paper argues entirely with counters — cycles, instructions, bytes
// touched, early-stop depth (§6) — and this package makes the same
// evidence observable per production query: how many segments each stage
// scanned, how many the zone maps resolved without loading data, how deep
// the byte-level early stop descended, how long worker batches took, and
// which plan the cost-based planner chose. Everything here is written by
// concurrent kernel workers, so every mutable field is atomic; collection
// costs a handful of atomic adds per 256-segment batch, and the whole
// layer can be disabled per query (byteslice.WithObservability(false)),
// leaving the kernels on their uninstrumented monolithic loops.
//
// Three surfaces consume the data: Result.Stats() returns a QueryStats
// snapshot (and enriches Result.Explain into an "explain analyze");
// the process-wide Registry aggregates across queries and is exported
// via expvar and an HTTP handler; and pluggable Tracer hooks observe
// span start/end per plan stage.
package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// MaxDepth is the deepest byte-slice early stop the histograms record:
// codes are at most 32 bits, i.e. four byte slices. Index 0 of a depth
// histogram counts segments resolved with no data load at all (zone-map
// pruned); index d >= 1 counts segments whose scan examined d slices.
const MaxDepth = 4

// Counter is an atomic monotonic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// histBuckets is the bucket count of Hist: bucket i holds observations
// with bits.Len64(ns) == i, i.e. [2^(i-1), 2^i) ns, so 40 buckets cover
// sub-nanosecond through ~9 minutes with the last bucket as overflow.
const histBuckets = 40

// Hist is a concurrency-safe histogram of nanosecond durations with
// power-of-two buckets. The zero value is ready to use.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketBounds returns bucket i's half-open range [lo, hi) in ns.
// Bucket 0 holds only zero; the last bucket is unbounded (hi = -1).
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 1
	}
	lo = int64(1) << (i - 1)
	if i >= histBuckets-1 {
		return lo, -1
	}
	return lo, int64(1) << i
}

// Observe records one duration in nanoseconds.
func (h *Hist) Observe(ns int64) {
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

// Snapshot captures the histogram's current state.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), SumNs: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			lo, hi := BucketBounds(i)
			s.Buckets = append(s.Buckets, HistBucket{LoNs: lo, HiNs: hi, Count: n})
		}
	}
	return s
}

// HistBucket is one non-empty bucket of a HistSnapshot.
type HistBucket struct {
	LoNs  int64 `json:"lo_ns"`
	HiNs  int64 `json:"hi_ns"` // -1 = unbounded overflow bucket
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Hist; only non-empty buckets
// are materialised.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	SumNs   int64        `json:"sum_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Merge folds o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.SumNs += o.SumNs
	for _, ob := range o.Buckets {
		found := false
		for i := range s.Buckets {
			if s.Buckets[i].LoNs == ob.LoNs {
				s.Buckets[i].Count += ob.Count
				found = true
				break
			}
		}
		if !found {
			s.Buckets = append(s.Buckets, ob)
		}
	}
}

// MeanNs returns the mean observation, or 0 when empty.
func (s HistSnapshot) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// DepthCounts accumulates an early-stop depth histogram locally (one
// plain increment per segment inside a kernel range loop) before being
// merged into a Stage with one batch of atomic adds. Index 0 counts
// zone-map-resolved segments; index d >= 1 counts segments whose scan
// loaded d byte slices before stopping.
type DepthCounts [MaxDepth + 1]int64

// Bytes returns the column data bytes the counted segments touched:
// 32 bytes per byte slice examined (zone-resolved segments touch none).
func (d *DepthCounts) Bytes() int64 {
	var b int64
	for depth := 1; depth <= MaxDepth; depth++ {
		b += int64(depth) * 32 * d[depth]
	}
	return b
}

// Stage collects one plan stage's execution statistics — one scan,
// pipelined scan, multi-predicate pass, aggregate, projection or sort.
// All fields are written with atomics so concurrent kernel workers can
// share one Stage without locks.
type Stage struct {
	// Name identifies the stage for humans ("scan(price)"); Kind is the
	// machine-readable stage class ("scan", "scan_zoned", "scan_multi",
	// "pipelined", "sum", "extreme", "sum_by", "lookup", "project",
	// "orderby", "top").
	Name, Kind string

	workers     atomic.Int64
	segments    atomic.Int64
	zoneSkipped atomic.Int64
	maskSkipped atomic.Int64
	rows        atomic.Int64
	kept        atomic.Int64
	bytes       atomic.Int64
	batches     atomic.Int64
	depth       [MaxDepth + 1]atomic.Int64
	batchNs     Hist
	wallNs      atomic.Int64
}

// SetWorkers records the fan-out width the kernel actually used.
func (s *Stage) SetWorkers(n int) { s.workers.Store(int64(n)) }

// SetWallNs records the stage's end-to-end wall time.
func (s *Stage) SetWallNs(ns int64) { s.wallNs.Store(ns) }

// BatchTimes accumulates one worker's batch wall times without atomics;
// Stage.AddBatches folds them in once, when the worker's range is done.
type BatchTimes struct {
	count, sum int64
	buckets    [histBuckets]int64
}

// Observe records one batch's wall time in nanoseconds.
func (b *BatchTimes) Observe(ns int64) {
	b.count++
	b.sum += ns
	b.buckets[bucketOf(ns)]++
}

// AddBatches merges a worker's batch times: the batch count and the
// wall-time histogram.
func (s *Stage) AddBatches(b *BatchTimes) {
	if b.count == 0 {
		return
	}
	s.batches.Add(b.count)
	s.batchNs.count.Add(b.count)
	s.batchNs.sum.Add(b.sum)
	for i, n := range b.buckets {
		if n != 0 {
			s.batchNs.buckets[i].Add(n)
		}
	}
}

// AddDepths merges a range loop's local depth histogram: segment and
// zone-skip counts, per-depth buckets and the implied data bytes.
func (s *Stage) AddDepths(d *DepthCounts) {
	for i, n := range d {
		if n == 0 {
			continue
		}
		s.depth[i].Add(n)
		if i == 0 {
			s.zoneSkipped.Add(n)
		} else {
			s.segments.Add(n)
		}
	}
	s.bytes.Add(d.Bytes())
}

// AddSegments counts n segments whose data was processed without depth
// detail (aggregate kernels), touching the given data bytes.
func (s *Stage) AddSegments(n, bytes int64) {
	s.segments.Add(n)
	s.bytes.Add(bytes)
}

// AddMaskSkipped counts segments a pipelined gate skipped outright, or a
// masked aggregate found no selected row in.
func (s *Stage) AddMaskSkipped(n int64) { s.maskSkipped.Add(n) }

// AddRows counts rows processed by row-oriented stages (lookups,
// projections, sorts).
func (s *Stage) AddRows(n, bytes int64) {
	s.rows.Add(n)
	s.bytes.Add(bytes)
}

// AddKept counts the rows a top-n stage kept out of the rows it read.
func (s *Stage) AddKept(n int64) { s.kept.Add(n) }

// AddBytes counts additional bytes touched (zone-map metadata, gate
// mask words).
func (s *Stage) AddBytes(n int64) { s.bytes.Add(n) }

// Snapshot captures the stage's current state.
func (s *Stage) Snapshot() StageStats {
	st := StageStats{
		Name:         s.Name,
		Kind:         s.Kind,
		Workers:      int(s.workers.Load()),
		Segments:     s.segments.Load(),
		ZoneSkipped:  s.zoneSkipped.Load(),
		MaskSkipped:  s.maskSkipped.Load(),
		Rows:         s.rows.Load(),
		Kept:         s.kept.Load(),
		BytesTouched: s.bytes.Load(),
		Batches:      s.batches.Load(),
		BatchNs:      s.batchNs.Snapshot(),
		WallNs:       s.wallNs.Load(),
	}
	for i := range s.depth {
		st.EarlyStop[i] = s.depth[i].Load()
	}
	return st
}

// StageStats is a point-in-time copy of one Stage.
type StageStats struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Workers is the worker-pool width the kernel used.
	Workers int `json:"workers"`
	// Segments counts 32-code segments whose column data was examined;
	// ZoneSkipped counts segments the zone map resolved without loading
	// data; MaskSkipped counts segments a pipelined gate skipped, or a
	// masked aggregate found no selected row in. For a full-column scan,
	// Segments + ZoneSkipped (+ MaskSkipped on pipelined stages) equals
	// the column's segment count.
	Segments    int64 `json:"segments"`
	ZoneSkipped int64 `json:"zone_skipped"`
	MaskSkipped int64 `json:"mask_skipped,omitempty"`
	// Rows counts rows for row-oriented stages (lookup, project, sort,
	// top); Kept is how many of them a top stage kept.
	Rows int64 `json:"rows,omitempty"`
	Kept int64 `json:"kept,omitempty"`
	// BytesTouched is the column data (plus metadata) the stage read.
	BytesTouched int64 `json:"bytes_touched"`
	// EarlyStop is the byte-level early-stop histogram: EarlyStop[0]
	// counts zone-resolved segments, EarlyStop[d] segments that loaded d
	// byte slices before the segment's outcome was decided.
	EarlyStop [MaxDepth + 1]int64 `json:"early_stop"`
	// Batches and BatchNs describe the kernel's cancellation batches
	// (256 segments each): count and wall-time histogram.
	Batches int64        `json:"batches"`
	BatchNs HistSnapshot `json:"batch_ns"`
	// WallNs is the stage's end-to-end wall time as the facade saw it.
	WallNs int64 `json:"wall_ns"`
}

// Merge folds o into s (used when combining per-worker or per-group
// snapshots of the same logical stage).
func (s *StageStats) Merge(o StageStats) {
	s.Segments += o.Segments
	s.ZoneSkipped += o.ZoneSkipped
	s.MaskSkipped += o.MaskSkipped
	s.Rows += o.Rows
	s.Kept += o.Kept
	s.BytesTouched += o.BytesTouched
	for i := range s.EarlyStop {
		s.EarlyStop[i] += o.EarlyStop[i]
	}
	s.Batches += o.Batches
	s.BatchNs.Merge(o.BatchNs)
	s.WallNs += o.WallNs
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
}

// Query is the live per-query collector. The facade creates one per
// observed evaluation, attaches a Stage per kernel invocation, and
// snapshots it into a QueryStats for Result.Stats().
type Query struct {
	mu       sync.Mutex
	stages   []*Stage
	plan     string
	strategy string
	workers  int
	panics   atomic.Int64
	cancels  atomic.Int64
	wallNs   atomic.Int64
}

// NewQuery returns an empty collector.
func NewQuery() *Query { return &Query{} }

// SetPlan records the planner's decision: the full Explain rendering,
// the chosen strategy name and the worker-pool size.
func (q *Query) SetPlan(plan, strategy string, workers int) {
	q.mu.Lock()
	q.plan, q.strategy, q.workers = plan, strategy, workers
	q.mu.Unlock()
}

// NewStage registers and returns a new stage.
func (q *Query) NewStage(name, kind string) *Stage {
	st := &Stage{Name: name, Kind: kind}
	q.mu.Lock()
	q.stages = append(q.stages, st)
	q.mu.Unlock()
	return st
}

// RecordPanic counts a recovered kernel worker panic.
func (q *Query) RecordPanic() { q.panics.Add(1) }

// RecordCancel counts a context cancellation.
func (q *Query) RecordCancel() { q.cancels.Add(1) }

// AddWallNs accumulates evaluation wall time.
func (q *Query) AddWallNs(ns int64) { q.wallNs.Add(ns) }

// Absorb appends o's stages and plan blocks to q (used when an
// expression evaluation combines several group evaluations).
func (q *Query) Absorb(o *Query) {
	if o == nil || o == q {
		return
	}
	o.mu.Lock()
	stages, plan, strategy, workers := o.stages, o.plan, o.strategy, o.workers
	o.mu.Unlock()
	q.mu.Lock()
	q.stages = append(q.stages, stages...)
	if plan != "" {
		if q.plan != "" {
			q.plan += "\n"
		}
		q.plan += plan
	}
	if q.strategy == "" {
		q.strategy, q.workers = strategy, workers
	}
	q.mu.Unlock()
	q.panics.Add(o.panics.Load())
	q.cancels.Add(o.cancels.Load())
	q.wallNs.Add(o.wallNs.Load())
}

// Snapshot captures the query's current state.
func (q *Query) Snapshot() *QueryStats {
	q.mu.Lock()
	stages := make([]*Stage, len(q.stages))
	copy(stages, q.stages)
	qs := &QueryStats{
		Plan:     q.plan,
		Strategy: q.strategy,
		Workers:  q.workers,
	}
	q.mu.Unlock()
	qs.Panics = q.panics.Load()
	qs.Cancels = q.cancels.Load()
	qs.WallNs = q.wallNs.Load()
	for _, st := range stages {
		qs.Stages = append(qs.Stages, st.Snapshot())
	}
	return qs
}

// QueryStats is the typed per-query statistics snapshot returned by
// Result.Stats().
type QueryStats struct {
	// Plan is the planner's Explain rendering (one block per evaluated
	// group); Strategy the chosen strategy name; Workers the planned
	// worker-pool size.
	Plan     string `json:"plan"`
	Strategy string `json:"strategy"`
	Workers  int    `json:"workers"`
	// WallNs is total evaluation wall time; Panics/Cancels count
	// recovered kernel faults and context cancellations.
	WallNs  int64 `json:"wall_ns"`
	Panics  int64 `json:"panics"`
	Cancels int64 `json:"cancels"`
	// Stages are the executed plan stages in execution order.
	Stages []StageStats `json:"stages"`
}

// SegmentsScanned sums the segments whose data every stage examined.
func (qs *QueryStats) SegmentsScanned() int64 {
	var n int64
	for i := range qs.Stages {
		n += qs.Stages[i].Segments
	}
	return n
}

// ZoneSkipped sums the segments zone maps resolved without data loads.
func (qs *QueryStats) ZoneSkipped() int64 {
	var n int64
	for i := range qs.Stages {
		n += qs.Stages[i].ZoneSkipped
	}
	return n
}

// BytesTouched sums the bytes every stage read.
func (qs *QueryStats) BytesTouched() int64 {
	var n int64
	for i := range qs.Stages {
		n += qs.Stages[i].BytesTouched
	}
	return n
}

// EarlyStopDepths sums the stages' early-stop histograms elementwise.
func (qs *QueryStats) EarlyStopDepths() DepthCounts {
	var d DepthCounts
	for i := range qs.Stages {
		for j, n := range qs.Stages[i].EarlyStop {
			d[j] += n
		}
	}
	return d
}

// Merge folds o into qs: scalars add, stages append.
func (qs *QueryStats) Merge(o *QueryStats) {
	if o == nil {
		return
	}
	if o.Plan != "" {
		if qs.Plan != "" {
			qs.Plan += "\n"
		}
		qs.Plan += o.Plan
	}
	if qs.Strategy == "" {
		qs.Strategy, qs.Workers = o.Strategy, o.Workers
	}
	qs.WallNs += o.WallNs
	qs.Panics += o.Panics
	qs.Cancels += o.Cancels
	qs.Stages = append(qs.Stages, o.Stages...)
}

// fmtBytes renders a byte count for Analyze.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// fmtNs renders a nanosecond duration for Analyze.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

// Analyze renders the executed stages — the "explain analyze" section
// Result.Explain appends below the planner's decision.
func (qs *QueryStats) Analyze() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analyze: %d stage(s), wall %s", len(qs.Stages), fmtNs(qs.WallNs))
	if qs.Panics > 0 || qs.Cancels > 0 {
		fmt.Fprintf(&b, ", panics %d, cancels %d", qs.Panics, qs.Cancels)
	}
	for i := range qs.Stages {
		st := &qs.Stages[i]
		fmt.Fprintf(&b, "\n  %s: ", st.Name)
		if st.Rows > 0 || st.Kind == "top" {
			fmt.Fprintf(&b, "rows %d", st.Rows)
			if st.Kind == "top" {
				fmt.Fprintf(&b, ", kept %d", st.Kept)
			}
		} else {
			fmt.Fprintf(&b, "segments %d", st.Segments)
			if st.ZoneSkipped > 0 {
				fmt.Fprintf(&b, " (+%d zone-skipped)", st.ZoneSkipped)
			}
			if st.MaskSkipped > 0 {
				fmt.Fprintf(&b, " (+%d mask-skipped)", st.MaskSkipped)
			}
		}
		var hasDepth bool
		for d, n := range st.EarlyStop {
			if d >= 1 && n > 0 {
				hasDepth = true
			}
		}
		if hasDepth {
			b.WriteString(", depth[")
			first := true
			for d, n := range st.EarlyStop {
				if n == 0 {
					continue
				}
				if !first {
					b.WriteString(" ")
				}
				fmt.Fprintf(&b, "%d:%d", d, n)
				first = false
			}
			b.WriteString("]")
		}
		fmt.Fprintf(&b, ", %s touched", fmtBytes(st.BytesTouched))
		if st.Workers > 0 {
			fmt.Fprintf(&b, ", workers %d", st.Workers)
		}
		if st.Batches > 0 {
			fmt.Fprintf(&b, ", batches %d (mean %s)", st.Batches, fmtNs(int64(st.BatchNs.MeanNs())))
		}
		fmt.Fprintf(&b, ", wall %s", fmtNs(st.WallNs))
	}
	return b.String()
}

// Tracer observes span start/end per plan stage. Implementations must be
// safe for concurrent use; the kernel never calls them from worker
// goroutines (spans open and close on the query's goroutine), so a
// tracer adapting to OpenTelemetry or runtime/trace needs no extra
// synchronisation beyond its own. A nil Tracer (the default) costs one
// predictable branch per stage.
type Tracer interface {
	// StartSpan opens a span for the named stage and returns the
	// function that closes it.
	StartSpan(name string) (end func())
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(name string) func()

// StartSpan implements Tracer.
func (f TracerFunc) StartSpan(name string) func() { return f(name) }
