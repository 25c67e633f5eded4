package byteslice

import (
	"context"
	"errors"
	"net/http"
	"time"

	"byteslice/internal/obs"
)

// Query observability surface. Native (unprofiled) evaluations collect
// per-stage statistics by default — segments scanned, zone-map pruning,
// the byte-level early-stop depth histogram, bytes touched, worker count
// and per-batch wall times — and surface them three ways:
//
//   - Result.Stats() returns the typed QueryStats snapshot, and
//     Result.Explain() appends the executed-stage rendering below the
//     planner's decision ("explain analyze");
//   - every evaluation folds into the process-wide registry, exported via
//     expvar under the "byteslice" key and servable standalone through
//     ObsHandler();
//   - WithTracer attaches span start/end hooks per plan stage.
//
// WithObservability(false) disables per-query collection, putting the
// kernels back on their uninstrumented monolithic loops (measured <2%
// from the always-off path; see obs_overhead_test.go). Modelled
// (WithProfile) queries never collect here — their evidence is the
// profile's modelled counters.

// QueryStats is the per-query statistics snapshot returned by
// Result.Stats(); see the field docs in internal/obs.
type QueryStats = obs.QueryStats

// StageStats is one executed plan stage's statistics.
type StageStats = obs.StageStats

// HistSnapshot is a point-in-time copy of a duration histogram.
type HistSnapshot = obs.HistSnapshot

// HistBucket is one non-empty bucket of a HistSnapshot.
type HistBucket = obs.HistBucket

// RegistrySnapshot is the process-wide counters' JSON shape.
type RegistrySnapshot = obs.RegistrySnapshot

// Tracer observes span start/end per plan stage; see internal/obs.Tracer.
type Tracer = obs.Tracer

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc = obs.TracerFunc

// WithObservability enables (the default for native queries) or disables
// per-query statistics collection. Disabled queries skip all per-segment
// accounting; only Result.Stats() returning nil and the process-wide
// query counter distinguish them from the pre-observability engine.
func WithObservability(enabled bool) QueryOption {
	return func(c *queryConfig) { c.noObs = !enabled }
}

// WithTracer attaches span hooks to the evaluation: StartSpan fires when
// a plan stage begins and the returned func when it ends. Spans fire only
// while observability is enabled.
func WithTracer(tr Tracer) QueryOption {
	return func(c *queryConfig) { c.tracer = tr }
}

// ObsHandler returns an http.Handler serving the process-wide query
// statistics as indented JSON — the same snapshot expvar publishes under
// "byteslice", for callers that mount their own mux.
func ObsHandler() http.Handler { return obs.Default.Handler() }

// StatsSnapshot returns the process-wide registry snapshot: query,
// fault and cancellation counts, aggregate segment/byte counters,
// planner-strategy tallies and the query wall-time histogram.
func StatsSnapshot() RegistrySnapshot { return obs.Default.Snapshot() }

// obsQuery returns the live collector for this evaluation, or nil when
// observability is off (modelled path, or WithObservability(false)).
func (c *queryConfig) obsQuery() *obs.Query {
	if c.native() && !c.noObs {
		return obs.NewQuery()
	}
	return nil
}

// resQuery returns the collector a call over res records its stages in:
// res's own, or nil when the call runs modelled or unobserved.
func (c *queryConfig) resQuery(res *Result) *obs.Query {
	if c.native() && !c.noObs {
		return res.stats
	}
	return nil
}

// stage opens one plan stage: it registers a Stage on q, starts the
// tracer span, and returns the stage plus a close func recording the
// stage's wall time. With q == nil both returns are no-ops (st == nil
// keeps the kernels uninstrumented).
func (c *queryConfig) stage(q *obs.Query, name, kind string) (*obs.Stage, func()) {
	if q == nil {
		return nil, func() {}
	}
	st := q.NewStage(name, kind)
	var endSpan func()
	if c.tracer != nil {
		endSpan = c.tracer.StartSpan(name)
	}
	t0 := time.Now()
	return st, func() {
		st.SetWallNs(time.Since(t0).Nanoseconds())
		if endSpan != nil {
			endSpan()
		}
	}
}

// aggStage opens a self-contained single-stage collector for an
// aggregate entry point (sum, min/max, grouped sum): the stage
// feeds the process-wide registry when the returned finish runs. Both
// returns are no-ops when observability is off.
func (c *queryConfig) aggStage(name, kind string) (*obs.Stage, func(err error)) {
	q := c.obsQuery()
	if q == nil {
		return nil, func(error) {}
	}
	t0 := time.Now()
	st, done := c.stage(q, name, kind)
	return st, func(err error) {
		done()
		finishQuery(q, t0, err)
	}
}

// finishQuery closes the collector: total wall time, fault/cancellation
// classification, and the fold into the process-wide registry. Safe with
// q == nil.
func finishQuery(q *obs.Query, t0 time.Time, err error) {
	if q == nil {
		return
	}
	q.AddWallNs(time.Since(t0).Nanoseconds())
	switch {
	case err == nil:
	case errors.Is(err, ErrQueryFault):
		q.RecordPanic()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		q.RecordCancel()
	}
	obs.Default.RecordQuery(q)
}
