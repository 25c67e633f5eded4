// Package serve implements the multi-tenant query service over ByteSlice
// tables: a catalog mounting snapshot files (LoadFile) and ingest
// directories (OpenIngest), admission control with per-query deadlines, a
// scheduler that shares one worker pool across concurrent queries instead
// of oversubscribing the machine, a result cache keyed on (table version,
// normalized query), and per-tenant accounting folded into the
// process-wide observability registry. cmd/bsserve wraps it in a binary;
// the package itself is embeddable (tests and bsbench run it in-process).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"byteslice"
	"byteslice/internal/obs"
)

// Typed request-failure sentinels. The HTTP layer maps them onto status
// codes; embedders match them with errors.Is.
var (
	// ErrOverloaded marks a request rejected at the admission bound
	// before touching the worker pool (HTTP 429).
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrNoTable marks a request naming an unmounted table (HTTP 404).
	ErrNoTable = errors.New("serve: no such table")
	// ErrBadQuery marks a request the parser or planner rejected —
	// malformed predicate tree, unknown column, wrong constant type
	// (HTTP 400).
	ErrBadQuery = errors.New("serve: bad query")
	// ErrUnsupported marks an operation the mounted table cannot run —
	// aggregates and projections need an immutable snapshot table, not a
	// live ingest view (HTTP 400).
	ErrUnsupported = errors.New("serve: unsupported operation")
)

// Config parameterises a Server. The zero value is usable: every field
// has a serving-sane default.
type Config struct {
	// MaxInflight bounds admitted concurrent queries; a request past the
	// bound fails with ErrOverloaded without touching the worker pool.
	// Default 64.
	MaxInflight int
	// Workers is the shared worker-pool size: the total kernel
	// parallelism across all in-flight queries. A lone query gets the
	// whole pool; under load each query gets a fair share (always at
	// least one lane). Default runtime.NumCPU().
	Workers int
	// CacheEntries caps the result cache; 0 means the default 1024,
	// negative disables caching.
	CacheEntries int
	// DefaultTimeout applies to requests naming no deadline (default
	// 2s); MaxTimeout caps requested deadlines (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxTenants caps distinct per-tenant stat buckets; tenants past the
	// cap account under "other". Default 64.
	MaxTenants int
	// Explain lets requests ask for the planner/analyze rendering in
	// responses. Off by default: plans leak schema details and the
	// rendering is not free.
	Explain bool
	// Registry receives the serving counters; nil means obs.Default.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	return c
}

// Server is the query service: a catalog of mounted tables plus the
// admission, scheduling, caching and accounting machinery around them.
// All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	cat   *Catalog
	adm   *admission
	pool  *workerPool
	cache *resultCache

	// tenantMu guards the distinct-tenant cap (the TenantSet itself is
	// concurrency-safe; the cap check must be atomic with insertion).
	tenantMu sync.Mutex
	tenantN  int

	// testHook, when set (tests only), runs inside every admitted query
	// between admission and execution with the query's context — the
	// deterministic way to hold queries in flight or outlive deadlines.
	testHook func(ctx context.Context)
}

// New returns a Server over an empty catalog.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		adm:  newAdmission(cfg.MaxInflight),
		pool: newWorkerPool(cfg.Workers),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries)
	}
	s.cat = newCatalog(cfg.Registry)
	return s
}

// Catalog returns the server's table catalog for mounting.
func (s *Server) Catalog() *Catalog { return s.cat }

// Close releases the catalog's resources (ingest tables stop their
// mergers and close their WALs).
func (s *Server) Close() error { return s.cat.Close() }

// stats returns the registry's serving counters.
func (s *Server) stats() *obs.ServeStats { return &s.cfg.Registry.Serve }

// tenantStats resolves the request's tenant bucket, enforcing the
// distinct-tenant cap: the first MaxTenants names get their own bucket,
// later ones share "other" so a tenant-name cardinality attack cannot
// grow the registry without bound.
func (s *Server) tenantStats(name string) (string, *obs.TenantStats) {
	if name == "" {
		name = "anon"
	}
	set := &s.cfg.Registry.Tenants
	if t := set.Lookup(name); t != nil {
		return name, t
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if t := set.Lookup(name); t != nil {
		return name, t
	}
	if s.tenantN >= s.cfg.MaxTenants && name != "other" {
		return "other", set.Get("other")
	}
	s.tenantN++
	return name, set.Get(name)
}

// admission is the in-flight bound: a non-blocking counting semaphore.
// Rejected requests never touch the worker pool, so overload cannot slow
// the queries already running.
type admission struct {
	slots chan struct{}
}

func newAdmission(n int) *admission {
	return &admission{slots: make(chan struct{}, n)}
}

// tryAcquire claims a slot without blocking.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (a *admission) release() { <-a.slots }

// workerPool shares a fixed number of kernel-parallelism lanes across
// concurrent queries. Each admitted query takes up to its fair share of
// the free lanes without blocking and runs with that many workers — a
// lone query gets the whole machine, 8 concurrent queries get ~1/8th
// each. A query that finds no free lane runs with one unreserved worker,
// so progress never deadlocks; with admission bounded, total parallelism
// is capped at Workers + MaxInflight rather than the
// queries × NumCPU oversubscription of naive per-query pools.
type workerPool struct {
	mu    sync.Mutex
	total int
	free  int
}

func newWorkerPool(n int) *workerPool {
	return &workerPool{total: n, free: n}
}

// acquire claims up to `want` lanes (non-blocking) and returns (granted,
// workers): `granted` must be released, `workers` ≥ 1 is the parallelism
// to run with.
func (p *workerPool) acquire(want int) (granted, workers int) {
	if want < 1 {
		want = 1
	}
	p.mu.Lock()
	granted = want
	if granted > p.free {
		granted = p.free
	}
	p.free -= granted
	p.mu.Unlock()
	if granted < 1 {
		return granted, 1
	}
	return granted, granted
}

func (p *workerPool) release(granted int) {
	if granted <= 0 {
		return
	}
	p.mu.Lock()
	p.free += granted
	p.mu.Unlock()
}

// freeLanes reports the currently unreserved lanes (tests assert rejected
// queries leave the pool untouched).
func (p *workerPool) freeLanes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free
}

// fairShare sizes one query's lane request: the pool divided by the
// queries in flight, at least one.
func (s *Server) fairShare() int {
	inflight := int(s.stats().Inflight.Load())
	if inflight < 1 {
		inflight = 1
	}
	share := s.cfg.Workers / inflight
	if share < 1 {
		share = 1
	}
	return share
}

// deadline resolves a request's per-query deadline: the configured
// default when the request names none, capped at MaxTimeout. A negative
// TimeoutMs yields an already-expired deadline — the documented way to
// drill cancellation end to end.
func (s *Server) deadline(timeoutMs int) time.Duration {
	switch {
	case timeoutMs == 0:
		return s.cfg.DefaultTimeout
	case timeoutMs < 0:
		return -time.Millisecond
	}
	d := time.Duration(timeoutMs) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// errCode classifies a request failure for the response envelope and the
// HTTP status mapping. An append's typed failures map the same way: a row
// that does not fit the schema is a bad request, and ingest backpressure
// is overload.
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, byteslice.ErrBackpressure):
		return "overloaded"
	case errors.Is(err, ErrNoTable):
		return "not_found"
	case errors.Is(err, ErrUnsupported):
		return "unsupported"
	case errors.Is(err, ErrBadQuery), errors.Is(err, byteslice.ErrSchema):
		return "bad_query"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "internal"
}

// badQuery wraps a parse/validation failure with the ErrBadQuery
// sentinel. Never pass an error through its format verbs — that
// flattens the cause; use badQueryErr so errors.Is keeps matching.
func badQuery(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadQuery, fmt.Sprintf(format, args...))
}

// badQueryErr tags a failure as a bad query while preserving the
// cause's identity: both ErrBadQuery and the original error stay
// matchable through errors.Is/As. The rendered message is identical to
// badQuery("%v", err).
func badQueryErr(err error) error {
	return fmt.Errorf("%w: %w", ErrBadQuery, err)
}
