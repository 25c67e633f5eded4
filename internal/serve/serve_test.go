package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"byteslice"
	"byteslice/internal/obs"
)

// testTable builds a small table: qty (int), price (decimal), mode
// (string dictionary), with one NULL qty.
func testTable(t *testing.T) *byteslice.Table {
	t.Helper()
	qty, err := byteslice.NewIntColumn("qty", []int64{5, 50, 7, 80, 12, 50}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	price, err := byteslice.NewDecimalColumn("price", []float64{1.5, 2.5, 0.5, 9.0, 4.5, 2.5}, 0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := byteslice.NewStringColumn("mode", []string{"AIR", "SHIP", "AIR", "RAIL", "SHIP", "AIR"})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(qty, price, mode)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// newTestServer builds a server over a fresh registry with the test
// table mounted as "t".
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = &obs.Registry{}
	}
	s := New(cfg)
	t.Cleanup(func() { s.Close() }) //nolint:errcheck // mem mounts hold nothing
	if err := s.cat.MountTable("t", testTable(t)); err != nil {
		t.Fatal(err)
	}
	return s
}

func leaf(col, op string, args ...any) *Node {
	return &Node{Col: col, Op: op, Args: args}
}

func countReq(table string, where *Node) *Request {
	return &Request{Table: table, Where: where}
}

func mustDo(t *testing.T, s *Server, req *Request) *Response {
	t.Helper()
	resp, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do(%+v): %v", req, err)
	}
	return resp
}

func TestNormalizeCommutes(t *testing.T) {
	a := &Node{All: []Node{*leaf("qty", "ge", 10), *leaf("mode", "eq", "AIR")}}
	b := &Node{All: []Node{*leaf("mode", "eq", "AIR"), *leaf("qty", "ge", 10)}}
	ka, err := a.normalize()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("reordered conjuncts got different keys:\n%q\n%q", ka, kb)
	}
	c := &Node{All: []Node{*leaf("qty", "ge", 11), *leaf("mode", "eq", "AIR")}}
	kc, err := c.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatalf("different constants share a key: %q", kc)
	}
	// any and all must not collide even over identical children.
	d := &Node{Any: []Node{*leaf("qty", "ge", 10), *leaf("mode", "eq", "AIR")}}
	kd, err := d.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if kd == ka {
		t.Fatalf("any/all share a key: %q", kd)
	}
}

func TestNormalizeRejectsMalformed(t *testing.T) {
	cases := []*Node{
		{},                // empty
		{All: []Node{{}}}, // empty child
		{Col: "qty"},      // leaf without op
		{Col: "qty", Op: "eq", Args: []any{1}, All: []Node{*leaf("qty", "eq", 1)}}, // leaf + group
		{All: []Node{*leaf("qty", "eq", 1)}, Any: []Node{*leaf("qty", "eq", 1)}},   // all + any
		{Col: "qty", Op: "like", Args: []any{1}},                                   // unknown op
	}
	for i, n := range cases {
		if _, err := n.normalize(); !errors.Is(err, ErrBadQuery) {
			t.Errorf("case %d: err = %v, want ErrBadQuery", i, err)
		}
	}
}

func TestQueryCountRowsAggregates(t *testing.T) {
	s := newTestServer(t, Config{})

	resp := mustDo(t, s, countReq("t", leaf("qty", "ge", 50)))
	if resp.Count != 3 {
		t.Fatalf("count = %d, want 3", resp.Count)
	}
	if resp.Epoch != 1 || resp.Rows != 6 {
		t.Fatalf("epoch/rows = %d/%d, want 1/6", resp.Epoch, resp.Rows)
	}

	// Nested predicate: qty >= 50 AND (mode = AIR OR mode = SHIP) → rows 1, 5.
	nested := &Node{All: []Node{
		*leaf("qty", "ge", 50),
		{Any: []Node{*leaf("mode", "eq", "AIR"), *leaf("mode", "eq", "SHIP")}},
	}}
	resp = mustDo(t, s, countReq("t", nested))
	if resp.Count != 2 {
		t.Fatalf("nested count = %d, want 2", resp.Count)
	}

	rows := mustDo(t, s, &Request{Table: "t", Op: "rows", Where: nested, Cols: []string{"price", "mode"}})
	if want := []int32{1, 5}; len(rows.RowIDs) != 2 || rows.RowIDs[0] != want[0] || rows.RowIDs[1] != want[1] {
		t.Fatalf("row ids = %v, want %v", rows.RowIDs, want)
	}
	if d := rows.Data["price"]; d == nil || len(d.Decimals) != 2 || d.Decimals[0] != 2.5 || d.Decimals[1] != 2.5 {
		t.Fatalf("price projection = %+v", rows.Data["price"])
	}
	if d := rows.Data["mode"]; d == nil || len(d.Strings) != 2 || d.Strings[0] != "SHIP" || d.Strings[1] != "AIR" {
		t.Fatalf("mode projection = %+v", rows.Data["mode"])
	}

	ordered := mustDo(t, s, &Request{Table: "t", Op: "rows", Where: leaf("qty", "ge", 7), OrderBy: "price", Limit: 2})
	// Matching rows 1,2,3,4,5; cheapest two by price: row 2 (0.5), then a 2.5.
	if len(ordered.RowIDs) != 2 || ordered.RowIDs[0] != 2 {
		t.Fatalf("ordered ids = %v, want [2 ...]", ordered.RowIDs)
	}

	sum := mustDo(t, s, &Request{Table: "t", Op: "sum", Col: "qty", Where: leaf("mode", "eq", "AIR")})
	if sum.IntValue == nil || *sum.IntValue != 62 {
		t.Fatalf("sum = %v, want 62", sum.IntValue)
	}
	avg := mustDo(t, s, &Request{Table: "t", Op: "avg", Col: "price", Where: leaf("mode", "eq", "SHIP")})
	if avg.Value == nil || *avg.Value != 3.5 {
		t.Fatalf("avg = %v, want 3.5", avg.Value)
	}
	minS := mustDo(t, s, &Request{Table: "t", Op: "min", Col: "mode", Where: leaf("qty", "ge", 50)})
	if minS.StrValue == nil || *minS.StrValue != "AIR" {
		t.Fatalf("min mode = %v, want AIR", minS.StrValue)
	}
	maxI := mustDo(t, s, &Request{Table: "t", Op: "max", Col: "qty", Where: leaf("mode", "ne", "RAIL")})
	if maxI.IntValue == nil || *maxI.IntValue != 50 {
		t.Fatalf("max qty = %v, want 50", maxI.IntValue)
	}
}

func TestBadQueries(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []*Request{
		{Table: "t"},                                                           // no where
		{Where: leaf("qty", "eq", 1)},                                          // no table
		countReq("t", leaf("nope", "eq", 1)),                                   // unknown column
		countReq("t", leaf("qty", "eq", "hello")),                              // type mismatch
		countReq("t", leaf("qty", "between", 1)),                               // arity
		countReq("t", leaf("qty", "like", 1)),                                  // unknown op
		{Table: "t", Op: "sum", Where: leaf("qty", "eq", 1)},                   // sum without col
		{Table: "t", Op: "sum", Col: "mode", Where: leaf("qty", "eq", 1)},      // sum over string
		{Table: "t", Op: "count", OrderBy: "qty", Where: leaf("qty", "eq", 1)}, // order_by on count
	}
	for i, req := range cases {
		if _, err := s.Do(context.Background(), req); !errors.Is(err, ErrBadQuery) {
			t.Errorf("case %d: err = %v, want ErrBadQuery", i, err)
		}
	}
	if _, err := s.Do(context.Background(), countReq("missing", leaf("qty", "eq", 1))); !errors.Is(err, ErrNoTable) {
		t.Errorf("unknown table: err = %v, want ErrNoTable", err)
	}
}

func TestDecodeRequestPrecision(t *testing.T) {
	req, err := DecodeRequest([]byte(`{"table":"t","where":{"col":"qty","op":"eq","args":[9007199254740993]}}`))
	if err != nil {
		t.Fatal(err)
	}
	num, ok := req.Where.Args[0].(json.Number)
	if !ok {
		t.Fatalf("arg decoded as %T, want json.Number", req.Where.Args[0])
	}
	if v, err := num.Int64(); err != nil || v != 9007199254740993 {
		t.Fatalf("arg = %v (%v), want 9007199254740993 exact", v, err)
	}
	if _, err := DecodeRequest([]byte(`{"table":"t","wherez":{}}`)); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("unknown field: err = %v, want ErrBadQuery", err)
	}
}

// TestAdmissionOverload holds MaxInflight queries in flight and asserts
// the next request fails with the typed overload error without touching
// the worker pool.
func TestAdmissionOverload(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2, Workers: 4})
	inHook := make(chan struct{})
	releaseHook := make(chan struct{})
	s.testHook = func(ctx context.Context) {
		inHook <- struct{}{}
		<-releaseHook
	}

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Do(context.Background(), countReq("t", leaf("qty", "ge", 50)))
			done <- err
		}()
	}
	<-inHook
	<-inHook

	// Both slots held before any worker lane is claimed: the pool must be
	// untouched both now and across the rejection.
	if free := s.pool.freeLanes(); free != 4 {
		t.Fatalf("freeLanes = %d before rejection, want 4", free)
	}
	_, err := s.Do(context.Background(), &Request{Table: "t", Tenant: "burst", Where: leaf("qty", "ge", 50)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third query err = %v, want ErrOverloaded", err)
	}
	if free := s.pool.freeLanes(); free != 4 {
		t.Fatalf("freeLanes = %d after rejection, want 4", free)
	}

	st := s.stats().Snapshot()
	if st.Overloads != 1 || st.Admitted != 2 || st.Inflight != 2 {
		t.Fatalf("stats = %+v, want overloads 1, admitted 2, inflight 2", st)
	}
	ten := s.cfg.Registry.Tenants.Lookup("burst")
	if ten == nil || ten.Overloads.Load() != 1 || ten.Queries.Load() != 0 {
		t.Fatalf("tenant burst overload accounting wrong: %+v", ten)
	}

	close(releaseHook)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("held query failed: %v", err)
		}
	}
	if got := s.stats().Inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
}

// TestDeadlineExpired drills both deadline paths: a pre-expired deadline
// (negative timeout) and a deadline that lapses mid-request. Both must
// surface context.DeadlineExceeded — never a partial result.
func TestDeadlineExpired(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, err := s.Do(context.Background(), &Request{Table: "t", TimeoutMs: -1, Where: leaf("qty", "ge", 50)})
	if resp != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pre-expired: resp = %v, err = %v, want nil + DeadlineExceeded", resp, err)
	}

	// Mid-request: the hook waits out the 5ms deadline, then the scan
	// starts with an already-cancelled context.
	s.testHook = func(ctx context.Context) { <-ctx.Done() }
	resp, err = s.Do(context.Background(), &Request{Table: "t", TimeoutMs: 5, Where: leaf("qty", "ge", 50)})
	if resp != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-request: resp = %v, err = %v, want nil + DeadlineExceeded", resp, err)
	}
	s.testHook = nil

	if got := s.stats().Deadlines.Load(); got != 2 {
		t.Fatalf("deadlines counter = %d, want 2", got)
	}
	// The deadline machinery must not poison later queries.
	if resp := mustDo(t, s, countReq("t", leaf("qty", "ge", 50))); resp.Count != 3 {
		t.Fatalf("post-deadline count = %d, want 3", resp.Count)
	}
}

// TestCacheEpochs drives the cache across an ingest table's lifecycle:
// hit on repeat, miss after an append (same epoch, more rows), miss
// after a merge (new epoch), hit again — with every response computed
// fresh agreeing with the cached one, i.e. zero stale hits.
func TestCacheEpochs(t *testing.T) {
	s := newTestServer(t, Config{})
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, testTable(t), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cat.add(&mount{name: "live", kind: "ingest", path: dir, ing: it}); err != nil {
		t.Fatal(err)
	}

	req := func() *Request { return countReq("live", leaf("qty", "ge", 50)) }
	r1 := mustDo(t, s, req())
	if r1.Cache != "miss" || r1.Count != 3 {
		t.Fatalf("first: cache %q count %d, want miss 3", r1.Cache, r1.Count)
	}
	r2 := mustDo(t, s, req())
	if r2.Cache != "hit" || r2.Count != 3 || r2.Checksum != r1.Checksum {
		t.Fatalf("repeat: cache %q count %d checksum %q, want hit 3 %q", r2.Cache, r2.Count, r2.Checksum, r1.Checksum)
	}

	// Append within the epoch: rows change, the cached entry must not
	// serve (epoch alone would be stale here — the rows half of the key
	// is what catches it).
	if err := it.Append(map[string]any{"qty": int64(90), "price": 5.0, "mode": "AIR"}); err != nil {
		t.Fatal(err)
	}
	r3 := mustDo(t, s, req())
	if r3.Cache != "miss" || r3.Count != 4 {
		t.Fatalf("post-append: cache %q count %d, want miss 4", r3.Cache, r3.Count)
	}
	if r3.Epoch != r1.Epoch || r3.Rows != r1.Rows+1 {
		t.Fatalf("post-append version = (%d,%d), want (%d,%d)", r3.Epoch, r3.Rows, r1.Epoch, r1.Rows+1)
	}

	// Merge publishes a new epoch: again a miss, then a hit at the new
	// version.
	if err := it.MergeNow(); err != nil {
		t.Fatal(err)
	}
	r4 := mustDo(t, s, req())
	if r4.Cache != "miss" || r4.Count != 4 || r4.Epoch <= r3.Epoch {
		t.Fatalf("post-merge: cache %q count %d epoch %d, want miss 4 > %d", r4.Cache, r4.Count, r4.Epoch, r3.Epoch)
	}
	r5 := mustDo(t, s, req())
	if r5.Cache != "hit" || r5.Count != 4 {
		t.Fatalf("post-merge repeat: cache %q count %d, want hit 4", r5.Cache, r5.Count)
	}

	st := s.stats().Snapshot()
	if st.CacheHits != 2 || st.CacheMisses != 3 {
		t.Fatalf("cache counters = %d hits / %d misses, want 2/3", st.CacheHits, st.CacheMisses)
	}

	// no_cache bypasses in both directions.
	bypass, err := s.Do(context.Background(), &Request{Table: "live", NoCache: true, Where: leaf("qty", "ge", 50)})
	if err != nil || bypass.Cache != "bypass" {
		t.Fatalf("no_cache: cache %q err %v, want bypass", bypass.Cache, err)
	}
}

func TestTenantCap(t *testing.T) {
	s := newTestServer(t, Config{MaxTenants: 2})
	for _, tenant := range []string{"a", "b", "c", "d"} {
		mustDo(t, s, &Request{Table: "t", Tenant: tenant, Where: leaf("qty", "ge", 50)})
	}
	set := &s.cfg.Registry.Tenants
	if set.Lookup("a") == nil || set.Lookup("b") == nil {
		t.Fatal("first two tenants should have their own buckets")
	}
	if set.Lookup("c") != nil || set.Lookup("d") != nil {
		t.Fatal("tenants past the cap must not get buckets")
	}
	other := set.Lookup("other")
	if other == nil || other.Queries.Load() != 2 {
		t.Fatalf("overflow bucket queries = %v, want 2", other)
	}
	if got := set.Lookup("a").Queries.Load(); got != 1 {
		t.Fatalf("tenant a queries = %d, want 1", got)
	}
}

func TestLiveMountUnsupportedOps(t *testing.T) {
	s := newTestServer(t, Config{})
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, testTable(t), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cat.add(&mount{name: "live", kind: "ingest", path: dir, ing: it}); err != nil {
		t.Fatal(err)
	}
	// Refused before the filter runs: no query reaches the registry.
	before := byteslice.StatsSnapshot().Queries
	for _, req := range []*Request{
		{Table: "live", Op: "sum", Col: "qty", Where: leaf("qty", "ge", 0)},
		{Table: "live", Op: "min", Col: "qty", Where: leaf("qty", "ge", 0)},
		{Table: "live", Op: "rows", Cols: []string{"qty"}, Where: leaf("qty", "ge", 0)},
		{Table: "live", Op: "rows", OrderBy: "qty", Where: leaf("qty", "ge", 0)},
	} {
		if _, err := s.Do(context.Background(), req); !errors.Is(err, ErrUnsupported) {
			t.Errorf("op %q on live mount: err = %v, want ErrUnsupported", req.Op, err)
		}
	}
	if after := byteslice.StatsSnapshot().Queries; after != before {
		t.Errorf("refused live-mount requests ran %d queries, want 0", after-before)
	}
	// Plain row ids stay supported on live mounts.
	resp := mustDo(t, s, &Request{Table: "live", Op: "rows", Where: leaf("qty", "ge", 50)})
	if len(resp.RowIDs) != 3 {
		t.Fatalf("live row ids = %v, want 3 ids", resp.RowIDs)
	}
}

func TestSnapshotReloadBumpsVersion(t *testing.T) {
	s := newTestServer(t, Config{})
	dir := t.TempDir()
	path := dir + "/t.bslc"
	if err := testTable(t).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.cat.MountSnapshot("snap", path); err != nil {
		t.Fatal(err)
	}

	r1 := mustDo(t, s, countReq("snap", leaf("qty", "ge", 50)))
	if r1.Cache != "miss" || r1.Epoch != 1 {
		t.Fatalf("first: cache %q epoch %d, want miss 1", r1.Cache, r1.Epoch)
	}

	// Rewrite the file with different content; force a distinct mtime for
	// filesystems with coarse timestamps.
	qty, err := byteslice.NewIntColumn("qty", []int64{99, 99}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	price, err := byteslice.NewDecimalColumn("price", []float64{1, 2}, 0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := byteslice.NewStringColumn("mode", []string{"AIR", "AIR"})
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := byteslice.NewTable(qty, price, mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	bumpMtime(t, path)

	n, err := s.cat.Reload()
	if err != nil || n != 1 {
		t.Fatalf("Reload = %d, %v, want 1, nil", n, err)
	}
	r2 := mustDo(t, s, countReq("snap", leaf("qty", "ge", 50)))
	if r2.Cache != "miss" || r2.Epoch != 2 || r2.Count != 2 {
		t.Fatalf("post-reload: cache %q epoch %d count %d, want miss 2 2", r2.Cache, r2.Epoch, r2.Count)
	}
	if got := s.stats().Reloads.Load(); got != 1 {
		t.Fatalf("reloads counter = %d, want 1", got)
	}
}

func bumpMtime(t *testing.T, path string) {
	t.Helper()
	now := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, now, now); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMountKeepsZoneMaps pins that a snapshot mount serves the
// zone maps its table was saved with: a range query over the
// date-ordered column resolves segments from the zone map alone, on a
// snapshot mount and on a reopened ingest mount.
func TestSnapshotMountKeepsZoneMaps(t *testing.T) {
	const n = 4096
	days := make([]int64, n)
	for i := range days {
		days[i] = int64(i / 16)
	}
	day, err := byteslice.NewIntColumn("day", days, 0, n/16, byteslice.WithZoneMaps())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(day)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := tbl.SaveFile(dir + "/day.bslc"); err != nil {
		t.Fatal(err)
	}
	it, err := byteslice.CreateIngest(dir+"/live", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	if err := s.cat.MountSnapshot("snap", dir+"/day.bslc"); err != nil {
		t.Fatal(err)
	}
	if err := s.cat.MountIngest("live", dir+"/live"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snap", "live"} {
		b, err := s.cat.bind(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.query(byteslice.Leaf(byteslice.IntFilter("day", byteslice.Between, 40, 60)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != 21*16 || res.ZoneSkipped() == 0 {
			t.Fatalf("%s: %d rows (want %d), %d zone-skipped segments (want > 0)", name, res.Count(), 21*16, res.ZoneSkipped())
		}
	}
}
