package serve

import (
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"byteslice"
	"byteslice/internal/obs"
)

// A served request's result vector goes back to its table's pool when
// the request ends, and a later request reuses it. These tests pin both
// halves: the saving, and that a reused vector never carries a previous
// answer.

// reuseTable builds an n-row table: v (int, uniform), d (int, sorted,
// zone-mapped), c (int, clustered, compressed), q (int with a NULL every
// 7th row) and s (string).
func reuseTable(t *testing.T, n int) *byteslice.Table {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 11))
	vs, ds, cs, qs, ss := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]string, n)
	var nulls []int
	for i := 0; i < n; i++ {
		vs[i] = int64(rng.IntN(100000))
		ds[i] = int64(i * 2000 / n)
		cs[i] = int64(i / 600)
		qs[i] = int64(rng.IntN(50))
		if i%7 == 0 {
			nulls = append(nulls, i)
		}
		ss[i] = []string{"AIR", "SHIP", "RAIL", "MAIL"}[rng.IntN(4)]
	}
	v, err := byteslice.NewIntColumn("v", vs, 0, 99999)
	if err != nil {
		t.Fatal(err)
	}
	d, err := byteslice.NewIntColumn("d", ds, 0, 1999, byteslice.WithZoneMaps())
	if err != nil {
		t.Fatal(err)
	}
	c, err := byteslice.NewIntColumn("c", cs, 0, int64(n/600), byteslice.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	q, err := byteslice.NewIntColumn("q", qs, 0, 49, byteslice.WithNulls(nulls))
	if err != nil {
		t.Fatal(err)
	}
	s, err := byteslice.NewStringColumn("s", ss)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(v, d, c, q, s)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// reuseServer mounts tbl as "t" on a new server with its own registry.
func reuseServer(t *testing.T, tbl *byteslice.Table) *Server {
	t.Helper()
	s := New(Config{Registry: &obs.Registry{}})
	t.Cleanup(func() { s.Close() }) //nolint:errcheck // mem mounts hold nothing
	if err := s.cat.MountTable("t", tbl); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServedRequestAllocs: once warm, a served count or sum on a 1Mi-row
// table reuses its 128 KiB result vector instead of allocating one, so a
// request allocates well under the vector's size.
func TestServedRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random quarter of the vectors it is given")
	}
	const n = 1 << 20
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i * 7 % 100000)
	}
	v, err := byteslice.NewIntColumn("v", vs, 0, 99999)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(v)
	if err != nil {
		t.Fatal(err)
	}
	s := reuseServer(t, tbl)
	for _, op := range []string{"count", "sum"} {
		req := func(i int) *Request {
			r := &Request{Table: "t", Op: op, Where: leaf("v", "lt", 1000+i), NoCache: true}
			if op == "sum" {
				r.Col = "v"
			}
			return r
		}
		for i := 0; i < 20; i++ {
			mustDo(t, s, req(i))
		}
		const reqs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reqs; i++ {
			mustDo(t, s, req(i))
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / reqs; per >= 32<<10 {
			t.Errorf("op %s: %d bytes allocated per request, want under 32 KiB", op, per)
		}
	}
}

// reuseRequests returns requests of every op over predicates that take
// each result-vector path: native scans over plain, zoned, compressed and
// nullable columns, pipelined conjunctions (which use a second vector),
// disjunctions, nested expressions, and the trivial-filter shortcuts.
func reuseRequests(rng *rand.Rand) []*Request {
	wheres := []func() *Node{
		func() *Node { return leaf("v", "lt", rng.IntN(100000)) },
		func() *Node { return leaf("d", "between", rng.IntN(1000), 1000+rng.IntN(1000)) },
		func() *Node { return leaf("c", "ge", rng.IntN(1800)) },
		func() *Node { return leaf("q", "le", rng.IntN(50)) },
		func() *Node {
			return &Node{All: []Node{*leaf("d", "ge", rng.IntN(2000)), *leaf("v", "lt", rng.IntN(100000)), *leaf("s", "eq", "AIR")}}
		},
		func() *Node {
			return &Node{Any: []Node{*leaf("q", "eq", rng.IntN(50)), *leaf("v", "gt", 90000+rng.IntN(10000))}}
		},
		func() *Node {
			return &Node{All: []Node{
				{Any: []Node{*leaf("s", "eq", "SHIP"), *leaf("c", "lt", rng.IntN(1800))}},
				*leaf("v", "ge", rng.IntN(100000)),
			}}
		},
		// Constants outside a column's domain decide a filter trivially.
		func() *Node { return leaf("d", "gt", 5000) },                                            // false
		func() *Node { return &Node{All: []Node{*leaf("v", "ge", -1), *leaf("d", "ge", -1)}} },   // all neutral: every row
		func() *Node { return leaf("q", "ge", -1) },                                              // every non-NULL row
		func() *Node { return &Node{Any: []Node{*leaf("v", "lt", -1), *leaf("v", "ge", -1)}} },   // true OR …
		func() *Node { return &Node{Any: []Node{*leaf("v", "lt", -1), *leaf("d", "gt", 5000)}} }, // all neutral: no row
	}
	var reqs []*Request
	for i := 0; i < 240; i++ {
		req := &Request{Table: "t", Where: wheres[rng.IntN(len(wheres))](), NoCache: true}
		switch i % 4 {
		case 0:
			req.Op = "count"
		case 1:
			req.Op, req.Col = "sum", []string{"v", "c", "q"}[rng.IntN(3)]
		case 2:
			req.Op, req.Col = "min", []string{"v", "d", "c", "q"}[rng.IntN(4)]
		default:
			req.Op, req.OrderBy, req.Limit = "rows", []string{"v", "d", "q"}[rng.IntN(3)], 1+rng.IntN(50)
			req.Cols = []string{"v", "s"}
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// TestServedResultsIsolated alternates requests of different predicates
// and ops on one server from two clients at once, bypassing the cache,
// and holds each to the answer a fresh server over a fresh table gives
// it: a reused result vector must never carry another request's bits.
func TestServedResultsIsolated(t *testing.T) {
	const n = 40_000
	tbl := reuseTable(t, n)
	reqs := reuseRequests(rand.New(rand.NewPCG(1, 2)))
	want := make([]*Response, len(reqs))
	for i, req := range reqs {
		// A new Table over the same columns has its own, empty vector pool.
		fresh, err := byteslice.NewTable(tbl.Columns()...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustDo(t, reuseServer(t, fresh), req)
	}
	shared := reuseServer(t, tbl)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range reqs {
				i := j
				if c == 1 {
					i = len(reqs) - 1 - j
				}
				got, err := shared.Do(context.Background(), reqs[i])
				if err != nil {
					t.Errorf("request %d %s: %v", i, show(reqs[i]), err)
					return
				}
				if w := want[i]; got.Count != w.Count || got.Checksum != w.Checksum || !slices.Equal(got.RowIDs, w.RowIDs) {
					t.Errorf("request %d %s: count %d checksum %s, a fresh server answers %d %s",
						i, show(reqs[i]), got.Count, got.Checksum, w.Count, w.Checksum)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
