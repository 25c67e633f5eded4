package serve

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"byteslice"
)

// rowsTable builds an n-row table for op "rows": k (int, NULL every 11th
// row, many ties), p (decimal, NULL every 13th row), s (string) and c
// (int, clustered so it is stored compressed).
func rowsTable(t *testing.T, n int) *byteslice.Table {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 9))
	ks, ps, ss, cs := make([]int64, n), make([]float64, n), make([]string, n), make([]int64, n)
	var kNull, pNull []int
	for i := 0; i < n; i++ {
		ks[i] = int64(rng.IntN(200))
		ps[i] = float64(rng.IntN(10000)) / 100
		ss[i] = []string{"AIR", "SHIP", "RAIL", "MAIL", "TRUCK"}[rng.IntN(5)]
		cs[i] = int64(i / 600)
		if i%11 == 0 {
			kNull = append(kNull, i)
		}
		if i%13 == 0 {
			pNull = append(pNull, i)
		}
	}
	k, err := byteslice.NewIntColumn("k", ks, 0, 199, byteslice.WithNulls(kNull))
	if err != nil {
		t.Fatal(err)
	}
	p, err := byteslice.NewDecimalColumn("p", ps, 0, 100, 2, byteslice.WithNulls(pNull))
	if err != nil {
		t.Fatal(err)
	}
	s, err := byteslice.NewStringColumn("s", ss)
	if err != nil {
		t.Fatal(err)
	}
	c, err := byteslice.NewIntColumn("c", cs, 0, int64(n/600), byteslice.WithCompression())
	if err != nil {
		t.Fatal(err)
	}
	if c.Format() != byteslice.FormatByteSliceC {
		t.Fatalf("column c stored as %s, want %s", c.Format(), byteslice.FormatByteSliceC)
	}
	tbl, err := byteslice.NewTable(k, p, s, c)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// referenceRows answers op "rows" the way serve did before top-n: the
// full OrderBy (or every match) truncated to the limit, each column
// projected over every match and intersected with the kept ids, and the
// checksum rendered through fmt.
func referenceRows(t *testing.T, tbl *byteslice.Table, req *Request) *Response {
	t.Helper()
	expr, err := buildExpr(tbl, req.Where)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Query(expr)
	if err != nil {
		t.Fatal(err)
	}
	limit := req.Limit
	if limit == 0 {
		limit = defaultRowLimit
	}
	ids := res.Rows()
	if req.OrderBy != "" {
		if ids, err = tbl.OrderBy(req.OrderBy, res); err != nil {
			t.Fatal(err)
		}
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	resp := &Response{Count: res.Count(), RowIDs: ids}
	keep := map[int32]bool{}
	for _, id := range ids {
		keep[id] = true
	}
	if len(req.Cols) > 0 {
		resp.Data = map[string]*ColumnData{}
	}
	for _, name := range req.Cols {
		col, err := tbl.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		d := &ColumnData{}
		switch col.Kind() {
		case byteslice.KindInt:
			rows, vals, err := tbl.ProjectInt(name, res)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rows {
				if keep[r] {
					d.Rows, d.Ints = append(d.Rows, r), append(d.Ints, vals[i])
				}
			}
		case byteslice.KindDecimal:
			rows, vals, err := tbl.ProjectDecimal(name, res)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rows {
				if keep[r] {
					d.Rows, d.Decimals = append(d.Rows, r), append(d.Decimals, vals[i])
				}
			}
		case byteslice.KindString:
			rows, vals, err := tbl.ProjectString(name, res)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rows {
				if keep[r] {
					d.Rows, d.Strings = append(d.Rows, r), append(d.Strings, vals[i])
				}
			}
		}
		resp.Data[name] = d
	}
	resp.Checksum = fingerprintFmt(resp)
	return resp
}

// TestRowsMatchParentPath: random op "rows" requests — with and without
// order_by, limits 0, 1, 5, −1 and past the match count, NULLs in the
// ordered and projected columns, a compressed projected column — answer
// exactly what the project-everything path answered: ids, data (as JSON)
// and checksum.
func TestRowsMatchParentPath(t *testing.T) {
	tbl := rowsTable(t, 6000)
	s := New(Config{CacheEntries: -1, Registry: nil})
	t.Cleanup(func() { s.Close() }) //nolint:errcheck // mem mounts hold nothing
	if err := s.cat.MountTable("r", tbl); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	cols := []string{"k", "p", "s", "c"}
	for i := 0; i < 300; i++ {
		var where *Node
		switch rng.IntN(4) {
		case 0:
			lo := rng.IntN(200)
			where = leaf("k", "between", lo, lo+rng.IntN(40))
		case 1:
			where = leaf("p", "lt", float64(rng.IntN(3000))/100)
		case 2:
			where = leaf("c", "ge", rng.IntN(12))
		default:
			where = &Node{All: []Node{*leaf("s", "eq", "AIR"), *leaf("k", "lt", rng.IntN(200))}}
		}
		req := &Request{Table: "r", Op: "rows", Where: where}
		req.OrderBy = []string{"", "k", "p", "s", "c"}[rng.IntN(5)]
		for _, c := range cols {
			if rng.IntN(2) == 0 {
				req.Cols = append(req.Cols, c)
			}
		}
		want := referenceRows(t, tbl, req)
		req.Limit = []int{0, 1, 5, -1, want.Count + 1, rng.IntN(300)}[rng.IntN(6)]
		want = referenceRows(t, tbl, req)

		got := mustDo(t, s, req)
		if got.Count != want.Count || !slices.Equal(got.RowIDs, want.RowIDs) {
			t.Fatalf("%s: count %d ids %v, want %d %v", show(req), got.Count, head32(got.RowIDs), want.Count, head32(want.RowIDs))
		}
		gj, err := json.Marshal(got.Data)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want.Data)
		if err != nil {
			t.Fatal(err)
		}
		if string(gj) != string(wj) {
			t.Fatalf("%s: data\n%.400s\nwant\n%.400s", show(req), gj, wj)
		}
		if got.Checksum != want.Checksum {
			t.Fatalf("%s: checksum %s, want %s", show(req), got.Checksum, want.Checksum)
		}
	}
}

func show(req *Request) string {
	b, _ := json.Marshal(req)
	return string(b)
}

func head32(s []int32) []int32 { return s[:min(len(s), 10)] }

// TestRowsCachedAnswerHoldsOnlyLimit: a limited rows answer — the one the
// result cache keeps — holds exactly its limit of ids, not a window into
// the array of every match, on snapshot mounts (with and without
// order_by) and on live mounts.
func TestRowsCachedAnswerHoldsOnlyLimit(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.cat.MountTable("r", rowsTable(t, 3000)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, rowsTable(t, 3000), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cat.add(&mount{name: "live", kind: "ingest", path: dir, ing: it}); err != nil {
		t.Fatal(err)
	}
	for _, req := range []*Request{
		{Table: "r", Op: "rows", Limit: 2, Where: leaf("k", "ge", 0)},
		{Table: "r", Op: "rows", Limit: 2, OrderBy: "p", Where: leaf("k", "ge", 0)},
		{Table: "live", Op: "rows", Limit: 2, Where: leaf("k", "ge", 0)},
	} {
		for _, cache := range []string{"miss", "hit"} {
			resp := mustDo(t, s, req)
			if resp.Count < 100 || resp.Cache != cache {
				t.Fatalf("%s: count %d cache %q, want ≥100 matches and %s", show(req), resp.Count, resp.Cache, cache)
			}
			if len(resp.RowIDs) != 2 || cap(resp.RowIDs) != 2 {
				t.Fatalf("%s (%s): %d ids in an array of %d", show(req), cache, len(resp.RowIDs), cap(resp.RowIDs))
			}
		}
	}
}

// TestRowsExplainShowsTop: an explained rows request with order_by and a
// limit lists the top-n stage, and every projection reads only the kept
// rows.
func TestRowsExplainShowsTop(t *testing.T) {
	s := newTestServer(t, Config{Explain: true})
	if err := s.cat.MountTable("r", rowsTable(t, 3000)); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Do(context.Background(), &Request{
		Table: "r", Op: "rows", Explain: true, OrderBy: "p", Limit: 5,
		Cols: []string{"k", "p", "s", "c"}, Where: leaf("k", "lt", 150),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count < 100 {
		t.Fatalf("count %d, want ≥ 100", resp.Count)
	}
	top := regexp.MustCompile(`top\(p\): rows (\d+), kept (\d+)`).FindStringSubmatch(resp.Explain)
	if top == nil || top[2] != "5" {
		t.Fatalf("explain has no top(p) stage keeping 5 rows:\n%s", resp.Explain)
	}
	if in, _ := strconv.Atoi(top[1]); in < 100 {
		t.Fatalf("top(p) read %d rows, want the ≥ 100 non-NULL matches:\n%s", in, resp.Explain)
	}
	projects := regexp.MustCompile(`project\((\w+)\): (?:rows (\d+)|segments)`).FindAllStringSubmatch(resp.Explain, -1)
	if len(projects) != 4 {
		t.Fatalf("want 4 project stages, explain:\n%s", resp.Explain)
	}
	for _, m := range projects {
		if n, _ := strconv.Atoi(m[2]); n > 5 {
			t.Fatalf("project(%s) read %d rows, want ≤ 5:\n%s", m[1], n, resp.Explain)
		}
	}
}
