package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"byteslice"
	"byteslice/internal/kernel"
)

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestHTTPStatusCodes(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := ts.URL + "/query"

	code, body := postJSON(t, q, `{"table":"t","where":{"col":"qty","op":"ge","args":[50]}}`)
	if code != http.StatusOK {
		t.Fatalf("good query: %d %s", code, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil || resp.Count != 3 {
		t.Fatalf("good query body: %s (err %v)", body, err)
	}

	checkErr := func(wantCode int, wantErrCode, body string) {
		t.Helper()
		code, raw := postJSON(t, q, body)
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("error body %s: %v", raw, err)
		}
		if code != wantCode || er.Code != wantErrCode {
			t.Fatalf("got %d/%q, want %d/%q (%s)", code, er.Code, wantCode, wantErrCode, raw)
		}
	}
	checkErr(http.StatusNotFound, "not_found", `{"table":"missing","where":{"col":"qty","op":"ge","args":[50]}}`)
	checkErr(http.StatusBadRequest, "bad_query", `{"table":"t","where":{"col":"qty","op":"frobnicate","args":[50]}}`)
	checkErr(http.StatusBadRequest, "bad_query", `{"table":"t","where":{"col":"qty","op":"eq","args":["not-a-number"]}}`)
	checkErr(http.StatusGatewayTimeout, "deadline", `{"table":"t","timeout_ms":-1,"where":{"col":"qty","op":"ge","args":[50]}}`)

	// Overload: hold the single admission slot, then hit the server.
	held := make(chan struct{})
	release := make(chan struct{})
	s.testHook = func(ctx context.Context) { held <- struct{}{}; <-release }
	holderDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(q, "application/json",
			bytes.NewReader([]byte(`{"table":"t","where":{"col":"qty","op":"ge","args":[50]}}`)))
		if err == nil {
			resp.Body.Close() //nolint:errcheck // status only
		}
		holderDone <- err
	}()
	<-held
	s.testHook = nil
	checkErr(http.StatusTooManyRequests, "overloaded", `{"table":"t","where":{"col":"qty","op":"ge","args":[50]}}`)
	close(release)
	if err := <-holderDone; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, testTable(t), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cat.add(&mount{name: "live", kind: "ingest", path: dir, ing: it}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// /tables lists both mounts with schemas.
	resp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var infos []TableInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // read side
	if len(infos) != 2 || infos[0].Name != "live" || infos[1].Name != "t" {
		t.Fatalf("tables = %+v", infos)
	}
	if infos[0].Kind != "ingest" || len(infos[0].Columns) != 3 {
		t.Fatalf("live info = %+v", infos[0])
	}

	// /append feeds the live mount; NULLs and all kinds convert.
	code, body := postJSON(t, ts.URL+"/append",
		`{"table":"live","rows":[{"qty":90,"price":5.25,"mode":"AIR"},{"qty":null,"price":1.0,"mode":"SHIP"}]}`)
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, body)
	}
	var ap struct {
		Appended int    `json:"appended"`
		Rows     int    `json:"rows"`
		Epoch    uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &ap); err != nil || ap.Appended != 2 || ap.Rows != 8 {
		t.Fatalf("append body: %s (err %v)", body, err)
	}

	// Appending to a non-ingest mount is a typed client error.
	code, body = postJSON(t, ts.URL+"/append", `{"table":"t","rows":[{"qty":1,"price":1.0,"mode":"AIR"}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("append to mem mount: %d %s", code, body)
	}

	// /merge bumps the epoch.
	code, body = postJSON(t, ts.URL+"/merge", `{"table":"live"}`)
	if code != http.StatusOK {
		t.Fatalf("merge: %d %s", code, body)
	}
	var mg struct {
		Epoch uint64 `json:"epoch"`
		Rows  int    `json:"rows"`
	}
	if err := json.Unmarshal(body, &mg); err != nil || mg.Epoch != ap.Epoch+1 || mg.Rows != 8 {
		t.Fatalf("merge body: %s (err %v, append epoch %d)", body, err, ap.Epoch)
	}

	// The appended row is queryable: qty >= 50 now matches 4 rows.
	code, body = postJSON(t, ts.URL+"/query", `{"table":"live","where":{"col":"qty","op":"ge","args":[50]}}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	var qr Response
	if err := json.Unmarshal(body, &qr); err != nil || qr.Count != 4 {
		t.Fatalf("query body: %s (err %v)", body, err)
	}

	// /reload with no snapshot mounts is a no-op.
	code, body = postJSON(t, ts.URL+"/reload", ``)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"reloaded":0`)) {
		t.Fatalf("reload: %d %s", code, body)
	}

	// /stats exposes the serving counters; /healthz and /debug/vars answer.
	for _, path := range []string{"/stats", "/healthz", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // read side
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}

	// GET on a POST endpoint is rejected without panicking.
	resp, err = http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /query: %d", resp.StatusCode)
	}
}

// TestHTTPAppendErrors: a row that does not fit the schema is the
// client's fault (400 bad_query), and a row past the delta bound is
// overload (429 overloaded) — neither is a 500.
func TestHTTPAppendErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, testTable(t),
		byteslice.WithDeltaBound(2), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	// Backpressure wakes the background merger; stop it before the
	// temporary directory is removed.
	t.Cleanup(func() { it.Close() }) //nolint:errcheck // second close is a no-op
	if err := s.cat.add(&mount{name: "live", kind: "ingest", path: dir, ing: it}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const row = `{"qty":1,"price":1.0,"mode":"AIR"}`
	for _, c := range []struct {
		name, rows string
		status     int
		code       string
	}{
		{"missing column", `{"qty":1,"price":1.0}`, http.StatusBadRequest, "bad_query"},
		{"out of domain", `{"qty":999,"price":1.0,"mode":"AIR"}`, http.StatusBadRequest, "bad_query"},
		{"outside dictionary", `{"qty":1,"price":1.0,"mode":"TRUCK"}`, http.StatusBadRequest, "bad_query"},
		// The third row meets the two-row delta bound.
		{"delta bound", row + "," + row + "," + row, http.StatusTooManyRequests, "overloaded"},
	} {
		status, body := postJSON(t, ts.URL+"/append", `{"table":"live","rows":[`+c.rows+`]}`)
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || status != c.status || er.Code != c.code {
			t.Fatalf("%s: %d %s, want %d %q", c.name, status, body, c.status, c.code)
		}
	}
	if it.Len() != 6+2 {
		t.Fatalf("live rows = %d, want the 6 base rows plus the 2 below the bound", it.Len())
	}
}

// TestHTTPKernelFaultIsInternal: a panic inside a native kernel is the
// server's fault (500 internal) wherever it strikes — in the filter, or
// in an aggregate, Top/OrderBy or projection after a filter that ran no
// kernel (price ge 0 spans the whole domain).
func TestHTTPKernelFaultIsInternal(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	kernel.BatchHook = func(int, int) { panic("injected kernel bug") }
	defer func() { kernel.BatchHook = nil }()

	const all = `"where":{"col":"price","op":"ge","args":[0]}`
	for _, body := range []string{
		`{"table":"t","op":"sum","col":"qty",` + all + `}`,
		`{"table":"t","op":"max","col":"qty",` + all + `}`,
		`{"table":"t","op":"rows","order_by":"qty","cols":["qty","price"],` + all + `}`,
		`{"table":"t","where":{"col":"qty","op":"lt","args":[50]}}`,
	} {
		status, raw := postJSON(t, ts.URL+"/query", body)
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || status != http.StatusInternalServerError || er.Code != "internal" {
			t.Errorf("%s: %d %s, want 500 internal", body, status, raw)
		}
	}
}

func TestHTTPTenantHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query",
		bytes.NewReader([]byte(`{"table":"t","where":{"col":"qty","op":"ge","args":[50]}}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // read side
	if body.Tenant != "acme" {
		t.Fatalf("tenant = %q, want acme", body.Tenant)
	}
	if ten := s.cfg.Registry.Tenants.Lookup("acme"); ten == nil || ten.Queries.Load() != 1 {
		t.Fatalf("tenant accounting missing: %v", ten)
	}
}

func TestExplainFlag(t *testing.T) {
	// Explain off: requests asking for it get plain responses.
	s := newTestServer(t, Config{})
	resp := mustDo(t, s, &Request{Table: "t", Explain: true, Where: leaf("qty", "ge", 50)})
	if resp.Explain != "" {
		t.Fatalf("explain leaked with the flag off: %q", resp.Explain)
	}

	// Explain on: the plan rendering arrives and the cache is bypassed.
	s2 := newTestServer(t, Config{Explain: true})
	resp = mustDo(t, s2, &Request{Table: "t", Explain: true, Where: leaf("qty", "ge", 50)})
	if resp.Explain == "" {
		t.Fatal("explain missing with the flag on")
	}
	if resp.Cache != "bypass" {
		t.Fatalf("explain request cache = %q, want bypass", resp.Cache)
	}
	if got := s2.stats().CacheBypass.Load(); got != 1 {
		t.Fatalf("bypass counter = %d, want 1", got)
	}
}

func TestChecksumStability(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: -1}) // cache off: every run computes fresh
	var first string
	for i := 0; i < 3; i++ {
		resp := mustDo(t, s, &Request{Table: "t", Op: "rows", Cols: []string{"qty", "mode"}, Where: leaf("qty", "ge", 50)})
		if resp.Cache != "off" {
			t.Fatalf("cache = %q, want off", resp.Cache)
		}
		if i == 0 {
			first = resp.Checksum
			continue
		}
		if resp.Checksum != first {
			t.Fatalf("run %d checksum %q != %q", i, resp.Checksum, first)
		}
	}
	if first == "" || first == fmt.Sprintf("%016x", 0) {
		t.Fatalf("degenerate checksum %q", first)
	}
}

// TestCacheKeyKeepsNumberLiteral: an integer column takes 10 but rejects
// 10.0 and 1e1, so a cached answer for one literal must not serve another
// that fails uncached — nor may an in-process float serve a body literal.
func TestCacheKeyKeepsNumberLiteral(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := ts.URL + "/query"
	body := func(arg string) string {
		return `{"table":"t","where":{"col":"qty","op":"lt","args":[` + arg + `]}}`
	}
	if code, raw := postJSON(t, q, body("10")); code != http.StatusOK {
		t.Fatalf("qty lt 10: %d %s", code, raw)
	}
	if r := mustDo(t, s, countReq("t", leaf("qty", "lt", float64(1e6)))); r.Cache != "miss" {
		t.Fatalf("in-process qty lt 1e6: cache %q, want miss", r.Cache)
	}
	for _, arg := range []string{"10.0", "1e1", "1e+06"} {
		code, raw := postJSON(t, q, body(arg))
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || code != http.StatusBadRequest || er.Code != "bad_query" {
			t.Fatalf("qty lt %s after a cached equal value: %d %s, want 400 bad_query", arg, code, raw)
		}
	}
}

// TestCacheKeyQuotesColumnNames: a column named "a,b" and the projection
// of columns a and b are different requests, so neither may be served
// the other's cached answer.
func TestCacheKeyQuotesColumnNames(t *testing.T) {
	var cols []*byteslice.Column
	for _, name := range []string{"a", "b", "a,b"} {
		c, err := byteslice.NewIntColumn(name, []int64{1, 2, 3}, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	tbl, err := byteslice.NewTable(cols...)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	if err := s.cat.MountTable("abc", tbl); err != nil {
		t.Fatal(err)
	}
	rows := func(cols ...string) *Request {
		return &Request{Table: "abc", Op: "rows", Cols: cols, Where: leaf("a", "ge", 0)}
	}
	if r := mustDo(t, s, rows("a,b")); r.Cache != "miss" || len(r.Data) != 1 || r.Data["a,b"] == nil {
		t.Fatalf("cols [a,b]: cache %q, data %v", r.Cache, r.Data)
	}
	r := mustDo(t, s, rows("a", "b"))
	if r.Cache != "miss" || len(r.Data) != 2 || r.Data["a"] == nil || r.Data["b"] == nil {
		t.Fatalf("cols [a b] after [a,b]: cache %q, data %v", r.Cache, r.Data)
	}
}
