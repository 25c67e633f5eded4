package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"testing"

	"byteslice"
)

// renderStrings need every kind of escape encoding/json makes: HTML
// characters, quotes and backslashes, control bytes, U+2028/U+2029,
// invalid UTF-8, and plain ASCII and UTF-8 that need none.
var renderStrings = []string{
	"", "AIR", "t", "REG AIR", "a<b>&c", "x<y", "p>q", "R&D", `say "hi"`, `back\slash`, "tab\there\n",
	"\x00\x01\x1f\x7f", "line\u2028sep\u2029", "bad\xff\xfeutf8", "naïve café", "日本",
}

// renderDecimal draws a decimal: around encoding/json's and %g's form
// edges (1e-6, 1e-4, 1e6, 1e21) on both sides, ±0, fixed-point values at
// scale digits, and values of any magnitude.
func renderDecimal(rng *rand.Rand, digits int) float64 {
	switch rng.IntN(6) {
	case 0:
		x := []float64{1e-6, 1e-4, 1e6, 1e21, 1e15, 1e-9}[rng.IntN(6)]
		switch rng.IntN(3) {
		case 0:
			x = math.Nextafter(x, 0)
		case 1:
			x = math.Nextafter(x, math.Inf(1))
		}
		if rng.IntN(2) == 0 {
			x = -x
		}
		return x
	case 1:
		return math.Copysign(0, float64(rng.IntN(2)*2-1))
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(60)-30))
	}
	return float64(rng.Int64N(2e12)-1e12) / pow10[digits]
}

// randomResponse draws a response of any shape: counts, aggregates of
// each kind, nil, empty and full row-id lists, projected int, decimal
// and string columns, all-NULL and empty projections, and explain text.
func randomResponse(rng *rand.Rand) *Response {
	str := func() string { return renderStrings[rng.IntN(len(renderStrings))] }
	r := &Response{Table: str(), Epoch: rng.Uint64(), Rows: rng.IntN(1 << 30), Count: rng.IntN(1 << 20),
		Checksum: "0123456789abcdef", Cache: []string{"hit", "miss", "bypass", "off"}[rng.IntN(4)],
		Tenant: str(), ElapsedMs: math.Abs(renderDecimal(rng, 3))}
	switch rng.IntN(4) {
	case 0:
		v := renderDecimal(rng, rng.IntN(len(pow10)))
		r.Value = &v
	case 1:
		v := rng.Int64() - math.MaxInt64/2
		r.IntValue = &v
	case 2:
		v := str()
		r.StrValue = &v
	}
	switch rng.IntN(3) {
	case 0:
		r.RowIDs = []int32{}
	case 1:
		for i := rng.IntN(300); i > 0; i-- {
			r.RowIDs = append(r.RowIDs, rng.Int32()-math.MaxInt32/2)
		}
	}
	if rng.IntN(4) > 0 {
		r.Data = map[string]*ColumnData{}
		for c := rng.IntN(5); c > 0; c-- {
			d := &ColumnData{}
			kind := rng.IntN(5)
			if kind == 3 {
				d.Rows = []int32{} // projected, every value NULL
			}
			if kind == 1 {
				d.digits = rng.IntN(len(pow10))
			}
			for i := rng.IntN(200); i > 0 && kind < 3; i-- {
				d.Rows = append(d.Rows, rng.Int32())
				switch kind {
				case 0:
					d.Ints = append(d.Ints, rng.Int64()-math.MaxInt64/2)
				case 1:
					d.Decimals = append(d.Decimals, renderDecimal(rng, d.digits))
				default:
					d.Strings = append(d.Strings, str())
				}
			}
			r.Data[str()+string(rune('a'+c))] = d
		}
	}
	if rng.IntN(3) == 0 {
		r.Explain = "plan: column-first\n  scan(p) 0.2ms <5% & \"x\"" + str()
	}
	return r
}

// encodeJSON is what writeJSON writes for v.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// renderBody is the body writeResponse writes for r, with and without
// the checksum hash, and the hash.
func renderBody(t *testing.T, r *Response) (body []byte, sum uint64, ok bool) {
	t.Helper()
	body, sum, ok = appendContent(nil, r, true)
	unhashed, _, _ := appendContent(nil, r, false)
	if !bytes.Equal(unhashed, body) {
		t.Fatalf("hashing changed the body:\n%s\n%s", body, unhashed)
	}
	body, tailOK := appendTail(body, r)
	return body, sum, ok && tailOK
}

// TestRenderMatchesEncodingJSON holds the hand-rendered body byte for
// byte to encoding/json's over random responses, and its hash to the
// fmt-built checksum.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for n := 0; n < 3000; n++ {
		r := randomResponse(rng)
		want, err := encodeJSON(r)
		if err != nil {
			t.Fatalf("response %d: %v", n, err)
		}
		got, sum, ok := renderBody(t, r)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("response %d (ok %v):\n got %s\nwant %s", n, ok, got, want)
		}
		if got, want := checksumHex(sum), fingerprintFmt(r); got != want {
			t.Fatalf("response %d: checksum %s, fmt reference %s", n, got, want)
		}
	}
}

// TestRenderRefusedValues: where encoding/json refuses a value (NaN,
// ±Inf) and writes nothing, the render reports it, so writeResponse
// falls back to writeJSON; the checksum still hashes %g's text.
func TestRenderRefusedValues(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []*Response{
			{Count: 1, Value: &v},
			{Count: 1, Data: map[string]*ColumnData{"d": {Rows: []int32{4}, Decimals: []float64{v}, digits: 2}}},
			{Count: 1, ElapsedMs: v},
		} {
			if _, err := encodeJSON(r); err == nil {
				t.Fatalf("encoding/json encoded %v", v)
			}
			_, sum, ok := renderBody(t, r)
			if ok {
				t.Fatalf("render of %v reported an encoding/json body", v)
			}
			if got, want := checksumHex(sum), fingerprintFmt(r); got != want {
				t.Fatalf("%v: checksum %s, fmt reference %s", v, got, want)
			}
			rec := httptest.NewRecorder()
			writeResponse(rec, r)
			if rec.Body.Len() != 0 {
				t.Fatalf("%v: wrote %q where encoding/json writes nothing", v, rec.Body)
			}
		}
	}
}

// TestServedBodyMatchesEncodingJSON serves op "rows" answers, counts and
// aggregates over int, decimal (scales 2 and 9, with values at the %g
// and encoding/json form edges) and escaped string columns, each as a
// miss (the body rendered in exec) and then as a hit (rendered without
// hashing), and holds writeResponse's body to encoding/json's.
func TestServedBodyMatchesEncodingJSON(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewPCG(3, 5))
	is, ps, ms, ss := make([]int64, n), make([]float64, n), make([]float64, n), make([]string, n)
	var nulls []int
	for i := 0; i < n; i++ {
		is[i] = rng.Int64N(2_000_000) - 1_000_000
		ps[i] = float64(rng.IntN(2_000_000_00)-1_000_000_00) / 100 // crosses ±1e6
		ms[i] = float64(rng.IntN(2_000_000)-1_000_000) / 1e9       // crosses ±1e-4 and ±1e-6
		ss[i] = renderStrings[rng.IntN(len(renderStrings))]
		if i%17 == 0 {
			nulls = append(nulls, i)
		}
	}
	iCol, err := byteslice.NewIntColumn("i", is, -1_000_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	pCol, err := byteslice.NewDecimalColumn("p", ps, -1_000_000, 1_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	mCol, err := byteslice.NewDecimalColumn("m<&>", ms, -0.001, 0.001, 9, byteslice.WithNulls(nulls))
	if err != nil {
		t.Fatal(err)
	}
	sCol, err := byteslice.NewStringColumn("s", ss)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(iCol, pCol, mCol, sCol)
	if err != nil {
		t.Fatal(err)
	}
	s := reuseServer(t, tbl)
	s.cfg.Explain = true
	reqs := []*Request{
		{Op: "rows", Cols: []string{"i", "p", "m<&>", "s"}, Where: leaf("i", "lt", 200_000), Limit: 500},
		{Op: "rows", Cols: []string{"p", "m<&>"}, OrderBy: "m<&>", Where: leaf("i", "between", -3000, 3000), Limit: -1},
		{Op: "rows", Cols: []string{"m<&>"}, Where: leaf("i", "gt", 2_000_000)},
		{Op: "rows", Where: leaf("s", "eq", "a<b>&c")},
		{Op: "rows", Cols: []string{"i"}, Where: leaf("i", "ge", 0), Explain: true},
		{Op: "count", Where: leaf("p", "lt", 1e5)},
		{Op: "sum", Col: "p", Where: leaf("i", "lt", 0)},
		{Op: "avg", Col: "m<&>", Where: leaf("i", "lt", 0)},
		{Op: "min", Col: "s", Where: leaf("i", "lt", 0)},
		{Op: "max", Col: "i", Where: leaf("i", "lt", 0)},
		{Op: "min", Col: "m<&>", Where: leaf("i", "gt", 2_000_000)},
	}
	for i, req := range reqs {
		req.Table = "t"
		for _, wantCache := range []string{"miss", "hit"} {
			resp, err := s.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if req.Explain {
				wantCache = "bypass"
			}
			if resp.Cache != wantCache || (resp.body != nil) != (wantCache != "hit") {
				t.Fatalf("request %d: cache %s with render buffer %v, want %s", i, resp.Cache, resp.body != nil, wantCache)
			}
			want, err := encodeJSON(resp)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeResponse(rec, resp)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("request %d %s:\n got %s\nwant %s", i, wantCache, got, want)
			}
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Fatalf("request %d: Content-Type %q", i, got)
			}
			if resp.Checksum != fingerprintFmt(resp) {
				t.Fatalf("request %d %s: checksum %s, fmt reference %s", i, wantCache, resp.Checksum, fingerprintFmt(resp))
			}
		}
	}
}
