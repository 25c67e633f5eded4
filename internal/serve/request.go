package serve

import (
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"byteslice"
)

// Request is the JSON body of POST /query.
type Request struct {
	// Table names the mounted table; Tenant the accounting bucket
	// (defaults to "anon"; the X-Tenant header also sets it).
	Table  string `json:"table"`
	Tenant string `json:"tenant,omitempty"`
	// Op selects the operation over the matching rows: "count" (the
	// default), "rows" (row ids plus projected columns), "sum", "avg",
	// "min", "max" (aggregates over Col).
	Op  string `json:"op,omitempty"`
	Col string `json:"col,omitempty"`
	// Cols are the columns op "rows" projects values for.
	Cols []string `json:"cols,omitempty"`
	// Where is the predicate tree and is required — serving a full-table
	// materialisation by accident is an outage, not a query.
	Where *Node `json:"where"`
	// OrderBy sorts op "rows" output by the named column ascending;
	// Limit caps returned rows (0 → 100, negative → unlimited).
	OrderBy string `json:"order_by,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	// TimeoutMs is the per-query deadline (0 → server default, capped at
	// the server max; negative → already expired, for cancellation
	// drills).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Explain asks for the planner/analyze rendering (needs the server's
	// Explain flag). NoCache skips the result cache both ways.
	Explain bool `json:"explain,omitempty"`
	NoCache bool `json:"no_cache,omitempty"`
}

// Node is one node of the predicate tree: either a leaf comparison
// (Col/Op/Args) or exactly one of All/Any over child nodes.
type Node struct {
	All []Node `json:"all,omitempty"`
	Any []Node `json:"any,omitempty"`
	Col string `json:"col,omitempty"`
	Op  string `json:"op,omitempty"`
	// Args are the comparison constants: one for eq/ne/lt/le/gt/ge, two
	// for between. Numbers keep full precision (json.Number); strings
	// compare against dictionary columns.
	Args []any `json:"args,omitempty"`
}

// ops maps the wire operator names onto the facade's comparison ops.
var ops = map[string]byteslice.Op{
	"eq": byteslice.Eq, "ne": byteslice.Ne,
	"lt": byteslice.Lt, "le": byteslice.Le,
	"gt": byteslice.Gt, "ge": byteslice.Ge,
	"between": byteslice.Between,
}

// DecodeRequest parses a request body, keeping numeric constants as
// json.Number so integer domains are not round-tripped through float64.
func DecodeRequest(body []byte) (*Request, error) {
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, badQueryErr(err)
	}
	return &req, nil
}

// validate checks the request's operation shape (predicate validity is
// checked against the schema when the expression is built).
func (r *Request) validate() error {
	if r.Table == "" {
		return badQuery("request names no table")
	}
	if r.Where == nil {
		return badQuery("request has no where clause")
	}
	switch r.Op {
	case "", "count":
	case "rows":
	case "sum", "avg", "min", "max":
		if r.Col == "" {
			return badQuery("op %q needs a col", r.Op)
		}
	default:
		return badQuery("unknown op %q", r.Op)
	}
	if r.OrderBy != "" && r.Op != "rows" {
		return badQuery("order_by applies to op \"rows\" only")
	}
	return nil
}

// liveUnsupported refuses what a live ingest mount cannot answer: an
// aggregate, order_by or a projection, which need a snapshot table.
func (r *Request) liveUnsupported() error {
	switch {
	case r.Op == "rows" && (r.OrderBy != "" || len(r.Cols) > 0):
		return errUnsupported("order_by and projections need a snapshot table, not a live ingest mount")
	case r.Op != "" && r.Op != "count" && r.Op != "rows":
		return errUnsupported("op %q needs a snapshot table, not a live ingest mount", r.Op)
	}
	return nil
}

// argKey renders one argument for the canonical key, so that two
// arguments share a key only when buildExpr reads them the same way: a
// decoded number keeps its literal text (an integer column takes 10 but
// rejects 10.0 and 1e1), an in-process number renders as the
// exponent-free literal a body would need to be read alike, and a
// string is quoted.
func argKey(a any) (string, error) {
	switch v := a.(type) {
	case json.Number:
		return v.String(), nil
	case string:
		return strconv.Quote(v), nil
	case float64: // requests built in-process rather than decoded
		return strconv.FormatFloat(v, 'f', -1, 64), nil
	case int:
		return strconv.Itoa(v), nil
	case int64:
		return strconv.FormatInt(v, 10), nil
	}
	return "", badQuery("unsupported constant %T", a)
}

// normalize renders the node canonically: leaves as col␟op␟args, groups
// with their children sorted — AND and OR are commutative, so two
// requests differing only in conjunct order share one cache entry.
func (n *Node) normalize() (string, error) {
	leaf := n.Col != "" || n.Op != "" || len(n.Args) > 0
	switch {
	case leaf && (len(n.All) > 0 || len(n.Any) > 0):
		return "", badQuery("predicate node mixes a leaf with a group")
	case leaf:
		if n.Col == "" || n.Op == "" {
			return "", badQuery("leaf predicate needs col and op")
		}
		if _, ok := ops[n.Op]; !ok {
			return "", badQuery("unknown operator %q", n.Op)
		}
		key := strconv.AppendQuote(make([]byte, 0, 64), n.Col)
		key = append(append(key, '\x1f'), n.Op...)
		for _, a := range n.Args {
			s, err := argKey(a)
			if err != nil {
				return "", err
			}
			key = append(append(key, '\x1f'), s...)
		}
		return string(key), nil
	case len(n.All) > 0 && len(n.Any) > 0:
		return "", badQuery("predicate node has both all and any")
	case len(n.All) > 0:
		return normalizeGroup("all", n.All)
	case len(n.Any) > 0:
		return normalizeGroup("any", n.Any)
	}
	return "", badQuery("empty predicate node")
}

func normalizeGroup(kind string, children []Node) (string, error) {
	parts := make([]string, len(children))
	for i := range children {
		s, err := children[i].normalize()
		if err != nil {
			return "", err
		}
		parts[i] = s
	}
	sort.Strings(parts)
	return kind + "(" + strings.Join(parts, "\x1e") + ")", nil
}

// cacheKeyQuery renders the whole request canonically — everything that
// determines the response content except the table version (which is the
// other half of the cache key). Column names are quoted, so a name
// holding a separator cannot pass for a list of names.
func (r *Request) cacheKeyQuery() (string, error) {
	where, err := r.Where.normalize()
	if err != nil {
		return "", err
	}
	op := r.Op
	if op == "" {
		op = "count"
	}
	key := append(make([]byte, 0, 64+len(where)), op...)
	key = strconv.AppendQuote(append(key, '\x1d'), r.Col)
	key = append(key, '\x1d')
	for i, c := range r.Cols {
		if i > 0 {
			key = append(key, ',')
		}
		key = strconv.AppendQuote(key, c)
	}
	key = strconv.AppendQuote(append(key, '\x1d'), r.OrderBy)
	key = strconv.AppendInt(append(key, '\x1d'), int64(r.Limit), 10)
	return string(append(append(key, '\x1d'), where...)), nil
}

// buildExpr translates the predicate tree into the facade's Expr against
// the schema table, typing each constant by its column's kind.
func buildExpr(schema *byteslice.Table, n *Node) (byteslice.Expr, error) {
	leaf := n.Col != "" || n.Op != "" || len(n.Args) > 0
	switch {
	case leaf:
		f, err := buildFilter(schema, n)
		if err != nil {
			return byteslice.Expr{}, err
		}
		return byteslice.Leaf(f), nil
	case len(n.All) > 0:
		children, err := buildGroup(schema, n.All)
		if err != nil {
			return byteslice.Expr{}, err
		}
		return byteslice.All(children...), nil
	case len(n.Any) > 0:
		children, err := buildGroup(schema, n.Any)
		if err != nil {
			return byteslice.Expr{}, err
		}
		return byteslice.Any(children...), nil
	}
	return byteslice.Expr{}, badQuery("empty predicate node")
}

func buildGroup(schema *byteslice.Table, nodes []Node) ([]byteslice.Expr, error) {
	out := make([]byteslice.Expr, len(nodes))
	for i := range nodes {
		e, err := buildExpr(schema, &nodes[i])
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func buildFilter(schema *byteslice.Table, n *Node) (byteslice.Filter, error) {
	col, err := schema.Column(n.Col)
	if err != nil {
		return byteslice.Filter{}, badQueryErr(err)
	}
	op, ok := ops[n.Op]
	if !ok {
		return byteslice.Filter{}, badQuery("unknown operator %q", n.Op)
	}
	want := 1
	if op == byteslice.Between {
		want = 2
	}
	if len(n.Args) != want {
		return byteslice.Filter{}, badQuery("%s on %s needs %d args, got %d", n.Op, n.Col, want, len(n.Args))
	}
	switch col.Kind() {
	case byteslice.KindInt:
		args, err := intArgs(n)
		if err != nil {
			return byteslice.Filter{}, err
		}
		return byteslice.IntFilter(n.Col, op, args...), nil
	case byteslice.KindDecimal:
		args, err := floatArgs(n)
		if err != nil {
			return byteslice.Filter{}, err
		}
		return byteslice.DecimalFilter(n.Col, op, args...), nil
	case byteslice.KindString:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			s, ok := a.(string)
			if !ok {
				return byteslice.Filter{}, badQuery("string column %s wants string constants, got %T", n.Col, a)
			}
			args[i] = s
		}
		return byteslice.StringFilter(n.Col, op, args...), nil
	case byteslice.KindCode:
		args, err := intArgs(n)
		if err != nil {
			return byteslice.Filter{}, err
		}
		codes := make([]uint32, len(args))
		for i, v := range args {
			if v < 0 || v > int64(^uint32(0)) {
				return byteslice.Filter{}, badQuery("code column %s: constant %d out of range", n.Col, v)
			}
			codes[i] = uint32(v)
		}
		return byteslice.CodeFilter(n.Col, op, codes...), nil
	}
	return byteslice.Filter{}, badQuery("column %s has unsupported kind", n.Col)
}

func intArgs(n *Node) ([]int64, error) {
	out := make([]int64, len(n.Args))
	for i, a := range n.Args {
		switch v := a.(type) {
		case json.Number:
			iv, err := v.Int64()
			if err != nil {
				return nil, badQuery("integer column %s wants integer constants, got %q", n.Col, v.String())
			}
			out[i] = iv
		case int:
			out[i] = int64(v)
		case int64:
			out[i] = v
		case float64:
			iv := int64(v)
			if float64(iv) != v {
				return nil, badQuery("integer column %s wants integer constants, got %v", n.Col, v)
			}
			out[i] = iv
		default:
			return nil, badQuery("integer column %s wants integer constants, got %T", n.Col, a)
		}
	}
	return out, nil
}

func floatArgs(n *Node) ([]float64, error) {
	out := make([]float64, len(n.Args))
	for i, a := range n.Args {
		switch v := a.(type) {
		case json.Number:
			fv, err := v.Float64()
			if err != nil {
				return nil, badQuery("decimal column %s: bad number %q", n.Col, v.String())
			}
			out[i] = fv
		case float64:
			out[i] = v
		case int:
			out[i] = float64(v)
		case int64:
			out[i] = float64(v)
		default:
			return nil, badQuery("decimal column %s wants numeric constants, got %T", n.Col, a)
		}
	}
	return out, nil
}

// ColumnData is one projected column of an op "rows" response: the row
// ids the values belong to (the projected column's NULL rows are
// omitted) and exactly one of the value slices, matching the column
// kind.
type ColumnData struct {
	Rows     []int32   `json:"rows"`
	Ints     []int64   `json:"ints,omitempty"`
	Decimals []float64 `json:"decimals,omitempty"`
	Strings  []string  `json:"strings,omitempty"`
}

// Response is the JSON body of a successful query. Responses are shared
// through the epoch-keyed result cache, so once exec returns one it is
// read-only: only the builder functions below (Do, exec, execRows,
// execAggregate) may set fields, and Do stamps per-request fields on a
// shallow copy, never on the cached value.
//
//bsvet:sealed
type Response struct {
	Table string `json:"table"`
	// Epoch is the table version the result was computed at (ingest
	// epoch, or the snapshot mount's reload generation) and Rows the
	// row count visible at that version — together the freshness proof
	// for cached results.
	Epoch uint64 `json:"epoch"`
	Rows  int    `json:"rows"`
	// Count is the number of matching rows.
	Count int `json:"count"`
	// Exactly one value field is set for aggregates: IntValue for
	// sum/min/max over integer columns, Value for decimal aggregates and
	// avg, StrValue for string min/max. Null aggregates (no qualifying
	// rows) set none.
	Value    *float64 `json:"value,omitempty"`
	IntValue *int64   `json:"int_value,omitempty"`
	StrValue *string  `json:"str_value,omitempty"`
	// RowIDs and Data carry op "rows" output.
	RowIDs []int32                `json:"row_ids,omitempty"`
	Data   map[string]*ColumnData `json:"data,omitempty"`
	// Checksum fingerprints the result content (count, values, rows):
	// FNV-1a 64 in hex. A cache hit returns the stored result bit for
	// bit, so repeated queries at one version must agree on it.
	Checksum string `json:"checksum"`
	// Cache reports the result-cache outcome: "hit", "miss", "bypass"
	// (request or operation not cacheable) or "off".
	Cache     string  `json:"cache"`
	Tenant    string  `json:"tenant"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Explain   string  `json:"explain,omitempty"`
}

// ErrorResponse is the JSON body of a failed query.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// fingerprint computes the response's content checksum: FNV-1a 64 over
// a text rendering of the content. The text is the one fmt's %d, %g and
// %s verbs produce (strconv's shortest 'g' form is exactly %g's), built
// in one reused buffer that is hashed whenever it fills.
func (r *Response) fingerprint() string {
	h := fnv.New64a()
	buf := make([]byte, 0, 4096)
	// flush hashes and empties buf once the next piece might not fit.
	flush := func() {
		if len(buf) > cap(buf)-64 {
			h.Write(buf) //nolint:errcheck // hash.Write never fails
			buf = buf[:0]
		}
	}
	buf = strconv.AppendInt(append(buf, "count="...), int64(r.Count), 10)
	if r.Value != nil {
		buf = strconv.AppendFloat(append(buf, "|value="...), *r.Value, 'g', -1, 64)
	}
	if r.IntValue != nil {
		buf = strconv.AppendInt(append(buf, "|int="...), *r.IntValue, 10)
	}
	if r.StrValue != nil {
		buf = append(append(buf, "|str="...), *r.StrValue...)
	}
	for _, id := range r.RowIDs {
		flush()
		buf = strconv.AppendInt(append(buf, "|r"...), int64(id), 10)
	}
	cols := make([]string, 0, len(r.Data))
	for c := range r.Data {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		d := r.Data[c]
		buf = append(append(buf, "|col="...), c...)
		if d.Ints == nil && d.Decimals == nil && d.Strings == nil {
			continue // ids without values render nothing
		}
		for i, row := range d.Rows {
			flush()
			buf = append(strconv.AppendInt(append(buf, ';'), int64(row), 10), '=')
			switch {
			case d.Ints != nil:
				buf = strconv.AppendInt(buf, d.Ints[i], 10)
			case d.Decimals != nil:
				buf = strconv.AppendFloat(buf, d.Decimals[i], 'g', -1, 64)
			default:
				buf = append(buf, d.Strings[i]...)
			}
		}
	}
	h.Write(buf) //nolint:errcheck // hash.Write never fails
	return hex.EncodeToString(h.Sum(nil))
}
