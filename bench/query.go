package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"

	"byteslice"
	"byteslice/internal/serve"
)

// pred is one comparison leaf. Constants are in the column's exact units:
// integers as is, decimals in cents, strings as an index into modes.
type pred struct {
	col  string
	op   string // eq, lt, ge, between
	a, b int64
}

// query is one request of a workload: a conjunction of leaves and the
// operation over the matching rows, in the shape POST /query accepts.
type query struct {
	op      string // count, sum, avg, min, rows
	col     string
	cols    []string
	orderBy string
	limit   int
	where   []pred

	wire []byte // memoised body; a query belongs to one client
}

type colKind int

const (
	kindInt colKind = iota
	kindDecimal
	kindString
)

func kindOf(col string) colKind {
	switch col {
	case "price", "discount":
		return kindDecimal
	case "mode":
		return kindString
	}
	return kindInt
}

// arg renders one constant as the wire (and facade) type of its column.
func arg(col string, v int64) any {
	switch kindOf(col) {
	case kindDecimal:
		return cents(v)
	case kindString:
		return modes[v]
	}
	return v
}

func (p pred) node() serve.Node {
	args := []any{arg(p.col, p.a)}
	if p.op == "between" {
		args = append(args, arg(p.col, p.b))
	}
	return serve.Node{Col: p.col, Op: p.op, Args: args}
}

// request is the query as serve.Request, the program's own wire type.
func (q *query) request(table string) *serve.Request {
	where := q.where[0].node()
	if len(q.where) > 1 {
		where = serve.Node{}
		for _, p := range q.where {
			where.All = append(where.All, p.node())
		}
	}
	op := q.op
	if op == "count" {
		op = "" // the wire default
	}
	return &serve.Request{Table: table, Op: op, Col: q.col, Cols: q.cols, OrderBy: q.orderBy, Limit: q.limit, Where: &where}
}

// body is the POST /query body.
func (q *query) body(table string) []byte {
	if q.wire == nil {
		b, err := json.Marshal(q.request(table))
		if err != nil {
			panic(err) // a fixed struct of strings and numbers always marshals
		}
		q.wire = b
	}
	return q.wire
}

var facadeOps = map[string]byteslice.Op{
	"eq": byteslice.Eq, "lt": byteslice.Lt, "ge": byteslice.Ge, "between": byteslice.Between,
}

func (p pred) filter() byteslice.Filter {
	op := facadeOps[p.op]
	vals := []int64{p.a}
	if p.op == "between" {
		vals = append(vals, p.b)
	}
	switch kindOf(p.col) {
	case kindDecimal:
		fs := make([]float64, len(vals))
		for i, v := range vals {
			fs[i] = cents(v)
		}
		return byteslice.DecimalFilter(p.col, op, fs...)
	case kindString:
		ss := make([]string, len(vals))
		for i, v := range vals {
			ss[i] = modes[v]
		}
		return byteslice.StringFilter(p.col, op, ss...)
	}
	return byteslice.IntFilter(p.col, op, vals...)
}

// expr is the facade expression serve builds for the same request: a
// leaf, or an AND group of leaves.
func (q *query) expr() byteslice.Expr {
	if len(q.where) == 1 {
		return byteslice.Leaf(q.where[0].filter())
	}
	leaves := make([]byteslice.Expr, len(q.where))
	for i, p := range q.where {
		leaves[i] = byteslice.Leaf(p.filter())
	}
	return byteslice.All(leaves...)
}

// rangeOf returns lo and lo+w-1 for a uniformly placed range of width w
// in [0, hi].
func rangeOf(r *rand.Rand, hi, w int64) (int64, int64) {
	w = min(max(w, 1), hi+1)
	lo := r.Int64N(hi - w + 2)
	return lo, lo + w - 1
}

// logUniform draws from [lo, hi] evenly in log space: selectivities
// spread over two orders of magnitude.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// olapQuery draws template n%4 of the four analytic templates. Every
// constant comes from a range wide enough that two draws almost never
// coincide, so the result cache misses by content.
func olapQuery(r *rand.Rand, n int) *query {
	switch n % 4 {
	case 0: // Q6: revenue under a date window, a discount band and a quantity cap
		d0, d1 := rangeOf(r, shipdateMax, 300+r.Int64N(101))
		x := 1 + r.Int64N(discMaxCents-1)
		return &query{op: "sum", col: "price", where: []pred{
			{col: "shipdate", op: "between", a: d0, b: d1},
			{col: "discount", op: "between", a: x - 1, b: x + 1},
			{col: "quantity", op: "lt", a: 2 + r.Int64N(quantityMax-1)},
		}}
	case 1:
		a, b := rangeOf(r, priceMaxCents, int64(r.Float64()*0.2*priceMaxCents))
		return &query{op: "count", where: []pred{{col: "price", op: "between", a: a, b: b}}}
	case 2:
		return &query{op: "min", col: "quantity", where: []pred{
			{col: "mode", op: "eq", a: int64(pickMode(r))},
			{col: "shipdate", op: "ge", a: r.Int64N(shipdateMax + 1)},
			{col: "price", op: "lt", a: 1 + r.Int64N(priceMaxCents)},
		}}
	default:
		lo, hi := rangeOf(r, orderkeyMax, int64(logUniform(r, 0.01, 0.2)*orderkeyMax))
		return &query{op: "avg", col: "discount", where: []pred{{col: "orderkey", op: "between", a: lo, b: hi}}}
	}
}

// lookupLimit caps rows_lookup responses.
const lookupLimit = 1000

// lookupQuery draws template n%3: a selective (0.02–1%) range whose
// matches are ordered by another column and projected on three — the
// paper's lookup half.
func lookupQuery(r *rand.Rand, n int) *query {
	sel := logUniform(r, 0.0002, 0.01)
	switch n % 3 {
	case 0:
		a, b := rangeOf(r, priceMaxCents, int64(sel*priceMaxCents))
		return &query{op: "rows", orderBy: "shipdate", limit: lookupLimit,
			cols: []string{"orderkey", "quantity", "price"}, where: []pred{{col: "price", op: "between", a: a, b: b}}}
	case 1:
		lo, hi := rangeOf(r, orderkeyMax, int64(sel*orderkeyMax))
		return &query{op: "rows", orderBy: "price", limit: lookupLimit,
			cols: []string{"orderkey", "discount", "mode"}, where: []pred{{col: "orderkey", op: "between", a: lo, b: hi}}}
	default:
		d0, d1 := rangeOf(r, shipdateMax, int64(math.Round(sel*(shipdateMax+1))))
		return &query{op: "rows", orderBy: "quantity", limit: lookupLimit,
			cols: []string{"price", "shipdate", "orderkey"}, where: []pred{{col: "shipdate", op: "between", a: d0, b: d1}}}
	}
}

// liveQuery draws the ingest reader's mix, counts and id-only row
// fetches in turn: the operations a live mount serves.
func liveQuery(r *rand.Rand, n int) *query {
	if n%2 == 0 {
		a, b := rangeOf(r, priceMaxCents, int64(r.Float64()*0.2*priceMaxCents))
		return &query{op: "count", where: []pred{{col: "price", op: "between", a: a, b: b}}}
	}
	d0, d1 := rangeOf(r, shipdateMax, 1+r.Int64N(60))
	return &query{op: "rows", limit: 100, where: []pred{
		{col: "shipdate", op: "between", a: d0, b: d1},
		{col: "mode", op: "eq", a: int64(pickMode(r))},
	}}
}

// dashboardSize is the number of fixed dashboard bodies; the Zipf pick
// over them keeps every one inside the 1024-entry result cache.
const dashboardSize = 64

func dashboardQueries(seed uint64) []*query {
	r := newRNG(seed, streamDashboard)
	qs := make([]*query, dashboardSize)
	for i := range qs {
		qs[i] = olapQuery(r, i)
	}
	return qs
}

// stream is one client's deterministic request sequence.
type stream func() *query

// newStream returns client c's request sequence for the workload: the
// same (seed, workload, client) always yields the same bodies. Templates
// take turns rather than being drawn, so every run has the same mix and
// only the constants vary with the seed.
func newStream(w string, seed uint64, client int) stream {
	r := newRNG(seed, streamRequests<<8|uint64(client))
	n := 0
	turns := func(draw func(*rand.Rand, int) *query) stream {
		return func() *query {
			n++
			return draw(r, n)
		}
	}
	switch w {
	case "olap_scan":
		return turns(olapQuery)
	case "rows_lookup":
		return turns(lookupQuery)
	case "ingest_live":
		return turns(liveQuery)
	}
	qs := dashboardQueries(seed)
	z := rand.NewZipf(r, 1.1, 1, dashboardSize-1)
	return func() *query { return qs[z.Uint64()] }
}
