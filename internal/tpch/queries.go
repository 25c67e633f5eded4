package tpch

import (
	"fmt"

	"byteslice"
	"byteslice/internal/layout"
)

// Filter is one column-scalar predicate over a column's codes. Queries and
// the scalar oracle (Validate) read it directly; Run evaluates it as the
// facade's CodeFilter.
type Filter struct {
	Col  string
	Pred layout.Predicate
}

// Cmp is the filter col op c1, or col BETWEEN c1 AND c2 given c2.
func Cmp(col string, op layout.Op, c1 uint32, c2 ...uint32) Filter {
	fl := Filter{Col: col, Pred: layout.Predicate{Op: op, C1: c1}}
	if len(c2) > 0 {
		fl.Pred.C2 = c2[0]
	}
	return fl
}

// And is a pure conjunction as a CNF: one singleton group per filter.
func And(fs ...Filter) [][]Filter {
	groups := make([][]Filter, len(fs))
	for i, fl := range fs {
		groups[i] = []Filter{fl}
	}
	return groups
}

func (fl Filter) facade() byteslice.Filter {
	if fl.Pred.Op == layout.Between {
		return byteslice.CodeFilter(fl.Col, fl.Pred.Op, fl.Pred.C1, fl.Pred.C2)
	}
	return byteslice.CodeFilter(fl.Col, fl.Pred.Op, fl.Pred.C1)
}

func facadeFilters(g []Filter) []byteslice.Filter {
	out := make([]byteslice.Filter, len(g))
	for i, fl := range g {
		out[i] = fl.facade()
	}
	return out
}

// Query is one selection–projection kernel. The predicate is either a CNF
// (AND of OR-groups; most queries are pure conjunctions with singleton
// groups) or — when DNF is set — a disjunction of conjunctions (Q19).
type Query struct {
	Name string
	// Where is CNF: the groups are ANDed; filters inside a group are ORed.
	Where [][]Filter
	// DNF, when non-empty, replaces Where: the groups are ORed; filters
	// inside a group are ANDed.
	DNF [][]Filter
	// Residual, when set, is a predicate scans cannot evaluate (TPC-H's
	// column-vs-column comparisons, e.g. l_commitdate < l_receiptdate in
	// Q4): it is applied to scan survivors by looking up the named columns
	// — the WideTable treatment of non-scannable conjuncts.
	Residual *Residual
	// Project lists the columns looked up for every matching record.
	Project []string
	// Agg, when set, completes the kernel with its aggregation over the
	// projected columns. Aggregation consumes the standard-array
	// intermediates, so it is layout independent (§2) and is not part of
	// the scan/lookup costs the figures report; it exists so the kernels
	// produce the queries' actual answers.
	Agg *Aggregate
}

// Residual is a row predicate over looked-up codes.
type Residual struct {
	Cols []string
	Keep func(vals []uint32) bool
}

// lessThan is the col1 < col2 residual used by Q4 and Q12.
var lessThan = func(v []uint32) bool { return v[0] < v[1] }

// equalTo is the col1 = col2 residual used by Q5.
var equalTo = func(v []uint32) bool { return v[0] == v[1] }

// percent decodes the l_discount and l_tax codes.
func percent(c uint32) float64 { return float64(c) / 100 }

// Queries instantiates the paper's thirteen TPC-H selection–projection
// kernels against this dataset's encoders. Predicate structure and
// constants follow the TPC-H specification's validation parameters (the
// selection–projection reduction of [32]); LIKE-based queries are omitted,
// as in the paper.
func Queries(d *Dataset) []Query {
	day := d.DayCode
	dc := d.DictCode
	f := Cmp
	return []Query{
		{
			// Q1: pricing summary report; ~98% selectivity, heavy lookups.
			Name:  "Q1",
			Where: And(f("l_shipdate", layout.Le, day(1998, 9, 2))),
			Project: []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax",
				"l_returnflag", "l_linestatus"},
			Agg: &Aggregate{
				Exprs:   []string{"sum_qty", "sum_base_price", "sum_disc_price", "sum_charge"},
				Inputs:  []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax"},
				GroupBy: []string{"l_returnflag", "l_linestatus"},
				Eval: func(v []uint32) []float64 {
					price := d.Price.Decode(v[1])
					disc := price * (1 - percent(v[2]))
					return []float64{float64(v[0]), price, disc, disc * (1 + percent(v[3]))}
				},
			},
		},
		{
			// Q3: shipping priority.
			Name: "Q3",
			Where: And(
				f("c_mktsegment", layout.Eq, dc("c_mktsegment", "BUILDING")),
				f("o_orderdate", layout.Lt, day(1995, 3, 15)),
				f("l_shipdate", layout.Gt, day(1995, 3, 15)),
			),
			Project: []string{"l_extendedprice", "l_discount", "o_orderdate"},
		},
		{
			// Q4: order priority checking; l_commitdate < l_receiptdate is
			// a column-vs-column comparison, evaluated on scan survivors
			// by lookups.
			Name: "Q4",
			Where: And(
				f("o_orderdate", layout.Between, day(1993, 7, 1), day(1993, 10, 1)-1),
			),
			Residual: &Residual{Cols: []string{"l_commitdate", "l_receiptdate"}, Keep: lessThan},
			Project:  []string{"o_orderpriority"},
		},
		{
			// Q5: local supplier volume (region ASIA, one order-date year,
			// customer and supplier in the same nation — the flag column).
			Name: "Q5",
			Where: And(
				f("o_orderdate", layout.Between, day(1994, 1, 1), day(1995, 1, 1)-1),
				f("s_regionkey", layout.Eq, dc("region", "ASIA")), // region keys follow dictionary order
			),
			Residual: &Residual{Cols: []string{"c_nationkey", "s_nationkey"}, Keep: equalTo},
			Project:  []string{"l_extendedprice", "l_discount", "s_nationkey"},
		},
		{
			// Q6: forecasting revenue change; the classic ~2% scan.
			Name: "Q6",
			Where: And(
				f("l_shipdate", layout.Between, day(1994, 1, 1), day(1995, 1, 1)-1),
				f("l_discount", layout.Between, 5, 7),
				f("l_quantity", layout.Lt, 24),
			),
			Project: []string{"l_extendedprice", "l_discount"},
			Agg: &Aggregate{
				Exprs:  []string{"revenue"},
				Inputs: []string{"l_extendedprice", "l_discount"},
				Eval: func(v []uint32) []float64 {
					return []float64{d.Price.Decode(v[0]) * percent(v[1])}
				},
			},
		},
		{
			// Q8: national market share.
			Name: "Q8",
			Where: And(
				f("c_regionkey", layout.Eq, dc("region", "AMERICA")),
				f("p_type", layout.Eq, dc("p_type", "ECONOMY ANODIZED STEEL")),
				f("o_orderdate", layout.Between, day(1995, 1, 1), day(1996, 12, 31)),
			),
			Project: []string{"l_extendedprice", "l_discount", "s_nationkey", "o_orderdate"},
		},
		{
			// Q10: returned item reporting.
			Name: "Q10",
			Where: And(
				f("o_orderdate", layout.Between, day(1993, 10, 1), day(1994, 1, 1)-1),
				f("l_returnflag", layout.Eq, dc("l_returnflag", "R")),
			),
			Project: []string{"l_extendedprice", "l_discount", "c_nationkey"},
		},
		{
			// Q11: important stock identification (suppliers of one nation;
			// GERMANY is nation key 7 in dictionary order here).
			Name:    "Q11",
			Where:   And(f("s_nationkey", layout.Eq, 7)),
			Project: []string{"ps_supplycost", "ps_availqty"},
		},
		{
			// Q12: shipping modes and order priority; the shipmode IN-list
			// is an OR-group inside the conjunction.
			Name: "Q12",
			Where: [][]Filter{
				{f("l_receiptdate", layout.Between, day(1994, 1, 1), day(1995, 1, 1)-1)},
				{
					f("l_shipmode", layout.Eq, dc("l_shipmode", "MAIL")),
					f("l_shipmode", layout.Eq, dc("l_shipmode", "SHIP")),
				},
			},
			Residual: &Residual{Cols: []string{"l_commitdate", "l_receiptdate"}, Keep: lessThan},
			Project:  []string{"o_orderpriority"},
		},
		{
			// Q14: promotion effect.
			Name:    "Q14",
			Where:   And(f("l_shipdate", layout.Between, day(1995, 9, 1), day(1995, 10, 1)-1)),
			Project: []string{"p_type", "l_extendedprice", "l_discount"},
		},
		{
			// Q15: top supplier.
			Name:    "Q15",
			Where:   And(f("l_shipdate", layout.Between, day(1996, 1, 1), day(1996, 4, 1)-1)),
			Project: []string{"l_suppkey", "l_extendedprice", "l_discount"},
		},
		{
			// Q17: small-quantity-order revenue; highly selective.
			Name: "Q17",
			Where: And(
				f("p_brand", layout.Eq, dc("p_brand", "Brand#23")),
				f("p_container", layout.Eq, dc("p_container", "MED BOX")),
			),
			Project: []string{"l_quantity", "l_extendedprice"},
		},
		{
			// Q19: discounted revenue — a disjunction of three brand/
			// container-class/quantity/size conjunctions.
			Name: "Q19",
			DNF: [][]Filter{
				{
					f("p_brand", layout.Eq, dc("p_brand", "Brand#12")),
					f("p_container", layout.Between, dc("p_container", "SM BAG"), dc("p_container", "SM PKG")),
					f("l_quantity", layout.Between, 1, 11),
					f("p_size", layout.Between, 1, 5),
				},
				{
					f("p_brand", layout.Eq, dc("p_brand", "Brand#23")),
					f("p_container", layout.Between, dc("p_container", "MED BAG"), dc("p_container", "MED PKG")),
					f("l_quantity", layout.Between, 10, 20),
					f("p_size", layout.Between, 1, 10),
				},
				{
					f("p_brand", layout.Eq, dc("p_brand", "Brand#34")),
					f("p_container", layout.Between, dc("p_container", "LG BAG"), dc("p_container", "LG PKG")),
					f("l_quantity", layout.Between, 20, 30),
					f("p_size", layout.Between, 1, 15),
				},
			},
			Project: []string{"l_extendedprice", "l_discount"},
		},
	}
}

// Aggregate computes per-group sums of expressions over a kernel's
// projected codes. GroupBy may be empty (one global group).
type Aggregate struct {
	// Exprs names each aggregate expression.
	Exprs []string
	// Inputs are the projected columns Eval reads, in its argument order.
	Inputs []string
	// Eval computes all expressions for one row's input codes.
	Eval func(codes []uint32) []float64
	// GroupBy are projected columns whose codes form the group key.
	GroupBy []string
}

// GroupResult is one output group.
type GroupResult struct {
	Key  string
	Sums []float64
	Rows int
}

// run evaluates the aggregate over n projected rows, keeping groups in
// first-seen order.
func (a *Aggregate) run(proj map[string][]uint32, n int) ([]GroupResult, error) {
	for _, cols := range [][]string{a.Inputs, a.GroupBy} {
		for _, c := range cols {
			if _, ok := proj[c]; !ok {
				return nil, fmt.Errorf("tpch: aggregate column %s not projected", c)
			}
		}
	}
	groups := make(map[string]*GroupResult)
	var order []string
	vals := make([]uint32, len(a.Inputs))
	for i := 0; i < n; i++ {
		key := ""
		for _, g := range a.GroupBy {
			key += fmt.Sprintf("%d|", proj[g][i])
		}
		for j, in := range a.Inputs {
			vals[j] = proj[in][i]
		}
		sums := a.Eval(vals)
		gr, ok := groups[key]
		if !ok {
			gr = &GroupResult{Key: key, Sums: make([]float64, len(sums))}
			groups[key] = gr
			order = append(order, key)
		}
		for j, s := range sums {
			gr.Sums[j] += s
		}
		gr.Rows++
	}
	out := make([]GroupResult, len(order))
	for i, k := range order {
		out[i] = *groups[k]
	}
	return out, nil
}

// Result carries the per-phase profile of one query execution.
type Result struct {
	Query   string
	Matches int
	// Groups holds the aggregation output when the kernel defines one.
	Groups []GroupResult
	// Scan and Lookup are the modelled costs of each phase.
	ScanCycles, LookupCycles float64
	ScanInstr, LookupInstr   uint64
}

// TotalCycles is the selection–projection cost the paper's Figure 14/20
// report (normalised per tuple by callers).
func (r Result) TotalCycles() float64 { return r.ScanCycles + r.LookupCycles }

// StrategyFor is the paper's setup: ByteSlice evaluates complex predicates
// with the column-first pipelining it recommends, the other layouts
// conventionally.
func StrategyFor(layoutName string) byteslice.Strategy {
	if layoutName == string(byteslice.FormatByteSlice) {
		return byteslice.StrategyColumnFirst
	}
	return byteslice.StrategyBaseline
}

// Run executes the kernel over the table with strategy s, profiling the
// scan phase and the lookup (projection) phase separately — Figure 20's
// breakdown. Predicates evaluate in the order written. A nil prof runs the
// facade's native path and leaves the cost fields zero.
func Run(t *byteslice.Table, q Query, s byteslice.Strategy, prof *byteslice.Profile) (Result, error) {
	res := Result{Query: q.Name}
	cycles, instr := counters(prof)
	match, err := t.Query(q.expr(), byteslice.WithProfile(prof), byteslice.WithStrategy(s),
		byteslice.WithFilterOrder(byteslice.OrderAsWritten))
	if err != nil {
		return res, err
	}
	scanCycles, scanInstr := counters(prof)
	res.ScanCycles, res.ScanInstr = scanCycles-cycles, scanInstr-instr

	rows := match.Rows()
	if q.Residual != nil {
		if rows, err = q.Residual.filter(t, prof, rows); err != nil {
			return res, err
		}
	}
	res.Matches = len(rows)
	proj := make(map[string][]uint32, len(q.Project))
	for _, name := range q.Project {
		c, err := t.Column(name)
		if err != nil {
			return res, err
		}
		codes := make([]uint32, len(rows))
		for i, r := range rows {
			codes[i] = c.LookupCode(prof, int(r))
		}
		proj[name] = codes
	}
	cycles, instr = counters(prof)
	res.LookupCycles, res.LookupInstr = cycles-scanCycles, instr-scanInstr

	if q.Agg != nil {
		res.Groups, err = q.Agg.run(proj, len(rows))
	}
	return res, err
}

// expr is the query's predicate as a facade expression. A CNF's singleton
// groups are leaves of one AND, so a pure conjunction is a single
// pipelined Filter; each OR-group, and each conjunction of a DNF, is its
// own FilterAny/Filter call, combined in order through the result bit
// vectors.
func (q Query) expr() byteslice.Expr {
	if len(q.DNF) > 0 {
		terms := make([]byteslice.Expr, len(q.DNF))
		for i, g := range q.DNF {
			terms[i] = byteslice.AllFilters(facadeFilters(g)...)
		}
		return byteslice.Any(terms...)
	}
	terms := make([]byteslice.Expr, len(q.Where))
	for i, g := range q.Where {
		if len(g) == 1 {
			terms[i] = byteslice.Leaf(g[0].facade())
		} else {
			terms[i] = byteslice.AnyFilters(facadeFilters(g)...)
		}
	}
	return byteslice.All(terms...)
}

// filter evaluates the residual on scan survivors by looking up its
// columns row by row, charging one scalar comparison per row, and returns
// the rows it keeps.
func (r *Residual) filter(t *byteslice.Table, prof *byteslice.Profile, rows []int32) ([]int32, error) {
	cols := make([]*byteslice.Column, len(r.Cols))
	for i, name := range r.Cols {
		c, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	vals := make([]uint32, len(cols))
	kept := rows[:0]
	for _, row := range rows {
		for i, c := range cols {
			vals[i] = c.LookupCode(prof, int(row))
		}
		prof.ChargeScalar(1)
		if r.Keep(vals) {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// counters reads the profile's modelled totals (zero without one).
func counters(p *byteslice.Profile) (cycles float64, instr uint64) {
	if p == nil {
		return 0, 0
	}
	return p.Cycles(), p.Instructions()
}

// Validate cross-checks a query's match count against a scalar evaluation
// over the raw codes (column name → one code per row, as Dataset.Raw).
func Validate(raw map[string][]uint32, q Query, matches int) error {
	n := 0
	for _, codes := range raw {
		n = len(codes)
		break
	}
	evalGroup := func(i int, g []Filter, anyOf bool) bool {
		res := !anyOf
		for _, fl := range g {
			m := fl.Pred.Eval(raw[fl.Col][i])
			if anyOf {
				res = res || m
			} else {
				res = res && m
			}
		}
		return res
	}
	want := 0
	vals := make([]uint32, 0, 4)
	for i := 0; i < n; i++ {
		var ok bool
		if len(q.DNF) > 0 {
			ok = false
			for _, g := range q.DNF {
				if evalGroup(i, g, false) {
					ok = true
					break
				}
			}
		} else {
			ok = true
			for _, g := range q.Where {
				if !evalGroup(i, g, true) {
					ok = false
					break
				}
			}
		}
		if ok && q.Residual != nil {
			vals = vals[:0]
			for _, c := range q.Residual.Cols {
				vals = append(vals, raw[c][i])
			}
			ok = q.Residual.Keep(vals)
		}
		if ok {
			want++
		}
	}
	if want != matches {
		return fmt.Errorf("tpch %s: %d matches, oracle says %d", q.Name, matches, want)
	}
	return nil
}
