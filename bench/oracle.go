package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"byteslice/internal/serve"
)

// value returns row i of col in the generator's exact units: integers as
// is, decimals in cents, strings as their index into the sorted modes.
func (l *lineitem) value(col string, i int) int64 {
	switch col {
	case "orderkey":
		return int64(l.orderkey[i])
	case "quantity":
		return int64(l.quantity[i])
	case "price":
		return int64(l.price[i])
	case "discount":
		return int64(l.discount[i])
	case "shipdate":
		return int64(l.shipdate[i])
	}
	return int64(l.mode[i])
}

func (p pred) holds(v int64) bool {
	switch p.op {
	case "eq":
		return v == p.a
	case "lt":
		return v < p.a
	case "ge":
		return v >= p.a
	}
	return p.a <= v && v <= p.b
}

// answer is the oracle's result for one query.
type answer struct {
	count int
	sum   int64 // of q.col over the matches, exact units
	best  int64 // min of q.col over the matches
	ids   []int32
}

// solve evaluates q over the first n rows with a plain loop.
func (l *lineitem) solve(q *query, n int) answer {
	a := answer{best: math.MaxInt64}
	for i := 0; i < n; i++ {
		match := true
		for _, p := range q.where {
			if !p.holds(l.value(p.col, i)) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		a.count++
		switch q.op {
		case "sum", "avg", "min":
			v := l.value(q.col, i)
			a.sum += v
			a.best = min(a.best, v)
		case "rows":
			a.ids = append(a.ids, int32(i))
		}
	}
	if q.orderBy != "" {
		// OrderBy is stable: ties keep row order.
		slices.SortStableFunc(a.ids, func(x, y int32) int {
			vx, vy := l.value(q.orderBy, int(x)), l.value(q.orderBy, int(y))
			switch {
			case vx < vy:
				return -1
			case vx > vy:
				return 1
			}
			return 0
		})
	}
	if q.limit > 0 && len(a.ids) > q.limit {
		a.ids = a.ids[:q.limit]
	}
	return a
}

// oracle answers requests over the generated rows, remembering answers
// by request body and visible row count (dashboard bodies repeat).
type oracle struct {
	l    *lineitem
	memo map[string]answer
}

func newOracle(l *lineitem) *oracle { return &oracle{l: l, memo: map[string]answer{}} }

// check decodes one /query response and compares it with the oracle:
// count, aggregate value, row ids and every projected value. The
// response's own row count says which prefix of the rows it saw (the
// whole table for snapshots, the visible prefix for a live mount).
func (o *oracle) check(q *query, body []byte) error {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	l := o.l
	if resp.Rows > l.len() {
		return fmt.Errorf("response claims %d rows, only %d were ever written", resp.Rows, l.len())
	}
	key := fmt.Sprintf("%s@%d", q.body(table), resp.Rows)
	want, ok := o.memo[key]
	if !ok {
		want = l.solve(q, resp.Rows)
		o.memo[key] = want
	}
	if resp.Count != want.count {
		return fmt.Errorf("count %d, want %d", resp.Count, want.count)
	}
	switch q.op {
	case "sum", "avg":
		if want.count == 0 {
			if resp.Value != nil || resp.IntValue != nil {
				return fmt.Errorf("%s over no rows returned a value", q.op)
			}
			return nil
		}
		exp := float64(want.sum)
		if kindOf(q.col) == kindDecimal {
			exp /= 100
		}
		if q.op == "avg" {
			exp /= float64(want.count)
		}
		got := math.NaN()
		switch {
		case resp.Value != nil:
			got = *resp.Value
		case resp.IntValue != nil:
			got = float64(*resp.IntValue)
		}
		if !(math.Abs(got-exp) <= 1e-13*math.Max(1, math.Abs(exp))) {
			return fmt.Errorf("%s(%s) = %v, want %v", q.op, q.col, got, exp)
		}
	case "min":
		if want.count == 0 {
			if resp.IntValue != nil {
				return fmt.Errorf("min over no rows returned a value")
			}
			return nil
		}
		if resp.IntValue == nil || *resp.IntValue != want.best {
			return fmt.Errorf("min(%s) = %v, want %d", q.col, resp.IntValue, want.best)
		}
	case "rows":
		return l.checkRows(q, want.ids, &resp)
	}
	return nil
}

func (l *lineitem) checkRows(q *query, ids []int32, resp *serve.Response) error {
	if !slices.Equal(resp.RowIDs, ids) {
		return fmt.Errorf("row ids differ: got %d ids, want %d", len(resp.RowIDs), len(ids))
	}
	// Projections come back in row order, restricted to the limited ids.
	inOrder := slices.Clone(ids)
	slices.Sort(inOrder)
	for _, col := range q.cols {
		d := resp.Data[col]
		if d == nil {
			return fmt.Errorf("projection %s missing", col)
		}
		if !slices.Equal(d.Rows, inOrder) {
			return fmt.Errorf("projection %s: row ids differ", col)
		}
		for i, r := range inOrder {
			v := l.value(col, int(r))
			var ok bool
			switch kindOf(col) {
			case kindInt:
				ok = i < len(d.Ints) && d.Ints[i] == v
			case kindDecimal:
				ok = i < len(d.Decimals) && d.Decimals[i] == cents(v)
			case kindString:
				ok = i < len(d.Strings) && d.Strings[i] == modes[v]
			}
			if !ok {
				return fmt.Errorf("projection %s row %d differs", col, r)
			}
		}
	}
	return nil
}
