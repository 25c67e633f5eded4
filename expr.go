package byteslice

import (
	"fmt"
)

// Expr is a boolean combination of filters — arbitrary nesting of AND and
// OR over column-scalar predicates, the shape TPC-H's Q19 takes (§2:
// "conjunctions and disjunctions of predicates can be implemented as
// logical AND and OR operations on these result bit vectors").
//
// Evaluation applies the table's pipelined strategies within each
// innermost homogeneous group (a run of leaves under one AND or OR) and
// combines group results with bit-vector algebra.
type Expr struct {
	// Exactly one of leaf, and, or is set.
	leaf *Filter
	and  []Expr
	or   []Expr
}

// Leaf wraps a single filter.
func Leaf(f Filter) Expr { return Expr{leaf: &f} }

// All is the conjunction of the given expressions.
func All(exprs ...Expr) Expr { return Expr{and: exprs} }

// Any is the disjunction of the given expressions.
func Any(exprs ...Expr) Expr { return Expr{or: exprs} }

// AllFilters is shorthand for All over plain filters.
func AllFilters(filters ...Filter) Expr {
	exprs := make([]Expr, len(filters))
	for i, f := range filters {
		exprs[i] = Leaf(f)
	}
	return All(exprs...)
}

// AnyFilters is shorthand for Any over plain filters.
func AnyFilters(filters ...Filter) Expr {
	exprs := make([]Expr, len(filters))
	for i, f := range filters {
		exprs[i] = Leaf(f)
	}
	return Any(exprs...)
}

// String renders the expression.
func (e Expr) String() string {
	switch {
	case e.leaf != nil:
		return e.leaf.Col
	case e.and != nil:
		return renderGroup("AND", e.and)
	case e.or != nil:
		return renderGroup("OR", e.or)
	}
	return "<empty>"
}

func renderGroup(op string, exprs []Expr) string {
	s := "("
	for i, sub := range exprs {
		if i > 0 {
			s += " " + op + " "
		}
		s += sub.String()
	}
	return s + ")"
}

// filterEvaluator evaluates flat conjunctions and disjunctions of
// filters. Table implements it directly; IngestTable implements it
// through a pinned view (Pin), so boolean trees evaluate identically —
// and over one consistent row set — on immutable and live tables.
type filterEvaluator interface {
	Filter(filters []Filter, opts ...QueryOption) (*Result, error)
	FilterAny(filters []Filter, opts ...QueryOption) (*Result, error)
}

// Query evaluates the expression over the table. The returned Result's
// Explain joins the plans of every homogeneous group the expression split
// into (one plan block per Filter/FilterAny evaluation), and ZoneSkipped
// sums their zone-map pruning.
func (t *Table) Query(e Expr, opts ...QueryOption) (*Result, error) {
	return evalExpr(t, e, opts)
}

func evalExpr(t filterEvaluator, e Expr, opts []QueryOption) (*Result, error) {
	switch {
	case e.leaf != nil:
		return t.Filter([]Filter{*e.leaf}, opts...)

	case e.and != nil, e.or != nil:
		children := e.and
		disjunct := false
		if e.or != nil {
			children = e.or
			disjunct = true
		}
		if len(children) == 0 {
			return nil, fmt.Errorf("byteslice: empty %s group", map[bool]string{false: "AND", true: "OR"}[disjunct])
		}
		// Runs of leaves evaluate together so the pipelined strategies
		// apply; nested groups evaluate recursively and combine.
		var acc *Result
		combine := func(r *Result) {
			if acc == nil {
				acc = r
				return
			}
			if disjunct {
				acc.bv.Or(r.bv)
			} else {
				acc.bv.And(r.bv)
			}
			acc.plans = append(acc.plans, r.plans...)
			acc.zoneSkipped += r.zoneSkipped
			if r.stats != nil {
				if acc.stats == nil {
					acc.stats = r.stats
				} else {
					acc.stats.Absorb(r.stats)
				}
			}
			// r's bits are folded into acc and r goes no further.
			r.release()
		}
		var run []Filter
		flush := func() error {
			if len(run) == 0 {
				return nil
			}
			var res *Result
			var err error
			if disjunct {
				res, err = t.FilterAny(run, opts...)
			} else {
				res, err = t.Filter(run, opts...)
			}
			if err != nil {
				return err
			}
			run = nil
			combine(res)
			return nil
		}
		for _, child := range children {
			if child.leaf != nil {
				run = append(run, *child.leaf)
				continue
			}
			if err := flush(); err != nil {
				return nil, err
			}
			res, err := evalExpr(t, child, opts)
			if err != nil {
				return nil, err
			}
			combine(res)
		}
		if err := flush(); err != nil {
			return nil, err
		}
		return acc, nil
	}
	return nil, fmt.Errorf("byteslice: empty expression")
}
