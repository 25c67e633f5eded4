package byteslice

import (
	"fmt"

	"byteslice/internal/layout"
)

// Filter is one column-scalar predicate of a query. Build filters with
// IntFilter, DecimalFilter, StringFilter or CodeFilter; the constants are
// translated into the column's code domain when the filter is evaluated,
// including constants outside the domain (which may decide the filter
// trivially, e.g. v < min selects nothing).
type Filter struct {
	Col string

	setInt  func(*Column) (layout.Predicate, *bool, error)
	setDec  func(*Column) (layout.Predicate, *bool, error)
	setStr  func(*Column) (layout.Predicate, *bool, error)
	setCode func(*Column) (layout.Predicate, *bool, error)
}

// position locates a native constant relative to a column's code domain.
type position struct {
	state int // -1 below the domain, 0 inside, +1 above
	code  uint32
}

var (
	trivTrue  = true
	trivFalse = false
)

// onEdge decides a code range predicate whose constant sits on an edge of
// the codes [0, max] — v <= max, v >= 0 and BETWEEN 0 AND max hold for
// every code, v < 0 and v > max for none — and passes any other predicate
// through to be scanned.
func onEdge(p layout.Predicate, max uint32) (layout.Predicate, *bool, error) {
	switch {
	case p.Op == Lt && p.C1 == 0, p.Op == Gt && p.C1 == max:
		return layout.Predicate{}, &trivFalse, nil
	case p.Op == Le && p.C1 == max, p.Op == Ge && p.C1 == 0,
		p.Op == Between && p.C1 == 0 && p.C2 == max:
		return layout.Predicate{}, &trivTrue, nil
	}
	return p, nil, nil
}

// rangePred builds the code predicate for a comparison given the operand
// positions, or decides it trivially: outside the domain, or on its edge
// (onEdge; only an in-domain position, state 0, carries a code).
func rangePred(op Op, p1, p2 position, max uint32) (layout.Predicate, *bool, error) {
	switch op {
	case Lt, Le:
		if p1.state < 0 {
			return layout.Predicate{}, &trivFalse, nil
		}
		if p1.state > 0 {
			return layout.Predicate{}, &trivTrue, nil
		}
		return onEdge(layout.Predicate{Op: op, C1: p1.code}, max)
	case Gt, Ge:
		if p1.state > 0 {
			return layout.Predicate{}, &trivFalse, nil
		}
		if p1.state < 0 {
			return layout.Predicate{}, &trivTrue, nil
		}
		return onEdge(layout.Predicate{Op: op, C1: p1.code}, max)
	case Eq:
		if p1.state != 0 {
			return layout.Predicate{}, &trivFalse, nil
		}
		return layout.Predicate{Op: Eq, C1: p1.code}, nil, nil
	case Ne:
		if p1.state != 0 {
			return layout.Predicate{}, &trivTrue, nil
		}
		return layout.Predicate{Op: Ne, C1: p1.code}, nil, nil
	case Between:
		if p1.state > 0 || p2.state < 0 {
			return layout.Predicate{}, &trivFalse, nil
		}
		lo, hi := uint32(0), max
		if p1.state == 0 {
			lo = p1.code
		}
		if p2.state == 0 {
			hi = p2.code
		}
		if lo > hi {
			return layout.Predicate{}, &trivFalse, nil
		}
		return onEdge(layout.Predicate{Op: Between, C1: lo, C2: hi}, max)
	}
	return layout.Predicate{}, nil, fmt.Errorf("byteslice: unknown operator %v", op)
}

func operandCount(op Op) int {
	if op == Between {
		return 2
	}
	return 1
}

// IntFilter filters an integer column: IntFilter("qty", Lt, 24) or
// IntFilter("qty", Between, 10, 20).
func IntFilter(col string, op Op, operands ...int64) Filter {
	return Filter{Col: col, setInt: func(c *Column) (layout.Predicate, *bool, error) {
		if len(operands) != operandCount(op) {
			return layout.Predicate{}, nil, fmt.Errorf("byteslice: %v on %s needs %d operands, got %d", op, col, operandCount(op), len(operands))
		}
		pos := func(v int64) position {
			lo, hi := c.ints.Min(), c.ints.Max()
			if v < lo {
				return position{state: -1}
			}
			if v > hi {
				return position{state: 1}
			}
			return position{code: c.ints.EncodeClamped(v)}
		}
		p1 := pos(operands[0])
		p2 := p1
		if op == Between {
			p2 = pos(operands[1])
		}
		return rangePred(op, p1, p2, c.maxCode())
	}}
}

// DecimalFilter filters a decimal column. Constants are rounded to the
// column's precision before comparison.
func DecimalFilter(col string, op Op, operands ...float64) Filter {
	return Filter{Col: col, setDec: func(c *Column) (layout.Predicate, *bool, error) {
		if len(operands) != operandCount(op) {
			return layout.Predicate{}, nil, fmt.Errorf("byteslice: %v on %s needs %d operands, got %d", op, col, operandCount(op), len(operands))
		}
		pos := func(v float64) position {
			lo, hi := c.decs.Min(), c.decs.Max()
			if v < lo {
				return position{state: -1}
			}
			if v > hi {
				return position{state: 1}
			}
			return position{code: c.decs.EncodeClamped(v)}
		}
		p1 := pos(operands[0])
		p2 := p1
		if op == Between {
			p2 = pos(operands[1])
		}
		return rangePred(op, p1, p2, c.maxCode())
	}}
}

// StringFilter filters a dictionary-encoded string column. Constants need
// not be dictionary members: range comparisons use the dictionary's order,
// and equality with an absent string selects nothing.
func StringFilter(col string, op Op, operands ...string) Filter {
	return Filter{Col: col, setStr: func(c *Column) (layout.Predicate, *bool, error) {
		if len(operands) != operandCount(op) {
			return layout.Predicate{}, nil, fmt.Errorf("byteslice: %v on %s needs %d operands, got %d", op, col, operandCount(op), len(operands))
		}
		card := uint32(c.dict.Cardinality())
		switch op {
		case Eq, Ne:
			code, err := c.dict.Encode(operands[0])
			if err != nil {
				if op == Eq {
					return layout.Predicate{}, &trivFalse, nil
				}
				return layout.Predicate{}, &trivTrue, nil
			}
			return layout.Predicate{Op: op, C1: code}, nil, nil
		case Lt, Le, Gt, Ge:
			// lb is the code of the smallest dictionary entry ≥ s. Every
			// stored code lies in [0, card-1], so predicates on the first
			// or last entry decide trivially (onEdge).
			lb := c.dict.EncodeLowerBound(operands[0])
			member := false
			if lb < card {
				member = c.dict.Decode(lb) == operands[0]
			}
			switch op {
			case Lt:
				if lb == 0 {
					return layout.Predicate{}, &trivFalse, nil
				}
				if lb >= card {
					return layout.Predicate{}, &trivTrue, nil
				}
				return layout.Predicate{Op: Lt, C1: lb}, nil, nil
			case Le:
				if member {
					return onEdge(layout.Predicate{Op: Le, C1: lb}, card-1)
				}
				if lb == 0 {
					return layout.Predicate{}, &trivFalse, nil
				}
				if lb >= card {
					return layout.Predicate{}, &trivTrue, nil
				}
				return layout.Predicate{Op: Lt, C1: lb}, nil, nil
			case Gt:
				if member {
					return onEdge(layout.Predicate{Op: Gt, C1: lb}, card-1)
				}
				if lb >= card {
					return layout.Predicate{}, &trivFalse, nil
				}
				return onEdge(layout.Predicate{Op: Ge, C1: lb}, card-1)
			default: // Ge
				if lb >= card {
					return layout.Predicate{}, &trivFalse, nil
				}
				return onEdge(layout.Predicate{Op: Ge, C1: lb}, card-1)
			}
		case Between:
			lo := c.dict.EncodeLowerBound(operands[0])
			if lo >= card {
				return layout.Predicate{}, &trivFalse, nil
			}
			ub := c.dict.EncodeLowerBound(operands[1])
			hiMember := ub < card && c.dict.Decode(ub) == operands[1]
			hi := ub
			if !hiMember {
				if ub == 0 {
					return layout.Predicate{}, &trivFalse, nil
				}
				hi = ub - 1
			}
			if lo > hi {
				return layout.Predicate{}, &trivFalse, nil
			}
			return onEdge(layout.Predicate{Op: Between, C1: lo, C2: hi}, card-1)
		}
		return layout.Predicate{}, nil, fmt.Errorf("byteslice: unknown operator %v", op)
	}}
}

// CodeFilter filters a raw code column with already-encoded constants.
func CodeFilter(col string, op Op, operands ...uint32) Filter {
	return Filter{Col: col, setCode: func(c *Column) (layout.Predicate, *bool, error) {
		if len(operands) != operandCount(op) {
			return layout.Predicate{}, nil, fmt.Errorf("byteslice: %v on %s needs %d operands, got %d", op, col, operandCount(op), len(operands))
		}
		pos := func(v uint32) position {
			if v > c.maxCode() {
				return position{state: 1}
			}
			return position{code: v}
		}
		p1 := pos(operands[0])
		p2 := p1
		if op == Between {
			p2 = pos(operands[1])
		}
		return rangePred(op, p1, p2, c.maxCode())
	}}
}
