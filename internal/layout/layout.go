// Package layout defines the contract every main-memory storage layout in
// this repository implements, the comparison predicates scans evaluate, and
// a naive scalar reference implementation used as the correctness oracle in
// tests.
//
// A layout stores a column of n fixed-width k-bit unsigned integer codes
// (1 ≤ k ≤ 32) and supports the paper's two core operations:
//
//   - Scan: evaluate a range-based comparison against a constant over the
//     whole column, producing a result bit vector with bit i set iff code i
//     satisfies the predicate.
//   - Lookup: reconstruct the code at a given record number.
//
// Both operations execute against an emulated SIMD engine so that their
// instruction, branch and memory behaviour is recorded (see internal/simd
// and internal/perf).
package layout

import (
	"fmt"

	"byteslice/internal/bitvec"
	"byteslice/internal/cache"
	"byteslice/internal/simd"
)

// Op is a range-based comparison operator.
type Op int

// The comparison operators the paper's scans support (§2). Between is
// inclusive on both ends: C1 ≤ v ≤ C2.
const (
	Lt Op = iota
	Le
	Gt
	Ge
	Eq
	Ne
	Between
)

// String returns the SQL-ish spelling of the operator.
func (op Op) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Between:
		return "BETWEEN"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Ops lists all supported operators, for sweeps and property tests.
var Ops = []Op{Lt, Le, Gt, Ge, Eq, Ne, Between}

// Predicate is a column-scalar filter "v op C1" (or C1 ≤ v ≤ C2 for
// Between). Constants are codes in the column's encoded domain.
type Predicate struct {
	Op     Op
	C1, C2 uint32
}

// Eval evaluates the predicate on a single code; it is the semantic
// definition scans must agree with.
func (p Predicate) Eval(v uint32) bool {
	switch p.Op {
	case Lt:
		return v < p.C1
	case Le:
		return v <= p.C1
	case Gt:
		return v > p.C1
	case Ge:
		return v >= p.C1
	case Eq:
		return v == p.C1
	case Ne:
		return v != p.C1
	case Between:
		return p.C1 <= v && v <= p.C2
	}
	panic("layout: unknown operator")
}

// String renders the predicate.
func (p Predicate) String() string {
	if p.Op == Between {
		return fmt.Sprintf("v BETWEEN %d AND %d", p.C1, p.C2)
	}
	return fmt.Sprintf("v %s %d", p.Op, p.C1)
}

// Layout is a built, immutable column in one storage format.
type Layout interface {
	// Name identifies the format ("BitPacked", "VBP", "HBP", "ByteSlice", ...).
	Name() string
	// Width is the code width k in bits.
	Width() int
	// Len is the number of codes stored.
	Len() int
	// Scan evaluates p over the column into out, which must have length
	// Len(). out is overwritten.
	Scan(e *simd.Engine, p Predicate, out *bitvec.Vector)
	// Lookup reconstructs code i.
	Lookup(e *simd.Engine, i int) uint32
	// SizeBytes is the in-memory footprint of the formatted column.
	SizeBytes() uint64
}

// Builder constructs a layout from codes of width k, registering its
// memory regions with the arena (which determines simulated addresses for
// the cache model). Builders must copy what they need: callers may reuse
// the codes slice.
type Builder func(codes []uint32, k int, arena *cache.Arena) Layout

// CheckArgs validates common builder arguments; builders call it first.
func CheckArgs(codes []uint32, k int) {
	if k < 1 || k > 32 {
		panic(fmt.Sprintf("layout: code width %d out of range [1,32]", k))
	}
	if k < 32 {
		max := uint32(1)<<uint(k) - 1
		for i, c := range codes {
			if c > max {
				panic(fmt.Sprintf("layout: code %d at row %d exceeds width %d", c, i, k))
			}
		}
	}
}

// CheckPredicate validates that a predicate's constants lie in the k-bit
// code domain; scans require this (the padded-byte comparison math assumes
// it). Layouts call it at the top of Scan.
func CheckPredicate(p Predicate, k int) {
	max := uint32(1)<<uint(k) - 1
	if k == 32 {
		max = ^uint32(0)
	}
	if p.C1 > max || (p.Op == Between && p.C2 > max) {
		panic(fmt.Sprintf("layout: predicate %v outside %d-bit code domain", p, k))
	}
}

// Reference is the naive scalar oracle: codes stored in a plain []uint32.
// It is deliberately unoptimised and is used to validate every other
// layout's Scan and Lookup in tests, and as the "standard data array"
// baseline in a few ablations.
type Reference struct {
	codes []uint32
	k     int
	addr  uint64
}

// NewReference builds the oracle layout.
func NewReference(codes []uint32, k int, arena *cache.Arena) *Reference {
	CheckArgs(codes, k)
	c := make([]uint32, len(codes))
	copy(c, codes)
	var addr uint64
	if arena != nil {
		addr = arena.Alloc(uint64(4 * len(codes)))
	}
	return &Reference{codes: c, k: k, addr: addr}
}

// Name implements Layout.
func (r *Reference) Name() string { return "Reference" }

// Width implements Layout.
func (r *Reference) Width() int { return r.k }

// Len implements Layout.
func (r *Reference) Len() int { return len(r.codes) }

// SizeBytes implements Layout.
func (r *Reference) SizeBytes() uint64 { return uint64(4 * len(r.codes)) }

// Scan implements Layout by evaluating the predicate one code at a time.
func (r *Reference) Scan(e *simd.Engine, p Predicate, out *bitvec.Vector) {
	out.Reset()
	var w uint32
	for i, v := range r.codes {
		if e != nil {
			e.ScalarLoad(r.addr+uint64(4*i), 4)
			e.Scalar(2)
		}
		if p.Eval(v) {
			w |= 1 << uint(i&31)
		}
		if i&31 == 31 {
			out.Append32(w)
			w = 0
		}
	}
	if len(r.codes)&31 != 0 {
		out.Append32(w)
	}
}

// Lookup implements Layout.
func (r *Reference) Lookup(e *simd.Engine, i int) uint32 {
	if e != nil {
		e.ScalarLoad(r.addr+uint64(4*i), 4)
	}
	return r.codes[i]
}
