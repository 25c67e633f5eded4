package byteslice

import (
	"fmt"

	"byteslice/internal/bitvec"
)

// NULL support. The paper notes (§2) that NULL values and three-valued
// logic are handled with the techniques of O'Neil and Quass [33]: a
// presence bitmap per nullable column, combined with the scan's result bit
// vector. Comparisons with NULL are never true (SQL semantics), so a
// filter on a nullable column clears the null rows from its result before
// the complex-predicate combination.

// WithNulls marks the rows at the given indices as NULL. The column stores
// an arbitrary in-domain code for those rows (callers typically use the
// domain minimum); scans and lookups treat them as absent.
func WithNulls(rows []int) ColumnOption {
	return func(c *columnConfig) { c.nullRows = rows }
}

// Nullable reports whether the column has any NULL rows.
func (c *Column) Nullable() bool { return c.nulls != nil }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.nulls != nil && c.nulls.Get(i) }

// NullCount returns the number of NULL rows.
func (c *Column) NullCount() int {
	if c.nulls == nil {
		return 0
	}
	return c.nulls.Count()
}

// buildNulls materialises the option's null set for a column of n rows.
func buildNulls(rows []int, n int) (*bitvec.Vector, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	nv := bitvec.New(n)
	for _, r := range rows {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("byteslice: null row %d out of range [0,%d)", r, n)
		}
		nv.Set(r, true)
	}
	return nv, nil
}

// nullRows lists the column's NULL rows in ascending order (nil when it
// has none): the input newColumn rebuilds the NULL vector from.
func (c *Column) nullRows() []int {
	if c.nulls == nil {
		return nil
	}
	pos := c.nulls.Positions(nil)
	rows := make([]int, len(pos))
	for i, r := range pos {
		rows[i] = int(r)
	}
	return rows
}

// applyNulls clears a filter result's bits for rows that are NULL in the
// filtered column (comparison with NULL is not true).
func applyNulls(res *bitvec.Vector, c *Column) {
	if c.nulls != nil {
		res.AndNot(c.nulls)
	}
}

// dropNulls removes the rows that are NULL in c from rows, in place, and
// returns the shortened slice.
func (c *Column) dropNulls(rows []int32) []int32 {
	if c.nulls == nil {
		return rows
	}
	out := rows[:0]
	for _, r := range rows {
		if !c.nulls.Get(int(r)) {
			out = append(out, r)
		}
	}
	return out
}
