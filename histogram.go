package byteslice

import "byteslice/internal/layout"

// Per-column equi-width histograms, collected once at build time, drive
// the filter reordering of multi-predicate queries: evaluating the most
// selective predicate first maximises the segments the pipelined scans of
// §3.1.2 can skip in every later column (a conjunction skips a segment
// when no row in it is still live; a disjunction when every row already
// matched — so disjunctions want the *least* selective predicate first).

// histBuckets is the histogram resolution.
const histBuckets = 64

// histogram counts codes per equi-width bucket over [0, maxCode].
type histogram struct {
	counts      [histBuckets]int
	total       int
	bucketWidth uint64 // codes per bucket
}

func buildHistogram(codes []uint32, maxCode uint32) *histogram {
	h := newHistogram(maxCode, len(codes))
	for _, c := range codes {
		h.counts[uint64(c)/h.bucketWidth]++
	}
	return h
}

// newHistogram returns an empty histogram over [0, maxCode] for a column
// of total rows.
func newHistogram(maxCode uint32, total int) *histogram {
	return &histogram{total: total, bucketWidth: (uint64(maxCode) + histBuckets) / histBuckets}
}

// cumulative estimates the number of codes strictly below c.
func (h *histogram) cumulative(c uint32) float64 {
	b := uint64(c) / h.bucketWidth
	var below float64
	for i := uint64(0); i < b; i++ {
		below += float64(h.counts[i])
	}
	// Fractional share of the containing bucket.
	frac := float64(uint64(c)-b*h.bucketWidth) / float64(h.bucketWidth)
	below += frac * float64(h.counts[b])
	return below
}

// estimate returns the predicate's approximate selectivity in [0, 1].
func (h *histogram) estimate(p layout.Predicate) float64 {
	if h == nil || h.total == 0 {
		return 0.5
	}
	n := float64(h.total)
	switch p.Op {
	case Lt:
		return h.cumulative(p.C1) / n
	case Le:
		return clamp01((h.cumulative(p.C1) + h.pointMass(p.C1)) / n)
	case Gt:
		return clamp01(1 - (h.cumulative(p.C1)+h.pointMass(p.C1))/n)
	case Ge:
		return clamp01(1 - h.cumulative(p.C1)/n)
	case Eq:
		return clamp01(h.pointMass(p.C1) / n)
	case Ne:
		return clamp01(1 - h.pointMass(p.C1)/n)
	case Between:
		lo := h.cumulative(p.C1)
		hi := h.cumulative(p.C2) + h.pointMass(p.C2)
		return clamp01((hi - lo) / n)
	}
	return 0.5
}

// pointMass estimates the number of rows holding exactly code c, assuming
// uniformity within its bucket.
func (h *histogram) pointMass(c uint32) float64 {
	b := uint64(c) / h.bucketWidth
	return float64(h.counts[b]) / float64(h.bucketWidth)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// EstimateSelectivity returns the histogram-based selectivity estimate of
// the filter on this table, in [0, 1] (0.5 when nothing is known).
func (t *Table) EstimateSelectivity(f Filter) (float64, error) {
	c, err := t.Column(f.Col)
	if err != nil {
		return 0, err
	}
	pred, trivial, err := c.predicate(f)
	if err != nil {
		return 0, err
	}
	if trivial != nil {
		if *trivial {
			return 1, nil
		}
		return 0, nil
	}
	return c.hist.estimate(pred), nil
}

// FilterOrder controls whether multi-predicate queries are reordered by
// estimated selectivity.
type FilterOrder int

const (
	// OrderBySelectivity (the default) evaluates the predicate expected to
	// settle the most rows first — ascending selectivity for conjunctions,
	// descending for disjunctions.
	OrderBySelectivity FilterOrder = iota
	// OrderAsWritten evaluates predicates in the order given.
	OrderAsWritten
)

// WithFilterOrder overrides the reordering policy.
func WithFilterOrder(o FilterOrder) QueryOption {
	return func(c *queryConfig) { c.order = o }
}
