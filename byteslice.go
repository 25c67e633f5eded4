// Package byteslice is a main-memory column-store storage engine built
// around the ByteSlice layout of Feng, Lo, Kao and Xu (SIGMOD 2015):
// a byte-level columnar format whose scans exploit 32-way SIMD parallelism
// with byte-granular early stopping, and whose lookups stay as cheap as
// horizontally packed formats.
//
// The package offers:
//
//   - typed columns (integers, fixed-precision decimals, dictionary-encoded
//     strings) that are order-preservingly encoded into fixed-width codes
//     and formatted in one of four storage layouts: ByteSlice (the paper's
//     contribution, the default), and the Bit-Packed, VBP and HBP baselines;
//   - predicate scans (<, ≤, >, ≥, =, ≠, BETWEEN) returning result bit
//     vectors, with conjunctions and disjunctions evaluated with the
//     paper's pipelined strategies;
//   - record lookups decoding matching rows back to native values;
//   - an optional execution profile recording the modelled instruction,
//     branch and memory behaviour of every operation on the emulated
//     SIMD engine (see DESIGN.md for the cost model).
//
// # Quick example
//
//	temp, _ := byteslice.NewIntColumn("temp_c", temps, -40, 60)
//	city, _ := byteslice.NewStringColumn("city", cities)
//	tbl, _ := byteslice.NewTable(temp, city)
//	res, _ := tbl.Filter([]byteslice.Filter{
//		byteslice.IntFilter("temp_c", byteslice.Gt, 30),
//		byteslice.StringFilter("city", byteslice.Eq, "Melbourne"),
//	})
//	rows := res.Rows()
package byteslice

import (
	"fmt"

	"byteslice/internal/cache"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
	"byteslice/internal/layouts"
	"byteslice/internal/perf"
	"byteslice/internal/plan"
	"byteslice/internal/simd"
)

// Op is a comparison operator for filters.
type Op = layout.Op

// Comparison operators. Between is inclusive on both ends.
const (
	Lt      = layout.Lt
	Le      = layout.Le
	Gt      = layout.Gt
	Ge      = layout.Ge
	Eq      = layout.Eq
	Ne      = layout.Ne
	Between = layout.Between
)

// Format names a storage layout.
type Format string

// The four storage layouts of the paper's evaluation, plus the compressed
// ByteSlice variant (frame-of-reference/delta blocks with scan-fused
// decode; see WithCompression).
const (
	FormatByteSlice  Format = "ByteSlice"
	FormatBitPacked  Format = "BitPacked"
	FormatVBP        Format = "VBP"
	FormatHBP        Format = "HBP"
	FormatByteSliceC Format = compress.Name
)

// Formats lists all supported formats.
func Formats() []Format {
	out := make([]Format, 0, len(layouts.Names))
	for _, n := range layouts.Names {
		out = append(out, Format(n))
	}
	return out
}

func builderFor(f Format) (layout.Builder, error) {
	if f == "" {
		f = FormatByteSlice
	}
	b, ok := layouts.Builders[string(f)]
	if !ok {
		return nil, fmt.Errorf("byteslice: unknown format %q", f)
	}
	return b, nil
}

// Profile exposes the modelled execution metrics of operations run with it:
// instructions, branch mispredictions, cache behaviour, and the derived
// cycle count of the emulated Haswell-class core.
type Profile struct {
	p *perf.Profile
}

// NewProfile returns a profile with cache modelling enabled.
func NewProfile() *Profile { return &Profile{p: perf.NewProfile()} }

// Cycles is the modelled cycle count accumulated so far.
func (p *Profile) Cycles() float64 { return p.p.Cycles() }

// Instructions is the modelled instruction count accumulated so far.
func (p *Profile) Instructions() uint64 { return p.p.Instructions() }

// L2Misses is the number of line accesses the modelled L2 cache has not
// served so far (the paper's "L2 cache misses").
func (p *Profile) L2Misses() uint64 {
	st := p.p.Cache.Stats()
	return st.MissesBelow(cache.L2)
}

// ChargeScalar records n scalar instructions a caller executes beside the
// package's operators, such as a comparison per looked-up row. A nil
// profile discards the charge.
func (p *Profile) ChargeScalar(n int) {
	if p != nil {
		simd.New(p.p).Scalar(n)
	}
}

// Reset clears the accumulated counters (cache contents stay warm).
func (p *Profile) Reset() { p.p.Reset() }

// String summarises the profile.
func (p *Profile) String() string { return p.p.String() }

func (p *Profile) engine() *simd.Engine {
	if p == nil {
		return simd.New(perf.NewProfileNoCache())
	}
	return simd.New(p.p)
}

// Strategy selects how multi-column filters are evaluated (§3.1.2 of the
// paper); it is the planner's strategy type.
type Strategy = plan.Strategy

// Evaluation strategies.
const (
	// StrategyAuto lets the cost-based planner choose between column-first
	// and baseline on the native path, and evaluates column-first on the
	// modelled (WithProfile) path, the paper's recommendation.
	StrategyAuto = plan.Auto
	// StrategyBaseline evaluates every predicate independently and
	// combines result bit vectors.
	StrategyBaseline = plan.Baseline
	// StrategyColumnFirst pipelines each predicate's condensed result into
	// the next column's scan (Algorithm 2).
	StrategyColumnFirst = plan.ColumnFirst
	// StrategyPredicateFirst evaluates all predicates per 32-row segment,
	// pipelining the uncondensed bank masks (§3.1.2). It is modelled only:
	// under WithProfile it runs on NULL-free ByteSlice columns (baseline
	// elsewhere), and a native query pinned to it runs baseline, which
	// Explain reports as "baseline (pinned predicate-first, falls back)".
	StrategyPredicateFirst = plan.PredicateFirst
)

// arena is the process-wide simulated address allocator: every column built
// by this package lives in its own region, as it would in a real process.
var arena = cache.NewArena(64)

// byteSliceOf returns the concrete ByteSlice layout of a column, if any.
func byteSliceOf(l layout.Layout) (*core.ByteSlice, bool) {
	b, ok := l.(*core.ByteSlice)
	return b, ok
}

// compressedOf returns the concrete compressed layout of a column, if any.
func compressedOf(l layout.Layout) (*compress.Column, bool) {
	c, ok := l.(*compress.Column)
	return c, ok
}

// hbpOf returns the concrete HBP layout of a column, if any.
func hbpOf(l layout.Layout) (*hbp.HBP, bool) {
	h, ok := l.(*hbp.HBP)
	return h, ok
}
