// Package layouttest is the shared conformance battery every storage
// layout must pass: lookup round-trips, scan equivalence against the
// scalar oracle for every operator over systematic and randomised inputs,
// and property-based tests over random widths, constants and data
// distributions.
package layouttest

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"byteslice/internal/bitvec"
	"byteslice/internal/cache"
	"byteslice/internal/layout"
	"byteslice/internal/perf"
	"byteslice/internal/simd"
)

// Widths is the default set of code widths exercised: byte boundaries,
// their neighbours, and the extremes.
var Widths = []int{1, 2, 3, 7, 8, 9, 11, 12, 15, 16, 17, 20, 23, 24, 25, 26, 31, 32}

// Engine returns a fresh engine with cache modelling disabled (tests care
// about values, not stall cycles).
func Engine() *simd.Engine {
	return simd.New(perf.NewProfileNoCache())
}

// RandomCodes generates n codes of width k from the given distribution
// ("uniform", "low" — skewed towards small values, "edges" — mostly 0 and
// max, "runs" — long runs of equal values).
func RandomCodes(rng *rand.Rand, n, k int, dist string) []uint32 {
	max := uint64(1) << uint(k)
	out := make([]uint32, n)
	switch dist {
	case "low":
		for i := range out {
			v := rng.Uint64N(max)
			out[i] = uint32(v * v / max)
		}
	case "edges":
		for i := range out {
			switch rng.IntN(4) {
			case 0:
				out[i] = 0
			case 1:
				out[i] = uint32(max - 1)
			default:
				out[i] = uint32(rng.Uint64N(max))
			}
		}
	case "runs":
		var cur uint32
		for i := range out {
			if rng.IntN(17) == 0 || i == 0 {
				cur = uint32(rng.Uint64N(max))
			}
			out[i] = cur
		}
	default:
		for i := range out {
			out[i] = uint32(rng.Uint64N(max))
		}
	}
	return out
}

// interestingConstants returns comparison constants that hit boundaries:
// 0, 1, max, max-1, mid, and a few random points.
func interestingConstants(rng *rand.Rand, k int) []uint32 {
	max := uint32(uint64(1)<<uint(k) - 1)
	cs := []uint32{0, max, max / 2}
	if max > 0 {
		cs = append(cs, 1, max-1)
	}
	for i := 0; i < 3; i++ {
		cs = append(cs, uint32(rng.Uint64N(uint64(max)+1)))
	}
	return cs
}

// CheckScan verifies one scan against the oracle and reports differences.
func CheckScan(t *testing.T, l layout.Layout, codes []uint32, p layout.Predicate) {
	t.Helper()
	e := Engine()
	got := bitvec.New(l.Len())
	l.Scan(e, p, got)
	want := bitvec.New(len(codes))
	ref := layout.NewReference(codes, l.Width(), nil)
	ref.Scan(nil, p, want)
	if !got.Equal(want) {
		for i, v := range codes {
			if got.Get(i) != want.Get(i) {
				t.Fatalf("%s k=%d scan %v: row %d code %d: got %v want %v",
					l.Name(), l.Width(), p, i, v, got.Get(i), want.Get(i))
			}
		}
		t.Fatalf("%s k=%d scan %v: vectors differ beyond row range", l.Name(), l.Width(), p)
	}
}

// Run executes the full conformance battery for a layout builder.
func Run(t *testing.T, build layout.Builder) {
	t.Helper()
	rng := rand.New(rand.NewPCG(0xB17E, 0x51)) //nolint:gosec // deterministic tests

	t.Run("LookupRoundTrip", func(t *testing.T) {
		for _, k := range Widths {
			for _, dist := range []string{"uniform", "edges"} {
				codes := RandomCodes(rng, 1000, k, dist)
				l := build(codes, k, cache.NewArena(64))
				e := Engine()
				for i, want := range codes {
					if got := l.Lookup(e, i); got != want {
						t.Fatalf("k=%d dist=%s lookup(%d) = %d, want %d", k, dist, i, got, want)
					}
				}
			}
		}
	})

	t.Run("ScanAllOps", func(t *testing.T) {
		for _, k := range Widths {
			for _, dist := range []string{"uniform", "low", "edges", "runs"} {
				codes := RandomCodes(rng, 1337, k, dist) // non-multiple of every segment size
				l := build(codes, k, nil)
				for _, op := range layout.Ops {
					for _, c := range interestingConstants(rng, k) {
						p := layout.Predicate{Op: op, C1: c, C2: c}
						if op == layout.Between {
							hi := c + uint32(rng.Uint64N(8))
							if max := uint32(uint64(1)<<uint(k) - 1); hi > max {
								hi = max
							}
							p.C2 = hi
						}
						CheckScan(t, l, codes, p)
					}
				}
			}
		}
	})

	t.Run("TinyAndEmpty", func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 31, 32, 33, 255, 256, 257} {
			codes := RandomCodes(rng, n, 13, "uniform")
			l := build(codes, 13, nil)
			if l.Len() != n {
				t.Fatalf("Len() = %d, want %d", l.Len(), n)
			}
			CheckScan(t, l, codes, layout.Predicate{Op: layout.Lt, C1: 4096})
			CheckScan(t, l, codes, layout.Predicate{Op: layout.Ne, C1: 0})
		}
	})

	t.Run("QuickProperty", func(t *testing.T) {
		cfg := &quick.Config{MaxCount: 60}
		prop := func(seed uint64, kRaw uint8, opRaw uint8, c1, c2 uint32, nRaw uint16) bool {
			k := int(kRaw)%32 + 1
			n := int(nRaw)%2000 + 1
			op := layout.Ops[int(opRaw)%len(layout.Ops)]
			max := uint32(uint64(1)<<uint(k) - 1)
			p := layout.Predicate{Op: op, C1: c1 & max, C2: c2 & max}
			if op == layout.Between && p.C1 > p.C2 {
				p.C1, p.C2 = p.C2, p.C1
			}
			r := rand.New(rand.NewPCG(seed, seed^0x9E3779B9)) //nolint:gosec
			codes := RandomCodes(r, n, k, "uniform")
			l := build(codes, k, nil)

			e := Engine()
			got := bitvec.New(n)
			l.Scan(e, p, got)
			for i, v := range codes {
				if got.Get(i) != p.Eval(v) {
					return false
				}
			}
			// Lookup a random sample.
			for j := 0; j < 32; j++ {
				i := r.IntN(n)
				if l.Lookup(e, i) != codes[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Fatal(err)
		}
	})
}
