package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
)

// Column-first evaluation scans every predicate after the second into a
// vector that still holds an earlier predicate's bits, so every native
// scan must write every word of its output. TestScansOverwriteOutput
// holds each scan shape to that: its output into a vector holding ones
// below n must equal its output into a zeroed vector, on every path, for
// column lengths ending at every kind of word edge.

// overwriteCodes returns the code sets that steer each kernel down its
// branches: uniform codes (plain scans, decoded compressed blocks),
// sorted codes (zone maps and block bounds decide segments both ways) and
// codes within a 200-wide span (compressed blocks on the one-byte
// uniform path).
func overwriteCodes(n, k int) map[string][]uint32 {
	rng := rand.New(rand.NewSource(int64(n*33 + k)))
	max := uint64(1)<<uint(k) - 1
	base := max/2 - 100
	uniform := make([]uint32, n)
	sorted := make([]uint32, n)
	narrow := make([]uint32, n)
	for i := range uniform {
		uniform[i] = uint32(rng.Int63n(int64(max) + 1))
		sorted[i] = uint32(uint64(i) * (max + 1) / uint64(n))
		narrow[i] = uint32(base + uint64(rng.Intn(200)))
	}
	return map[string][]uint32{"uniform": uniform, "sorted": sorted, "narrow": narrow}
}

// overwritePreds covers the strict loops and both fixed verdicts.
func overwritePreds(k int) []layout.Predicate {
	max := uint32(uint64(1)<<uint(k) - 1)
	mid := max / 2
	return []layout.Predicate{
		{Op: layout.Lt, C1: mid},
		{Op: layout.Eq, C1: mid - 3},
		{Op: layout.Ne, C1: mid - 3},
		{Op: layout.Between, C1: mid / 2, C2: mid + 7},
		{Op: layout.Ge, C1: 0},   // fixed: every row
		{Op: layout.Gt, C1: max}, // fixed: no row
	}
}

// overwriteGates returns pipelined gates with dead and live words: every
// other word live, and about one row in ten.
func overwriteGates(n int) map[string]*bitvec.Vector {
	rng := rand.New(rand.NewSource(int64(n)))
	alt, sparse := bitvec.New(n), bitvec.New(n)
	for i := 0; i < n; i++ {
		alt.Set(i, (i/64)%2 == 0)
		sparse.Set(i, rng.Intn(10) == 0)
	}
	return map[string]*bitvec.Vector{"alternating_words": alt, "sparse": sparse}
}

// checkOverwrites runs scan into a zeroed vector and into one holding
// ones below n, and fails the test where the two differ.
func checkOverwrites(t *testing.T, what string, n int, scan func(out *bitvec.Vector) error) {
	t.Helper()
	zeroed, filled := bitvec.New(n), bitvec.New(n)
	filled.Fill()
	if err := scan(zeroed); err != nil {
		t.Fatal(err)
	}
	if err := scan(filled); err != nil {
		t.Fatal(err)
	}
	if !filled.Equal(zeroed) {
		t.Fatalf("%s: output over a vector of ones differs from output over a zeroed one", what)
	}
}

func TestScansOverwriteOutput(t *testing.T) {
	window := zoneWindow * core.SegmentSize
	for _, tail := range []int{0, 1, 31, 32, 33, 63} {
		n := 2*window + tail // n % 64 == tail
		gates := overwriteGates(n)
		for _, k := range []int{8, 16, 24} {
			for set, codes := range overwriteCodes(n, k) {
				plain := core.New(codes, k, nil)
				zoned := core.New(codes, k, nil)
				zoned.BuildZoneMaps()
				cc := compress.New(codes, k, nil)
				h := hbp.New(codes, k, nil)
				for _, p := range overwritePreds(k) {
					for _, avx2 := range kernelPaths() {
						for _, workers := range []int{1, 3} {
							x := Exec{Workers: workers}
							run := func(shape string, scan func(out *bitvec.Vector) error) {
								what := fmt.Sprintf("%s n%%64=%d k=%d %s %v workers=%d %s", pathName(avx2), tail, k, set, p, workers, shape)
								withAVX2(avx2, func() { checkOverwrites(t, what, n, scan) })
							}
							for _, b := range []*core.ByteSlice{plain, zoned} {
								name := "plain"
								if b.HasZoneMaps() {
									name = "zoned"
								}
								run(name, func(out *bitvec.Vector) error {
									_, err := Scan(x, b, p, nil, false, out)
									return err
								})
								for gate, prev := range gates {
									for _, negate := range []bool{false, true} {
										shape := name + " gated " + gate + " conjunctive"
										if negate {
											shape = name + " gated " + gate + " disjunctive"
										}
										run(shape, func(out *bitvec.Vector) error {
											_, err := Scan(x, b, p, prev, negate, out)
											return err
										})
									}
								}
							}
							run("compressed", func(out *bitvec.Vector) error {
								_, err := ScanCompressed(x, cc, p, out)
								return err
							})
							run("hbp", func(out *bitvec.Vector) error { return ScanHBP(x, h, p, out) })
						}
					}
				}
			}
		}
	}
}
