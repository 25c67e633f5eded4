package kernel

import (
	"fmt"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/datagen"
	"byteslice/internal/layout"
	"byteslice/internal/layout/layouttest"
)

// TestZonedKernelsOnShapedData runs the zoned plain and pipelined scans
// over the three distributions the planner is built for — sorted,
// clustered and uniform — and checks both bit-identical results against
// the engine path and that pruning actually happens where the data shape
// promises it.
func TestZonedKernelsOnShapedData(t *testing.T) {
	const n = 1<<14 + 9 // partial final segment
	rng := datagen.NewRand(42)
	shapes := []struct {
		name      string
		codes     []uint32
		wantPrune bool // most segments should resolve from the zone map
	}{
		{"sorted", datagen.Sorted(rng, n, 12), true},
		{"clustered", datagen.Clustered(rng, n, 12, 2048), true},
		{"uniform", datagen.Uniform(rng, n, 12), false},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			b := core.New(shape.codes, 12, nil)
			b.BuildZoneMaps()
			c := datagen.SelectivityConstant(shape.codes, 0.01)
			preds := []layout.Predicate{
				{Op: layout.Lt, C1: c},
				{Op: layout.Between, C1: c, C2: c + 40},
				{Op: layout.Eq, C1: c},
			}
			for pi, p := range preds {
				t.Run(fmt.Sprint(pi), func(t *testing.T) {
					want := bitvec.New(n)
					b.Scan(layouttest.Engine(), p, want)

					for _, workers := range []int{1, 4} {
						got := bitvec.New(n)
						got.Fill()
						x := Exec{Workers: workers}
						pruned := mustScan(t, x, b, p, nil, false, got)
						if !got.Equal(want) {
							t.Fatalf("workers=%d: zoned scan differs", workers)
						}
						segs := b.Segments()
						if shape.wantPrune && pruned < segs/2 {
							t.Fatalf("workers=%d: pruned %d of %d segments, want most", workers, pruned, segs)
						}
					}

					// Zoned pipelined against the engine pipelined, gated by
					// the Lt predicate's own result.
					for _, negate := range []bool{false, true} {
						wantP := bitvec.New(n)
						b.ScanPipelined(layouttest.Engine(), p, want, negate, wantP)
						gotP := bitvec.New(n)
						gotP.Fill()
						mustScan(t, Exec{Workers: 4}, b, p, want, negate, gotP)
						if !gotP.Equal(wantP) {
							t.Fatalf("negate=%v: zoned pipelined scan differs", negate)
						}
					}
				})
			}
		})
	}
}
