package experiments

import (
	"math/rand/v2"
	"sort"

	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/datagen"
	"byteslice/internal/kernel"
	"byteslice/internal/layout/hbp"
)

// LookupBench wall-clock-benchmarks the lookup-side kernels across
// storage layouts, cfg.Lookups random rows out of a cfg.N-row column per
// measurement. Two shapes run:
//
//   - mode "lookup": the point-lookup/join-probe gather, rows in random
//     order — the access pattern HBP's one-bank-load lookup is built for.
//     The ByteSliceC arm gets the same rows ascending, which is the only
//     shape the facade ever hands it: about cfg.Lookups/cfg.N·512 rows
//     fall in each 512-code block, so a dense block decodes once for all
//     of its rows. A second ByteSliceC row (data "sorted_sparse") gathers
//     one ascending row per 8 blocks of sorted, delta-coded codes, so
//     every block reads its one row by a select, without a decode.
//   - mode "order_by": the ORDER-BY materialisation — an ascending row
//     list gathered and radix-sorted by code (kernel.SortCodes), as the
//     native Table.OrderBy runs it.
//
// Rows/sec counts looked-up rows, so the Layout axis is directly
// comparable per width.
func LookupBench(cfg Config) []ScanBenchEntry {
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xA5A5)) //nolint:gosec // benchmark sampling
	var out []ScanBenchEntry
	for _, k := range cfg.Widths {
		codes := datagen.Uniform(datagen.NewRand(cfg.Seed), cfg.N, k)
		random := make([]int32, cfg.Lookups)
		for i := range random {
			random[i] = int32(rng.IntN(cfg.N))
		}
		asc := append([]int32(nil), random...)
		sort.Slice(asc, func(i, j int) bool { return asc[i] < asc[j] })
		got := make([]uint32, cfg.Lookups)

		bs := core.New(codes, k, nil)
		h := hbp.New(codes, k, nil)
		cc := compress.New(codes, k, nil)
		arms := []struct {
			layout       string
			gatherRandom func()
			gatherAsc    func()
		}{
			{"ByteSlice",
				func() { check(kernel.LookupMany(kernel.Exec{}, bs, random, got)) },
				func() { check(kernel.LookupMany(kernel.Exec{}, bs, asc, got)) }},
			{"HBP",
				func() { check(kernel.LookupManyHBP(kernel.Exec{}, h, random, got)) },
				func() { check(kernel.LookupManyHBP(kernel.Exec{}, h, asc, got)) }},
			{"ByteSliceC",
				func() { check(kernel.LookupManyCompressed(kernel.Exec{}, cc, asc, got)) },
				func() { check(kernel.LookupManyCompressed(kernel.Exec{}, cc, asc, got)) }},
		}
		for _, arm := range arms {
			ns := measureScan(arm.gatherRandom)
			en := entry(k, "native", 1, ns, cfg.Lookups)
			en.Mode, en.Layout = "lookup", arm.layout
			out = append(out, en)

			gather := arm.gatherAsc
			ns = measureScan(func() {
				gather()
				_, err := kernel.SortCodes(kernel.Exec{}, got, k, asc)
				check(err)
			})
			en = entry(k, "native", 1, ns, cfg.Lookups)
			en.Mode, en.Layout = "order_by", arm.layout
			out = append(out, en)
		}

		sorted := compress.New(datagen.Sorted(datagen.NewRand(cfg.Seed), cfg.N, k), k, nil)
		var sparse []int32
		for b := 0; b < sorted.Blocks(); b += 8 {
			sparse = append(sparse, int32(b*compress.BlockCodes+rng.IntN(sorted.BlockRows(b))))
		}
		sparseGot := make([]uint32, len(sparse))
		ns := measureScan(func() { check(kernel.LookupManyCompressed(kernel.Exec{}, sorted, sparse, sparseGot)) })
		en := entry(k, "native", 1, ns, len(sparse))
		en.Mode, en.Layout, en.Data = "lookup", "ByteSliceC", "sorted_sparse"
		out = append(out, en)
	}
	return out
}
