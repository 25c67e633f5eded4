// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; see DESIGN.md §4 for the index), plus raw
// wall-clock throughput benches of the emulated scan and lookup kernels.
//
// The per-figure benchmarks report the headline modelled metric of their
// experiment via b.ReportMetric — e.g. BenchmarkFig9Scan reports ByteSlice
// cycles/code at k=12 — so `go test -bench .` doubles as a compact
// reproduction summary. Full tables come from cmd/bsbench.
package byteslice_test

import (
	"strconv"
	"strings"
	"testing"

	"byteslice"
	"byteslice/internal/bitvec"
	"byteslice/internal/cache"
	"byteslice/internal/core"
	"byteslice/internal/datagen"
	"byteslice/internal/experiments"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
	"byteslice/internal/layouts"
	"byteslice/internal/perf"
	"byteslice/internal/simd"
)

// benchCfg is the scale the per-figure benchmarks run at: large enough for
// stable ratios, small enough that the full bench suite finishes quickly.
func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.N = 1 << 18
	cfg.Widths = []int{8, 12, 16, 24, 32}
	cfg.TPCHRows = 50_000
	return cfg
}

// runExperiment executes one experiment per iteration and extracts a
// headline metric from its reports with pick.
func runExperiment(b *testing.B, id string, cfg experiments.Config,
	pick func([]*experiments.Report) (string, float64)) {
	b.Helper()
	var name string
	var val float64
	for i := 0; i < b.N; i++ {
		reports, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		name, val = pick(reports)
	}
	b.ReportMetric(val, name)
}

// cellValue parses a numeric report cell (strips x/% suffixes).
func cellValue(b *testing.B, r *experiments.Report, row, col int) float64 {
	b.Helper()
	s := r.Rows[row][col]
	for len(s) > 0 && (s[len(s)-1] == 'x' || s[len(s)-1] == '%') {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %d,%d = %q: %v", row, col, r.Rows[row][col], err)
	}
	return v
}

func colOf(b *testing.B, r *experiments.Report, name string) int {
	b.Helper()
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	b.Fatalf("no column %q in %v", name, r.Columns)
	return -1
}

func rowOf(b *testing.B, r *experiments.Report, key string) int {
	b.Helper()
	for i, row := range r.Rows {
		if row[0] == key {
			return i
		}
	}
	b.Fatalf("no row %q in %s", key, r.ID)
	return -1
}

func BenchmarkTable1EarlyStop(b *testing.B) {
	runExperiment(b, "table1", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		// Expected bits/code for ByteSlice (paper: 8.94). The cell reads
		// like "8.94 bits/code".
		last := rs[0].Rows[len(rs[0].Rows)-1]
		fields := strings.Fields(last[2])
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			b.Fatal(err)
		}
		return "BSbits/code", v
	})
}

func BenchmarkFig8Lookup(b *testing.B) {
	cfg := benchCfg()
	cfg.Widths = []int{16, 32}
	cfg.Lookups = 20_000
	runExperiment(b, "fig8", cfg, func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		row := rowOf(b, r, "32")
		return "VBP/BS-lookup-ratio", cellValue(b, r, row, colOf(b, r, "VBP")) /
			cellValue(b, r, row, colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig9Scan(b *testing.B) {
	runExperiment(b, "fig9", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0] // cycles, OP <
		return "BScycles/code@k12", cellValue(b, r, rowOf(b, r, "12"), colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig10EarlyStop(b *testing.B) {
	runExperiment(b, "fig10", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		row := rowOf(b, r, "32")
		return "ES-speedup@k32", cellValue(b, r, row, colOf(b, r, "ByteSlice w/o ES")) /
			cellValue(b, r, row, colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig11Skew(b *testing.B) {
	runExperiment(b, "fig11", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0] // zipf sweep
		return "BScycles/code@zipf2", cellValue(b, r, len(r.Rows)-1, colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig12Conjunction(b *testing.B) {
	runExperiment(b, "fig12", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		return "CFcycles/tuple@0.1%", cellValue(b, r, len(r.Rows)-1, colOf(b, r, "BS(Column-First)"))
	})
}

func BenchmarkFig13Threads(b *testing.B) {
	cfg := benchCfg()
	cfg.Widths = []int{8, 16, 24}
	runExperiment(b, "fig13", cfg, func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		return "BScodes/cycle@8t", cellValue(b, r, len(r.Rows)-1, colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig14TPCH(b *testing.B) {
	runExperiment(b, "fig14", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		return "BSspeedup@Q6", cellValue(b, r, rowOf(b, r, "Q6"), colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig15BankWidth(b *testing.B) {
	runExperiment(b, "fig15", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[1] // scan report
		row := rowOf(b, r, "24")
		return "16bit/8bit-scan-ratio", cellValue(b, r, row, colOf(b, r, "16-Bit-Slice")) /
			cellValue(b, r, row, colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig16OtherOps(b *testing.B) {
	runExperiment(b, "fig16", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0] // cycles, OP >
		return "BScycles/code@k12", cellValue(b, r, rowOf(b, r, "12"), colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig17Sel90(b *testing.B) {
	runExperiment(b, "fig17", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		return "BScycles/code@k12", cellValue(b, r, rowOf(b, r, "12"), colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig18Sel1(b *testing.B) {
	runExperiment(b, "fig18", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		return "BScycles/code@k12", cellValue(b, r, rowOf(b, r, "12"), colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig19Disjunction(b *testing.B) {
	runExperiment(b, "fig19", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		return "CFcycles/tuple@10%", cellValue(b, r, len(r.Rows)-1, colOf(b, r, "BS(Column-First)"))
	})
}

func BenchmarkFig20Breakdown(b *testing.B) {
	runExperiment(b, "fig20", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		// Q1's ByteSlice lookup share (the lookup-dominant query).
		for i, row := range r.Rows {
			if row[0] == "Q1" && row[1] == "ByteSlice" {
				return "Q1-BS-lookupcyc/tuple", cellValue(b, r, i, 3)
			}
		}
		b.Fatal("Q1/ByteSlice row missing")
		return "", 0
	})
}

func BenchmarkFig21SkewedTPCH(b *testing.B) {
	runExperiment(b, "fig21", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0] // zipf = 1
		return "BSspeedup@Q6-zipf1", cellValue(b, r, rowOf(b, r, "Q6"), colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkFig22RealData(b *testing.B) {
	runExperiment(b, "fig22", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0] // ADULT speed-ups
		return "BSspeedup@A1", cellValue(b, r, rowOf(b, r, "A1"), colOf(b, r, "ByteSlice"))
	})
}

func BenchmarkHeadline(b *testing.B) {
	runExperiment(b, "headline", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		return "BScycles/code@k12", cellValue(b, r, rowOf(b, r, "12"), 1)
	})
}

func BenchmarkAblationTailOption(b *testing.B) {
	runExperiment(b, "ablation-tail", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		row := rowOf(b, r, "20")
		return "Opt2/Opt1-lookup-ratio", cellValue(b, r, row, 4) / cellValue(b, r, row, 3)
	})
}

func BenchmarkAblationTau(b *testing.B) {
	runExperiment(b, "ablation-tau", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		return "VBPcycles/code@tau4", cellValue(b, r, rowOf(b, r, "4"), 1)
	})
}

func BenchmarkAblationInverseMovemask(b *testing.B) {
	runExperiment(b, "ablation-inverse-movemask", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		r := rs[0]
		last := len(r.Rows) - 1
		return "expand/condense-ratio", cellValue(b, r, last, 2) / cellValue(b, r, last, 1)
	})
}

// --- Raw wall-clock throughput of the emulated kernels ---

// BenchmarkScanWall measures real Go throughput of each layout's scan over
// 1M 12-bit codes (the emulated engine is itself SWAR-optimised).
func BenchmarkScanWall(b *testing.B) {
	const n, k = 1 << 20, 12
	codes := datagen.Uniform(datagen.NewRand(1), n, k)
	p := layout.Predicate{Op: layout.Lt, C1: datagen.SelectivityConstant(codes, 0.1)}
	for _, name := range layouts.Names {
		l := layouts.Builders[name](codes, k, cache.NewArena(64))
		b.Run(name, func(b *testing.B) {
			prof := perf.NewProfileNoCache()
			e := simd.New(prof)
			out := bitvec.New(n)
			b.SetBytes(int64(n * k / 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Scan(e, p, out)
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds()/1e6, "Mcodes/s")
		})
	}
}

// BenchmarkLookupWall measures real Go throughput of random lookups.
func BenchmarkLookupWall(b *testing.B) {
	const n, k = 1 << 20, 20
	codes := datagen.Uniform(datagen.NewRand(2), n, k)
	rng := datagen.NewRand(3)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = rng.IntN(n)
	}
	for _, name := range layouts.Names {
		l := layouts.Builders[name](codes, k, cache.NewArena(64))
		b.Run(name, func(b *testing.B) {
			e := simd.New(perf.NewProfileNoCache())
			b.ResetTimer()
			var sink uint32
			for i := 0; i < b.N; i++ {
				sink ^= l.Lookup(e, idx[i&4095])
			}
			_ = sink
		})
	}
}

// BenchmarkPublicAPIFilter measures the end-to-end public API path.
func BenchmarkPublicAPIFilter(b *testing.B) {
	const n = 1 << 20
	rng := datagen.NewRand(4)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.IntN(100000))
	}
	col, err := byteslice.NewIntColumn("v", vals, 0, 99999)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := byteslice.NewTable(col)
	if err != nil {
		b.Fatal(err)
	}
	filters := []byteslice.Filter{byteslice.IntFilter("v", byteslice.Between, 1000, 2000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Filter(filters); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

func BenchmarkAVX512Projection(b *testing.B) {
	runExperiment(b, "avx512", benchCfg(), func(rs []*experiments.Report) (string, float64) {
		gap := rs[1]
		return "VBP/BS-instr@S512", cellValue(b, gap, 1, 1)
	})
}

// BenchmarkAggregateSum measures the masked SIMD sum over a filtered
// ByteSlice column (modelled cycles/row via the profile, wall ns/op).
func BenchmarkAggregateSum(b *testing.B) {
	const n, k = 1 << 20, 20
	codes := datagen.Uniform(datagen.NewRand(7), n, k)
	col := layouts.Builders["ByteSlice"](codes, k, cache.NewArena(64))
	bs := col.(interface {
		Sum(*simd.Engine, *bitvec.Vector) (uint64, int)
		Scan(*simd.Engine, layout.Predicate, *bitvec.Vector)
	})
	prof := perf.NewProfile()
	e := simd.New(prof)
	mask := bitvec.New(n)
	bs.Scan(e, layout.Predicate{Op: layout.Gt, C1: 1 << 19}, mask)
	prof.Reset()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		s, _ := bs.Sum(e, mask)
		sink ^= s
	}
	_ = sink
	b.ReportMetric(prof.Cycles()/float64(n)/float64(b.N), "cycles/row")
}

// --- Native SWAR kernels vs the modelled engine ---
//
// The Engine/Native benchmark pairs below share data and predicate so
// their ratio is the real speed-up of the unprofiled fast path (the
// acceptance bar is >=10x at k=12, single-threaded).

// nativeBenchColumn builds the shared 1M-row column the native-vs-engine
// scan benchmarks run over, with a ~10%-selectivity Lt predicate.
func nativeBenchColumn(k int) (*core.ByteSlice, layout.Predicate) {
	const n = 1 << 20
	codes := datagen.Uniform(datagen.NewRand(9), n, k)
	col := core.New(codes, k, nil)
	return col, layout.Predicate{Op: layout.Lt, C1: datagen.SelectivityConstant(codes, 0.1)}
}

// BenchmarkEngineScan is the modelled-engine (profiled-path) scan per
// width — the baseline the native kernels are measured against.
func BenchmarkEngineScan(b *testing.B) {
	for _, k := range []int{8, 12, 16, 24, 32} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			col, p := nativeBenchColumn(k)
			e := simd.New(perf.NewProfileNoCache())
			out := bitvec.New(col.Len())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col.Scan(e, p, out)
			}
			b.ReportMetric(float64(col.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// BenchmarkNativeScan is the unprofiled SWAR fast-path scan per width.
func BenchmarkNativeScan(b *testing.B) {
	for _, k := range []int{8, 12, 16, 24, 32} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			col, p := nativeBenchColumn(k)
			out := bitvec.New(col.Len())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kernel.Scan(kernel.Exec{}, col, p, nil, false, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(col.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}

// BenchmarkNativeScanParallel sweeps the worker pool at k=12 to show the
// scaling curve of the native path.
func BenchmarkNativeScanParallel(b *testing.B) {
	col, p := nativeBenchColumn(12)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(workers), func(b *testing.B) {
			out := bitvec.New(col.Len())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kernel.Scan(kernel.Exec{Workers: workers}, col, p, nil, false, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(col.Len()*b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
		})
	}
}
