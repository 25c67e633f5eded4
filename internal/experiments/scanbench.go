package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/datagen"
	"byteslice/internal/kernel"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
	"byteslice/internal/perf"
	"byteslice/internal/simd"
)

// ScanBenchEntry is one wall-clock measurement: a full-column scan (or a
// scan-shaped composite — zoned scan, filter-then-sum, multi-predicate
// pipeline) on one execution path at one width and worker count.
type ScanBenchEntry struct {
	Width      int     `json:"width"`
	Path       string  `json:"path"` // "native" or "engine"
	Workers    int     `json:"workers"`
	NsPerScan  float64 `json:"ns_per_scan"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// Data names the code distribution ("uniform" when empty; "sorted",
	// "clustered" for the zone-map benchmarks; "uniform60" for the
	// operator axis's tie-heavy arm; "sorted_sparse" for the compressed
	// lookup of one row per 8 blocks of sorted codes).
	Data string `json:"data,omitempty"`
	// Mode distinguishes the composite benchmarks: "" is a plain scan
	// (the payload's Op); "op_le"/"op_ge"/"op_eq"/"op_between" the plain
	// scan under another operator; "scan_zoned" a zone-map-pruned scan;
	// "agg_two_pass" the filter→sum shape; "sum", "min" and "count" the
	// aggregate kernels alone over a filter's result (their data arms,
	// "sel1", "sel10" and "sel50", name its uniform selectivity in
	// percent); "multi_column_first" the column-first multi-predicate
	// conjunction, "multi_clustered" the same pipeline behind a sorted,
	// zone-mapped leading column; "served_scan", "served_scan_zoned" and
	// "served_sum" the serial Lt scan, zoned scan and masked sum of the
	// "", "scan_zoned" and "sum" rows, under the Exec a served query runs
	// its kernels with (servedExec): what a served query pays per kernel.
	Mode string `json:"mode,omitempty"`
	// Preds is the conjunct count of the multi-predicate benchmarks.
	Preds int `json:"preds,omitempty"`
	// Compression distinguishes the compressed-versus-raw benchmarks:
	// "raw" scans the plain ByteSlice layout, "compressed" the fused
	// FOR/delta decode kernel over the same codes ("" elsewhere).
	Compression string `json:"compression,omitempty"`
	// Layout names the storage layout of the lookup benchmarks
	// ("ByteSlice", "HBP", "ByteSliceC"; "" elsewhere — the scan
	// benchmarks predate the axis and imply ByteSlice).
	Layout string `json:"layout,omitempty"`
}

// ScanBenchResult is the payload bsbench -json writes: rows-per-second for
// the native kernels (serial and per worker count) against the modelled
// engine path, per code width, stamped with the machine that measured it.
type ScanBenchResult struct {
	Rows        int              `json:"rows"`
	Op          string           `json:"op"`
	Selectivity float64          `json:"selectivity"`
	Env         *Env             `json:"env,omitempty"`
	Results     []ScanBenchEntry `json:"results"`
}

// Env stamps a payload with what produced it. Rows from another
// architecture or another scan path measure different code; benchdiff
// reports them advisory.
type Env struct {
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	AVX512F    bool   `json:"avx512f"`
	// KernelPath names the scan loops that ran: "avx2" or "swar".
	KernelPath string `json:"kernel_path"`
}

// CurrentEnv returns this process's stamp.
func CurrentEnv() *Env {
	cpu := kernel.CPU()
	return &Env{
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpu.Model,
		AVX2:       cpu.AVX2,
		AVX512F:    cpu.AVX512F,
		KernelPath: kernel.Path(),
	}
}

// ScanBench wall-clock-benchmarks the two execution paths. Unlike the rest
// of this package, which reports the cost model's cycle counts, these are
// real elapsed-time measurements of the native kernels (AVX2 or SWAR, as
// the stamp says) versus the emulated engine interpreting the same layout.
func ScanBench(cfg Config, workerCounts []int) *ScanBenchResult {
	const sel = 0.10
	res := &ScanBenchResult{Rows: cfg.N, Op: "lt", Selectivity: sel, Env: CurrentEnv()}
	ctx, cancel := servedContext()
	defer cancel()
	for _, k := range cfg.Widths {
		codes := datagen.Uniform(datagen.NewRand(cfg.Seed), cfg.N, k)
		b := core.New(codes, k, nil)
		p := constFor(codes, k, layout.Lt, sel)
		out := bitvec.New(cfg.N)

		e := simd.New(perf.NewProfileNoCache())
		ns := measureScan(func() { b.Scan(e, p, out) })
		res.Results = append(res.Results, entry(k, "engine", 1, ns, cfg.N))

		ns = measureScan(func() { check2(kernel.Scan(kernel.Exec{}, b, p, nil, false, out)) })
		res.Results = append(res.Results, entry(k, "native", 1, ns, cfg.N))

		ns = measureScan(func() { check2(kernel.Scan(servedExec(ctx, "scan"), b, p, nil, false, out)) })
		served := entry(k, "native", 1, ns, cfg.N)
		served.Mode = "served_scan"
		res.Results = append(res.Results, served)

		// The operator axis: the other range operators, native and serial,
		// at the same selectivity (Eq measures the code path; see
		// constFor), on the same codes and on the tie-heavy arm.
		res.Results = append(res.Results, opAxis(codes, b, "", sel, out)...)
		lead := leadingCodes(datagen.NewRand(cfg.Seed), cfg.N, k)
		res.Results = append(res.Results, opAxis(lead, core.New(lead, k, nil), leadingData, sel, out)...)

		for _, w := range workerCounts {
			if w < 2 {
				continue
			}
			w := w
			ns = measureScan(func() { check2(kernel.Scan(kernel.Exec{Workers: w}, b, p, nil, false, out)) })
			res.Results = append(res.Results, entry(k, "native", w, ns, cfg.N))
		}
	}
	return res
}

// servedExec is the Exec a served query runs a kernel under: serial, with
// a cancellable context (servedContext), which the kernel checks once per
// batch, and a fresh stage of the given kind, whose batches each take a
// clock read.
func servedExec(ctx context.Context, kind string) kernel.Exec {
	return kernel.Exec{Ctx: ctx, Stage: obs.NewQuery().NewStage(kind, kind)}
}

// servedContext returns a live context whose Err locks a mutex, like the
// deadline context of a served request, for the served rows.
//
//bsvet:rootctx the served rows model a request's context; nothing above a benchmark cancels it
func servedContext() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// opAxis measures the operator-axis rows over one column of codes: each
// of opModes, native and serial, at selectivity sel.
func opAxis(codes []uint32, b *core.ByteSlice, data string, sel float64, out *bitvec.Vector) []ScanBenchEntry {
	var rows []ScanBenchEntry
	for _, o := range opModes {
		q := constFor(codes, b.Width(), o.op, sel)
		ns := measureScan(func() { check2(kernel.Scan(kernel.Exec{}, b, q, nil, false, out)) })
		e := entry(b.Width(), "native", 1, ns, len(codes))
		e.Data, e.Mode = data, o.mode
		rows = append(rows, e)
	}
	return rows
}

// leadingData names the operator axis's tie-heavy arm: codes uniform over
// the first 60% of the k-bit domain (leadingCodes).
const leadingData = "uniform60"

// leadingCodes returns n codes uniform over the first 60% of the k-bit
// domain: the repository benchmark's price column (cents 0..10^7 at
// k = 24), whose first bytes span 0..152 only. A constant inside the data
// then ties the first byte of about one segment in five, against one in
// eight for codes over the whole domain, so more segments load a deeper
// byte slice.
func leadingCodes(rng *rand.Rand, n, k int) []uint32 {
	span := max(uint64(1)<<uint(k)*3/5, 1)
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(rng.Uint64N(span))
	}
	return codes
}

// opModes names the operator-axis rows of ScanBench.
var opModes = []struct {
	op   layout.Op
	mode string
}{
	{layout.Le, "op_le"}, {layout.Ge, "op_ge"}, {layout.Eq, "op_eq"}, {layout.Between, "op_between"},
}

func entry(k int, path string, workers int, ns float64, n int) ScanBenchEntry {
	return ScanBenchEntry{
		Width:      k,
		Path:       path,
		Workers:    workers,
		NsPerScan:  ns,
		RowsPerSec: float64(n) / (ns / 1e9),
	}
}

// ZonedScanBench measures zone-map pruning on the acceptance scenario: a
// 12-bit column at 1% selectivity, sorted and clustered distributions,
// plain scan versus zoned scan at each worker count (plus serial). The
// plain arm scans a copy of the same codes built without zone maps, so
// the delta is purely the pruning. The serial zoned scan also runs under a
// served query's Exec (servedExec).
func ZonedScanBench(cfg Config, workerCounts []int) []ScanBenchEntry {
	const (
		k   = 12
		sel = 0.01
	)
	rng := datagen.NewRand(cfg.Seed)
	sets := []struct {
		name  string
		codes []uint32
	}{
		{"sorted", datagen.Sorted(rng, cfg.N, k)},
		{"clustered", datagen.Clustered(rng, cfg.N, k, 4096)},
	}
	ctx, cancel := servedContext()
	defer cancel()
	var out []ScanBenchEntry
	for _, s := range sets {
		plain := core.New(s.codes, k, nil)
		zoned := core.New(s.codes, k, nil)
		zoned.BuildZoneMaps()
		p := constFor(s.codes, k, layout.Lt, sel)
		res := bitvec.New(cfg.N)
		ns := measureScan(func() { check2(kernel.Scan(servedExec(ctx, "scan_zoned"), zoned, p, nil, false, res)) })
		e := entry(k, "native", 1, ns, cfg.N)
		e.Data, e.Mode = s.name, "served_scan_zoned"
		out = append(out, e)
		for _, w := range append([]int{1}, workerCounts...) {
			x := kernel.Exec{Workers: w}
			ns := measureScan(func() { check2(kernel.Scan(x, plain, p, nil, false, res)) })
			e := entry(k, "native", w, ns, cfg.N)
			e.Data, e.Mode = s.name, "scan"
			out = append(out, e)

			ns = measureScan(func() { check2(kernel.Scan(x, zoned, p, nil, false, res)) })
			e = entry(k, "native", w, ns, cfg.N)
			e.Data, e.Mode = s.name, "scan_zoned"
			out = append(out, e)
		}
	}
	return out
}

// AggBench measures the filter→sum shape every filtered aggregate takes
// (scan to a bit vector, then a masked sum re-reading it): a 12-bit
// filter column at 10% selectivity and a uniform 16-bit value column. Two
// filter shapes run: uniform without zone maps, and a sorted zone-mapped
// date-range shape whose scan prunes segments, as the facade's does. The
// aggregate kernels are then timed alone, native and serial (aggAxis).
func AggBench(cfg Config, workerCounts []int) []ScanBenchEntry {
	const (
		kf  = 12
		kv  = 16
		sel = 0.10
	)
	rng := datagen.NewRand(cfg.Seed)
	v := core.New(datagen.Uniform(rng, cfg.N, kv), kv, nil)
	shapes := []struct {
		name  string
		codes []uint32
		zoned bool
	}{
		{"uniform", datagen.Uniform(rng, cfg.N, kf), false},
		{"sorted", datagen.Sorted(rng, cfg.N, kf), true},
	}
	mask := bitvec.New(cfg.N)
	var out []ScanBenchEntry
	for _, s := range shapes {
		f := core.New(s.codes, kf, nil)
		if s.zoned {
			f.BuildZoneMaps()
		}
		p := constFor(s.codes, kf, layout.Lt, sel)
		for _, w := range append([]int{1}, workerCounts...) {
			x := kernel.Exec{Workers: w}
			ns := measureScan(func() {
				check2(kernel.Scan(x, f, p, nil, false, mask))
				_, _, err := kernel.Sum(x, v, mask)
				check(err)
			})
			e := entry(kv, "native", w, ns, cfg.N)
			e.Data, e.Mode = s.name, "agg_two_pass"
			out = append(out, e)
		}
	}
	return append(out, aggAxis(cfg, v, shapes[0].codes, kf)...)
}

// aggAxis times the aggregate kernels alone, native and serial, over the
// result of a filter on the uniform kf-bit codes at 1, 10 and 50%
// selectivity: Sum over the 16-bit value column v, Min over a
// price-shaped 24-bit column (codes uniform over the first 60% of the
// domain, leadingCodes, so the domain bound that ends a Min early almost
// never occurs), and, at 10%, the Sum again under a served query's Exec
// (servedExec) and Count.
func aggAxis(cfg Config, v *core.ByteSlice, codes []uint32, kf int) []ScanBenchEntry {
	const kp = 24
	f := core.New(codes, kf, nil)
	price := core.New(leadingCodes(datagen.NewRand(cfg.Seed+1), cfg.N, kp), kp, nil)
	mask := bitvec.New(cfg.N)
	ctx, cancel := servedContext()
	defer cancel()
	var out []ScanBenchEntry
	for _, pct := range []int{1, 10, 50} {
		check2(kernel.Scan(kernel.Exec{}, f, constFor(codes, kf, layout.Lt, float64(pct)/100), nil, false, mask))
		data := fmt.Sprintf("sel%d", pct)
		ns := measureScan(func() {
			_, _, err := kernel.Sum(kernel.Exec{}, v, mask)
			check(err)
		})
		e := entry(v.Width(), "native", 1, ns, cfg.N)
		e.Data, e.Mode = data, "sum"
		out = append(out, e)
		ns = measureScan(func() {
			_, _, err := kernel.Extreme(kernel.Exec{}, price, mask, true)
			check(err)
		})
		e = entry(kp, "native", 1, ns, cfg.N)
		e.Data, e.Mode = data, "min"
		out = append(out, e)
		if pct == 10 {
			ns = measureScan(func() {
				_, _, err := kernel.Sum(servedExec(ctx, "sum"), v, mask)
				check(err)
			})
			e = entry(v.Width(), "native", 1, ns, cfg.N)
			e.Data, e.Mode = data, "served_sum"
			out = append(out, e)
			ns = measureScan(func() { kernel.Count(mask) })
			e = entry(kf, "native", 1, ns, cfg.N)
			e.Data, e.Mode = data, "count"
			out = append(out, e)
		}
	}
	return out
}

// CompressedScanBench measures the fused compressed-scan kernel against
// the raw SWAR scan on the same codes: a memory-bound 16-bit column (two
// byte slices per row) at 10% selectivity, sorted and clustered
// distributions, per worker count. The raw arm scans core.ByteSlice, the
// compressed arm decodes FOR/delta blocks inside the scan loop with exact
// block-bounds pruning — the delta is the bytes the compressed layout
// never moves.
func CompressedScanBench(cfg Config, workerCounts []int) []ScanBenchEntry {
	const (
		k   = 16
		sel = 0.10
	)
	rng := datagen.NewRand(cfg.Seed)
	sets := []struct {
		name  string
		codes []uint32
	}{
		{"sorted", datagen.Sorted(rng, cfg.N, k)},
		{"clustered", datagen.Clustered(rng, cfg.N, k, 4096)},
	}
	var out []ScanBenchEntry
	for _, s := range sets {
		raw := core.New(s.codes, k, nil)
		cc := compress.New(s.codes, k, nil)
		p := constFor(s.codes, k, layout.Lt, sel)
		res := bitvec.New(cfg.N)
		for _, w := range append([]int{1}, workerCounts...) {
			x := kernel.Exec{Workers: w}
			ns := measureScan(func() { check2(kernel.Scan(x, raw, p, nil, false, res)) })
			e := entry(k, "native", w, ns, cfg.N)
			e.Data, e.Mode, e.Compression = s.name, "scan", "raw"
			out = append(out, e)

			ns = measureScan(func() { check2(kernel.ScanCompressed(x, cc, p, res)) })
			e = entry(k, "native", w, ns, cfg.N)
			e.Data, e.Mode, e.Compression = s.name, "scan", "compressed"
			out = append(out, e)
		}
	}
	return out
}

// MultiPredBench measures an npreds-way conjunction (12-bit uniform
// columns, 30% selectivity each) through the native column-first
// pipeline. A second arm, mode "multi_clustered", runs the pipeline
// behind a sorted, zone-mapped leading column at 10%: the zone map
// settles its scan and leaves 90% of the later scans' gate words dead,
// the shape of a date-range conjunction.
func MultiPredBench(cfg Config, npreds int, workerCounts []int) []ScanBenchEntry {
	const (
		k   = 12
		sel = 0.30
	)
	rng := datagen.NewRand(cfg.Seed)
	cols := make([]*core.ByteSlice, npreds)
	preds := make([]layout.Predicate, npreds)
	for i := range cols {
		codes := datagen.Uniform(rng, cfg.N, k)
		cols[i] = core.New(codes, k, nil)
		preds[i] = constFor(codes, k, layout.Lt, sel)
	}
	sorted := datagen.Sorted(rng, cfg.N, k)
	lead := core.New(sorted, k, nil)
	lead.BuildZoneMaps()
	clustered := append([]*core.ByteSlice{lead}, cols[1:]...)
	clusteredPreds := append([]layout.Predicate{constFor(sorted, k, layout.Lt, 0.10)}, preds[1:]...)
	acc, cur := bitvec.New(cfg.N), bitvec.New(cfg.N)
	columnFirst := func(x kernel.Exec, cols []*core.ByteSlice, preds []layout.Predicate) {
		check2(kernel.Scan(x, cols[0], preds[0], nil, false, acc))
		for i := 1; i < len(cols); i++ {
			check2(kernel.Scan(x, cols[i], preds[i], acc, false, cur))
			acc, cur = cur, acc
		}
	}
	var out []ScanBenchEntry
	for _, w := range append([]int{1}, workerCounts...) {
		x := kernel.Exec{Workers: w}
		ns := measureScan(func() { columnFirst(x, cols, preds) })
		e := entry(k, "native", w, ns, cfg.N)
		e.Mode, e.Preds = "multi_column_first", npreds
		out = append(out, e)

		ns = measureScan(func() { columnFirst(x, clustered, clusteredPreds) })
		e = entry(k, "native", w, ns, cfg.N)
		e.Data, e.Mode, e.Preds = "sorted", "multi_clustered", npreds
		out = append(out, e)
	}
	return out
}

// check re-raises a kernel failure. The benchmarks run uncancellable
// kernels over well-formed columns, so the only possible error is a
// recovered worker panic — a bug, not a measurement.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// check2 is check for kernels that also return a count.
func check2(_ int, err error) { check(err) }

// measureScan times f with benchmark-style adaptive repetition: doubling
// rounds until one round runs at least 50ms, then the minimum ns per call
// over three such rounds. The minimum, not the mean, is what characterises
// the kernel — scheduling noise and interrupts only ever add time. The
// first call warms the cache and is discarded.
func measureScan(f func()) float64 {
	f()
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		if el := time.Since(start); el >= 50*time.Millisecond || reps >= 1<<16 {
			best := float64(el.Nanoseconds()) / float64(reps)
			for round := 0; round < 2; round++ {
				start = time.Now()
				for i := 0; i < reps; i++ {
					f()
				}
				if ns := float64(time.Since(start).Nanoseconds()) / float64(reps); ns < best {
					best = ns
				}
			}
			return best
		}
		reps *= 2
	}
}
