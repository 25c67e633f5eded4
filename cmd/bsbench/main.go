// Command bsbench regenerates the tables and figures of the ByteSlice
// paper's evaluation (§4 and appendices) on the emulated SIMD engine and
// cost model.
//
// Usage:
//
//	bsbench -list
//	bsbench -exp fig9
//	bsbench -exp all -n 1048576 -rows 200000
//
// Each experiment prints the same rows or series the paper plots; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-versus-reproduction results.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"strings"
	"time"

	"byteslice"
	"byteslice/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (e.g. fig9, table1, headline), or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		n        = flag.Int("n", 0, "micro-benchmark column length (default 1Mi)")
		lookups  = flag.Int("lookups", 0, "random lookups for the lookup experiments (default 100k)")
		rows     = flag.Int("rows", 0, "wide-table rows for the query experiments (default 200k)")
		seed     = flag.Uint64("seed", 0, "data generation seed")
		quick    = flag.Bool("quick", false, "use the fast smoke-test scale")
		widths   = flag.String("widths", "", "comma-separated code widths to sweep")
		format   = flag.String("format", "table", "output format: table or csv")
		jsonOut  = flag.String("json", "", "wall-clock scan benchmark: write native-vs-engine rows/sec per width and worker count to this file (e.g. BENCH_scan.json)")
		preds    = flag.Int("preds", 0, "with -json: also benchmark an N-way column-first conjunction, over uniform columns and behind a sorted zone-mapped lead")
		zonemaps = flag.Bool("zonemaps", false, "with -json: also benchmark zone-map-pruned scans on sorted and clustered data")
		agg      = flag.Bool("agg", false, "with -json: also benchmark filter→sum (a scan to a bit vector, then a masked sum)")
		compr    = flag.Bool("compression", false, "with -json: also benchmark the fused compressed scan vs the raw SWAR scan")
		lookup   = flag.Bool("lookup", false, "with -json: also benchmark batch lookups and ORDER-BY materialisation across the ByteSlice, HBP and compressed layouts")
		snapshot = flag.String("snapshot", "", "benchmark crash-atomic SaveFile/LoadFile on a generated table written to this path")
		ingestAx = flag.Bool("ingest", false, "with -json: also benchmark the write path — WAL-durable append throughput and scan latency while a delta is live")
		stats    = flag.Bool("stats", false, "after the run, print the process-wide query-observability snapshot as JSON")
		obsServe = flag.String("obs-serve", "", "after the run, serve the observability registry over HTTP on this address (e.g. :8080; /stats and expvar's /debug/vars)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" && *jsonOut == "" && *snapshot == "" && *obsServe == "" {
		fmt.Fprintln(os.Stderr, "bsbench: -exp, -json, -snapshot or -obs-serve is required (try -list)")
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *lookups > 0 {
		cfg.Lookups = *lookups
	}
	if *rows > 0 {
		cfg.TPCHRows = *rows
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *widths != "" {
		cfg.Widths = cfg.Widths[:0]
		for _, w := range strings.Split(*widths, ",") {
			var k int
			if _, err := fmt.Sscanf(strings.TrimSpace(w), "%d", &k); err != nil || k < 1 || k > 32 {
				fmt.Fprintf(os.Stderr, "bsbench: bad width %q\n", w)
				os.Exit(2)
			}
			cfg.Widths = append(cfg.Widths, k)
		}
	}

	if *snapshot != "" {
		if err := snapshotBench(*snapshot, cfg.N, cfg.Seed); err != nil {
			fmt.Fprintln(os.Stderr, "bsbench:", err)
			os.Exit(1)
		}
		if *exp == "" && *jsonOut == "" {
			finish(*stats, *obsServe)
			return
		}
	}

	if *jsonOut != "" {
		// The wall-clock sweep defaults to the acceptance scenario: a
		// 1M-row column over a few representative widths, native serial
		// and worker-pool scans against the engine path.
		if *widths == "" {
			cfg.Widths = []int{8, 12, 16, 24, 32}
		}
		start := time.Now()
		workerCounts := []int{2, 4, 8}
		res := experiments.ScanBench(cfg, workerCounts)
		if *zonemaps {
			res.Results = append(res.Results, experiments.ZonedScanBench(cfg, workerCounts)...)
		}
		if *agg {
			res.Results = append(res.Results, experiments.AggBench(cfg, workerCounts)...)
		}
		if *compr {
			res.Results = append(res.Results, experiments.CompressedScanBench(cfg, workerCounts)...)
		}
		if *lookup {
			res.Results = append(res.Results, experiments.LookupBench(cfg)...)
		}
		if *preds > 1 {
			res.Results = append(res.Results, experiments.MultiPredBench(cfg, *preds, workerCounts)...)
		}
		if *ingestAx {
			entries, err := ingestBench(cfg.N, cfg.Seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bsbench:", err)
				os.Exit(1)
			}
			res.Results = append(res.Results, entries...)
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsbench:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d measurements in %v)\n", *jsonOut, len(res.Results), time.Since(start).Round(time.Millisecond))
		if *exp == "" {
			finish(*stats, *obsServe)
			return
		}
	}

	if *exp == "" { // -stats / -obs-serve with no other work
		finish(*stats, *obsServe)
		return
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		reports, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsbench:", err)
			os.Exit(1)
		}
		for _, r := range reports {
			switch *format {
			case "csv":
				fmt.Print(r.CSV())
				fmt.Println()
			default:
				fmt.Println(r)
			}
		}
		if *format != "csv" {
			fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	finish(*stats, *obsServe)
}

// finish handles the observability flags after the requested work ran:
// -stats prints the process-wide registry snapshot, -obs-serve blocks
// serving it over HTTP (the library's ObsHandler on /stats, plus expvar's
// /debug/vars, which carries the same snapshot under the "byteslice" key).
func finish(stats bool, serve string) {
	if stats {
		buf, err := json.MarshalIndent(byteslice.StatsSnapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(buf))
	}
	if serve != "" {
		mux := http.NewServeMux()
		mux.Handle("/stats", byteslice.ObsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		fmt.Fprintf(os.Stderr, "bsbench: serving observability on %s (/stats, /debug/vars)\n", serve)
		if err := http.ListenAndServe(serve, mux); err != nil {
			fmt.Fprintln(os.Stderr, "bsbench:", err)
			os.Exit(1)
		}
	}
}

// snapshotBench builds an n-row mixed-kind table, saves it crash-atomically
// with SaveFile, loads it back with LoadFile (verifying the checksummed v3
// stream end to end) and reports both durations and the snapshot size.
func snapshotBench(path string, n int, seed uint64) error {
	if n == 0 {
		n = 1 << 20
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15)) //nolint:gosec
	ints := make([]int64, n)
	decs := make([]float64, n)
	strs := make([]string, n)
	words := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"}
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.IntN(100000))
		decs[i] = float64(rng.IntN(1000000)) / 100
		strs[i] = words[rng.IntN(len(words))]
	}
	ic, err := byteslice.NewIntColumn("quantity", ints, 0, 100000)
	if err != nil {
		return err
	}
	dc, err := byteslice.NewDecimalColumn("price", decs, 0, 10000, 2)
	if err != nil {
		return err
	}
	sc, err := byteslice.NewStringColumn("mode", strs)
	if err != nil {
		return err
	}
	tbl, err := byteslice.NewTable(ic, dc, sc)
	if err != nil {
		return err
	}

	start := time.Now()
	if err := tbl.SaveFile(path); err != nil {
		return err
	}
	saveDur := time.Since(start)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}

	start = time.Now()
	loaded, err := byteslice.LoadFile(path)
	if err != nil {
		return err
	}
	loadDur := time.Since(start)
	if loaded.Len() != tbl.Len() {
		return fmt.Errorf("snapshot round trip lost rows: %d vs %d", loaded.Len(), tbl.Len())
	}

	// Same query on both tables must agree — a semantic round-trip check
	// beyond the row count, and it populates the observability registry
	// that -stats/-obs-serve report.
	q := []byteslice.Filter{byteslice.IntFilter("quantity", byteslice.Lt, 50000)}
	before, err := tbl.Filter(q)
	if err != nil {
		return err
	}
	after, err := loaded.Filter(q)
	if err != nil {
		return err
	}
	if before.Count() != after.Count() {
		return fmt.Errorf("snapshot round trip changed query result: %d vs %d matches", before.Count(), after.Count())
	}

	mb := float64(info.Size()) / (1 << 20)
	fmt.Printf("snapshot %s: %d rows, %.1f MiB\n", path, n, mb)
	fmt.Printf("  save (write+fsync+rename): %8v  %7.1f MiB/s\n", saveDur.Round(time.Millisecond), mb/saveDur.Seconds())
	fmt.Printf("  load (read+CRC+rebuild):   %8v  %7.1f MiB/s\n", loadDur.Round(time.Millisecond), mb/loadDur.Seconds())
	return nil
}

// ingestBench benchmarks the write path end to end: WAL-durable appends
// into an IngestTable (synced and unsynced), scan latency while an
// unmerged delta is live, and the epoch-switch merge itself. Entries ride
// the ScanBench JSON shape (mode "ingest_*") so benchdiff tracks them
// across commits like every other axis.
func ingestBench(n int, seed uint64) ([]experiments.ScanBenchEntry, error) {
	if n == 0 || n > 1<<18 {
		n = 1 << 18 // append benchmarks are per-row; cap the loop
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xD1B54A32D192ED03)) //nolint:gosec
	baseRows := n / 4
	ints := make([]int64, baseRows)
	for i := range ints {
		ints[i] = int64(rng.IntN(100000))
	}
	ic, err := byteslice.NewIntColumn("quantity", ints, 0, 100000)
	if err != nil {
		return nil, err
	}
	width := ic.Width()

	bench := func(synced bool) (appendNs, scanNs, mergeNs float64, err error) {
		base, err := byteslice.NewTable(ic)
		if err != nil {
			return 0, 0, 0, err
		}
		dir, err := os.MkdirTemp("", "bsbench-ingest-*")
		if err != nil {
			return 0, 0, 0, err
		}
		defer os.RemoveAll(dir) //nolint:errcheck // temp dir
		it, err := byteslice.CreateIngest(dir, base,
			byteslice.WithAutoMerge(false),
			byteslice.WithSyncedAppends(synced),
			byteslice.WithDeltaBound(1<<30))
		if err != nil {
			return 0, 0, 0, err
		}
		defer it.Close() //nolint:errcheck // benchmark table

		rows := n
		if synced {
			rows = min(n, 4096) // per-append fsync: keep the loop sane
		}
		start := time.Now()
		for i := 0; i < rows; i++ {
			if err := it.Append(map[string]any{"quantity": int64(i % 100000)}); err != nil {
				return 0, 0, 0, err
			}
		}
		appendNs = float64(time.Since(start).Nanoseconds()) / float64(rows)

		q := []byteslice.Filter{byteslice.IntFilter("quantity", byteslice.Lt, 50000)}
		const scans = 16
		start = time.Now()
		for i := 0; i < scans; i++ {
			if _, err := it.Filter(q); err != nil {
				return 0, 0, 0, err
			}
		}
		scanNs = float64(time.Since(start).Nanoseconds()) / scans

		start = time.Now()
		if err := it.MergeNow(); err != nil {
			return 0, 0, 0, err
		}
		mergeNs = float64(time.Since(start).Nanoseconds())
		return appendNs, scanNs, mergeNs, nil
	}

	var out []experiments.ScanBenchEntry
	for _, c := range []struct {
		mode   string
		synced bool
	}{{"ingest_append", false}, {"ingest_append_synced", true}} {
		appendNs, scanNs, mergeNs, err := bench(c.synced)
		if err != nil {
			return nil, err
		}
		out = append(out, experiments.ScanBenchEntry{
			Width: width, Path: "native", Workers: 1, Mode: c.mode,
			NsPerScan: appendNs, RowsPerSec: 1e9 / appendNs,
		})
		if !c.synced {
			total := float64(baseRows + n)
			out = append(out,
				experiments.ScanBenchEntry{
					Width: width, Path: "native", Workers: 1, Mode: "ingest_scan_live",
					NsPerScan: scanNs, RowsPerSec: total * 1e9 / scanNs,
				},
				experiments.ScanBenchEntry{
					Width: width, Path: "native", Workers: 1, Mode: "ingest_merge",
					NsPerScan: mergeNs, RowsPerSec: total * 1e9 / mergeNs,
				})
		}
	}
	return out, nil
}
