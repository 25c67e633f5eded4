// Command tpch runs the TPC-H selection–projection suite (and optionally
// the skewed and real-data variants) over all four storage layouts,
// printing per-query speed-ups over Bit-Packed and the scan/lookup time
// breakdown — the §4.2 evaluation of the paper.
//
// Usage:
//
//	tpch -rows 200000
//	tpch -skew 1
//	tpch -real
package main

import (
	"flag"
	"fmt"
	"os"

	"byteslice"
	"byteslice/internal/layouts"
	"byteslice/internal/realdata"
	"byteslice/internal/tpch"
)

func main() {
	var (
		rows     = flag.Int("rows", 200_000, "wide-table rows")
		skew     = flag.Float64("skew", 0, "Zipf skew factor for the skewed variant (0 = standard)")
		seed     = flag.Uint64("seed", 0xB17E, "generation seed")
		real     = flag.Bool("real", false, "run the ADULT/BASEBALL real-data suites instead")
		validate = flag.Bool("validate", true, "cross-check match counts against the scalar oracle")
	)
	flag.Parse()

	if *real {
		for _, d := range []*realdata.Dataset{realdata.Adult(*seed), realdata.Baseball(*seed)} {
			fmt.Printf("== %s (%d rows) ==\n", d.Name, len(d.Specs[0].Codes))
			runSuite(d.Queries, d.Specs, d.Raw, *validate)
		}
		return
	}

	d := tpch.Generate(tpch.Config{Rows: *rows, Skew: *skew, Seed: *seed})
	fmt.Printf("== TPC-H wide table: %d rows, skew %.1f ==\n", *rows, *skew)
	runSuite(tpch.Queries(d), d.Specs, d.Raw, *validate)
}

// runSuite builds the table in every layout, runs the queries on the
// modelled path and prints the per-tuple costs; with validate, every match
// count is checked against the scalar oracle over raw.
func runSuite(queries []tpch.Query, specs []tpch.ColumnSpec, raw map[string][]uint32, validate bool) {
	fail := func(msg string, err error) {
		fmt.Fprintln(os.Stderr, msg, err)
		os.Exit(1)
	}
	n := len(specs[0].Codes)
	results := map[string]map[string]tpch.Result{}
	for _, name := range layouts.Names {
		tb, err := tpch.BuildTable(specs, byteslice.WithFormat(byteslice.Format(name)))
		if err != nil {
			fail("tpch:", err)
		}
		results[name] = map[string]tpch.Result{}
		for _, q := range queries {
			res, err := tpch.Run(tb, q, tpch.StrategyFor(name), byteslice.NewProfile())
			if err != nil {
				fail("tpch:", err)
			}
			if validate {
				if err := tpch.Validate(raw, q, res.Matches); err != nil {
					fail("tpch: validation failed:", err)
				}
			}
			results[name][q.Name] = res
		}
	}

	fmt.Printf("\n%-6s  %-10s  %12s  %12s  %12s  %9s  %8s\n",
		"query", "layout", "scan c/t", "lookup c/t", "total c/t", "speedup", "matches")
	for _, q := range queries {
		base := results["BitPacked"][q.Name].TotalCycles()
		for _, name := range layouts.Names {
			r := results[name][q.Name]
			fmt.Printf("%-6s  %-10s  %12.4f  %12.4f  %12.4f  %8.2fx  %8d\n",
				q.Name, name,
				r.ScanCycles/float64(n), r.LookupCycles/float64(n),
				r.TotalCycles()/float64(n), base/r.TotalCycles(), r.Matches)
		}
	}
	fmt.Println()
}
