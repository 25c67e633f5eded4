package experiments

import (
	"fmt"

	"byteslice"
	"byteslice/internal/layouts"
	"byteslice/internal/realdata"
	"byteslice/internal/tpch"
)

func init() {
	register("fig14", fig14)
	register("fig20", fig20)
	register("fig21", fig21)
	register("fig22", fig22)
}

// runSuite executes queries on the table under every layout, each with
// the paper's strategy for that layout (tpch.StrategyFor) and a fresh
// profile, and returns results[layout][query].
func runSuite(tables map[string]*byteslice.Table, queries []tpch.Query) map[string]map[string]tpch.Result {
	out := make(map[string]map[string]tpch.Result, len(tables))
	for name, tb := range tables {
		out[name] = make(map[string]tpch.Result, len(queries))
		for _, q := range queries {
			res, err := tpch.Run(tb, q, tpch.StrategyFor(name), byteslice.NewProfile())
			if err != nil {
				panic(fmt.Sprintf("%s/%s: %v", name, q.Name, err))
			}
			out[name][q.Name] = res
		}
	}
	return out
}

// buildAll formats the columns into one table per layout of the paper's
// comparison.
func buildAll(specs []tpch.ColumnSpec) map[string]*byteslice.Table {
	tables := make(map[string]*byteslice.Table, len(layouts.Names))
	for _, name := range layouts.Names {
		tb, err := tpch.BuildTable(specs, byteslice.WithFormat(byteslice.Format(name)))
		if err != nil {
			panic(err)
		}
		tables[name] = tb
	}
	return tables
}

// speedupReport renders per-query speedups over the Bit-Packed layout —
// the presentation of Figures 14, 21 and 22a.
func speedupReport(id, title string, queries []tpch.Query, results map[string]map[string]tpch.Result) *Report {
	r := &Report{ID: id, Title: title,
		Columns: append([]string{"query"}, layouts.Names...)}
	for _, q := range queries {
		base := results["BitPacked"][q.Name].TotalCycles()
		row := []string{q.Name}
		for _, name := range layouts.Names {
			c := results[name][q.Name].TotalCycles()
			if c == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f2(base/c)+"x")
		}
		r.AddRow(row...)
	}
	return r
}

// breakdownReport renders the scan/lookup time split per query and layout
// (cycles per tuple) — the presentation of Figures 20 and 22b.
func breakdownReport(id, title string, n int, queries []tpch.Query, results map[string]map[string]tpch.Result) *Report {
	r := &Report{ID: id, Title: title,
		Columns: []string{"query", "layout", "scan cyc/tuple", "lookup cyc/tuple", "total", "matches"}}
	for _, q := range queries {
		for _, name := range layouts.Names {
			res := results[name][q.Name]
			r.AddRow(q.Name, name,
				ff(res.ScanCycles/float64(n)),
				ff(res.LookupCycles/float64(n)),
				ff(res.TotalCycles()/float64(n)),
				fi(uint64(res.Matches)))
		}
	}
	return r
}

func tpchTables(cfg Config, skew float64) (map[string]*byteslice.Table, []tpch.Query) {
	d := tpch.Generate(tpch.Config{Rows: cfg.TPCHRows, Seed: cfg.Seed, Skew: skew})
	return buildAll(d.Specs), tpch.Queries(d)
}

func fig14(cfg Config) []*Report {
	tables, queries := tpchTables(cfg, 0)
	results := runSuite(tables, queries)
	return []*Report{speedupReport("Fig14", "TPC-H speed-up over Bit-Packed", queries, results)}
}

func fig20(cfg Config) []*Report {
	tables, queries := tpchTables(cfg, 0)
	results := runSuite(tables, queries)
	return []*Report{breakdownReport("Fig20", "TPC-H execution time breakdown", cfg.TPCHRows, queries, results)}
}

func fig21(cfg Config) []*Report {
	var out []*Report
	for _, z := range []float64{1, 2} {
		tables, queries := tpchTables(cfg, z)
		results := runSuite(tables, queries)
		out = append(out, speedupReport("Fig21",
			fmt.Sprintf("TPC-H speed-up over Bit-Packed, zipf = %.0f", z), queries, results))
	}
	return out
}

func fig22(cfg Config) []*Report {
	var out []*Report
	for _, d := range []*realdata.Dataset{realdata.Adult(cfg.Seed), realdata.Baseball(cfg.Seed)} {
		results := runSuite(buildAll(d.Specs), d.Queries)
		n := len(d.Specs[0].Codes)
		out = append(out,
			speedupReport("Fig22", d.Name+" speed-up over Bit-Packed", d.Queries, results),
			breakdownReport("Fig22", d.Name+" execution time breakdown", n, d.Queries, results))
	}
	return out
}
