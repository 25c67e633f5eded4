// Package realdata reproduces the paper's real-dataset evaluation
// (Appendix H, Figure 22) on synthetic equivalents of the two datasets:
//
//   - ADULT [3]: the UCI 1994 census extract — 32,561 rows of demographic
//     attributes with small categorical domains and a few skewed numeric
//     columns (capital gain/loss are ~zero for most people).
//   - BASEBALL [29]: the Lahman batting statistics — ~100K season rows of
//     counting stats whose distributions are heavily right-skewed.
//
// The originals are data files we cannot ship; the generators below match
// the published shapes that the experiment actually depends on — row
// counts, per-column cardinalities (hence encoded widths, all under 20
// bits), and the skew that drives early-stopping behaviour. The seven
// query kernels (A1, A2, A3, A5 and B1, B4, B5) follow the scan/lookup
// structure of the query set of [37] used in the paper.
package realdata

import (
	"byteslice/internal/datagen"
	"byteslice/internal/layout"
	"byteslice/internal/tpch"
)

// Dataset is a generated real-data equivalent; tpch.BuildTable formats its
// columns and tpch.Run executes its queries.
type Dataset struct {
	Name    string
	Specs   []tpch.ColumnSpec
	Raw     map[string][]uint32
	Queries []tpch.Query
}

type colDef struct {
	name string
	k    int
	gen  func(i int) uint32
}

func assemble(name string, rows int, defs []colDef) *Dataset {
	d := &Dataset{Name: name, Raw: make(map[string][]uint32, len(defs))}
	for _, def := range defs {
		codes := make([]uint32, rows)
		for i := range codes {
			codes[i] = def.gen(i)
		}
		d.Raw[def.name] = codes
		d.Specs = append(d.Specs, tpch.ColumnSpec{Name: def.name, K: def.k, Codes: codes})
	}
	return d
}

// AdultRows is the UCI ADULT row count.
const AdultRows = 32561

// Adult generates the ADULT-shaped dataset and its four query kernels.
func Adult(seed uint64) *Dataset {
	rng := datagen.NewRand(seed ^ 0xAD)
	zipf := datagen.NewZipfSampler(15, 1.3) // capital gain/loss shape
	defs := []colDef{
		{"age", 7, func(int) uint32 { return 17 + uint32(rng.IntN(74)) }},
		{"workclass", 4, func(int) uint32 { return uint32(rng.IntN(9)) }},
		{"fnlwgt", 18, func(int) uint32 { return 12285 + uint32(rng.IntN(1<<17)) }},
		{"education_num", 5, func(int) uint32 { return 1 + uint32(rng.IntN(16)) }},
		{"marital", 3, func(int) uint32 { return uint32(rng.IntN(7)) }},
		{"occupation", 4, func(int) uint32 { return uint32(rng.IntN(15)) }},
		{"relationship", 3, func(int) uint32 { return uint32(rng.IntN(6)) }},
		{"race", 3, func(int) uint32 { return uint32(rng.IntN(5)) }},
		{"sex", 1, func(int) uint32 { return uint32(rng.IntN(2)) }},
		{"capital_gain", 15, func(int) uint32 {
			if rng.IntN(100) < 92 { // most rows have zero capital gain
				return 0
			}
			return zipf.Sample(rng)
		}},
		{"capital_loss", 12, func(int) uint32 {
			if rng.IntN(100) < 95 {
				return 0
			}
			return uint32(rng.IntN(4096))
		}},
		{"hours_per_week", 7, func(int) uint32 { return 1 + uint32(rng.IntN(99)) }},
		{"native_country", 6, func(int) uint32 {
			if rng.IntN(100) < 90 { // United-States dominates
				return 38
			}
			return uint32(rng.IntN(42))
		}},
		{"income_gt_50k", 1, func(int) uint32 {
			if rng.IntN(100) < 24 {
				return 1
			}
			return 0
		}},
	}
	d := assemble("adult", AdultRows, defs)
	and, f := tpch.And, tpch.Cmp
	d.Queries = []tpch.Query{
		{
			// A1: high-selectivity demographic slice, light projection.
			Name:    "A1",
			Where:   and(f("age", layout.Ge, 25)),
			Project: []string{"hours_per_week"},
		},
		{
			// A2: mid-selectivity conjunction with a couple of lookups.
			Name: "A2",
			Where: and(
				f("sex", layout.Eq, 0),
				f("hours_per_week", layout.Gt, 40),
			),
			Project: []string{"age", "education_num", "capital_gain"},
		},
		{
			// A3: selective range over the skewed capital-gain column.
			Name: "A3",
			Where: and(
				f("capital_gain", layout.Gt, 5000),
				f("income_gt_50k", layout.Eq, 1),
			),
			Project: []string{"age", "workclass", "occupation", "hours_per_week"},
		},
		{
			// A5: moderately selective conjunction projecting five columns
			// — the lookup-dominated query of the ADULT set.
			Name: "A5",
			Where: and(
				f("age", layout.Between, 25, 45),
				f("education_num", layout.Ge, 10),
				f("hours_per_week", layout.Gt, 30),
			),
			Project: []string{"fnlwgt", "capital_gain", "capital_loss", "hours_per_week", "occupation"},
		},
	}
	return d
}

// BaseballRows approximates the Lahman batting table size used (seasons
// 1871–2013).
const BaseballRows = 99846

// Baseball generates the BASEBALL-shaped dataset and its three kernels.
func Baseball(seed uint64) *Dataset {
	rng := datagen.NewRand(seed ^ 0xBB)
	hitsZ := datagen.NewZipfSampler(8, 0.8)
	hrZ := datagen.NewZipfSampler(7, 1.6) // home runs: fat head at zero, thin tail
	d := assemble("baseball", BaseballRows, []colDef{
		{"year", 8, func(int) uint32 { return uint32(rng.IntN(143)) }}, // 1871 + year
		{"team", 7, func(int) uint32 { return uint32(rng.IntN(120)) }},
		{"league", 3, func(int) uint32 { return uint32(rng.IntN(7)) }},
		{"games", 8, func(int) uint32 { return 1 + uint32(rng.IntN(162)) }},
		{"at_bats", 10, func(int) uint32 { return uint32(rng.IntN(700)) }},
		{"runs", 8, func(int) uint32 { return hitsZ.Sample(rng) }},
		{"hits", 8, func(int) uint32 { return hitsZ.Sample(rng) }},
		{"home_runs", 7, func(int) uint32 {
			v := hrZ.Sample(rng)
			if v > 73 {
				v = 73
			}
			return v
		}},
		{"rbi", 8, func(int) uint32 { return hitsZ.Sample(rng) }},
		{"stolen_bases", 8, func(int) uint32 {
			v := hitsZ.Sample(rng)
			if v > 130 {
				v = 130
			}
			return v
		}},
		{"walks", 8, func(int) uint32 { return hitsZ.Sample(rng) }},
	})
	and, f := tpch.And, tpch.Cmp
	d.Queries = []tpch.Query{
		{
			// B1: modern seasons of regulars.
			Name: "B1",
			Where: and(
				f("year", layout.Ge, 129), // season 2000 onwards
				f("games", layout.Gt, 100),
			),
			Project: []string{"hits", "home_runs", "rbi"},
		},
		{
			// B4: power hitters — selective on the skewed HR column.
			Name:    "B4",
			Where:   and(f("home_runs", layout.Ge, 40)),
			Project: []string{"year", "team", "at_bats", "hits"},
		},
		{
			// B5: multi-stat conjunction.
			Name: "B5",
			Where: and(
				f("at_bats", layout.Ge, 400),
				f("hits", layout.Ge, 120),
				f("stolen_bases", layout.Ge, 20),
			),
			Project: []string{"year", "team"},
		},
	}
	return d
}
