package experiments

import (
	"byteslice"
	"byteslice/internal/datagen"
	"byteslice/internal/tpch"
)

func init() {
	register("fig12", func(c Config) []*Report { return complexPredicate(c, false) })
	register("fig19", func(c Config) []*Report { return complexPredicate(c, true) })
}

// complexPredicate reproduces Figures 12 (conjunction) and 19
// (disjunction): a two-column complex predicate evaluated with the
// baseline strategy on every layout and with the three ByteSlice
// strategies, reporting cycles/tuple and L2 misses/tuple as the first
// predicate's selectivity varies. The second predicate is fixed at 50%.
func complexPredicate(cfg Config, disjunct bool) []*Report {
	const k = 12
	rng := datagen.NewRand(cfg.Seed + 12)
	codes1 := datagen.Uniform(rng, cfg.N, k)
	codes2 := datagen.Uniform(rng, cfg.N, k)
	tables := buildAll([]tpch.ColumnSpec{
		{Name: "col1", K: k, Codes: codes1},
		{Name: "col2", K: k, Codes: codes2},
	})

	id, title, op := "Fig12", "Conjunction", "AND"
	sels := []float64{0.5, 0.1, 0.05, 0.01, 0.005, 0.001}
	eval := (*byteslice.Table).Filter
	if disjunct {
		id, title, op = "Fig19", "Disjunction", "OR"
		sels = []float64{0.999, 0.99, 0.95, 0.90, 0.50, 0.10}
		eval = (*byteslice.Table).FilterAny
	}
	series := []string{"Bit-Packed", "HBP", "VBP", "BS(Baseline)", "BS(Predicate-First)", "BS(Column-First)"}
	rc := &Report{ID: id, Title: title + " col1 < c1 " + op + " col2 > c2 — cycles/tuple",
		Columns: append([]string{"sel(col1)"}, series...)}
	rm := &Report{ID: id, Title: title + " — L2 cache misses/tuple",
		Columns: append([]string{"sel(col1)"}, series...)}

	combos := []struct {
		layout   string
		strategy byteslice.Strategy
	}{
		{"BitPacked", byteslice.StrategyBaseline},
		{"HBP", byteslice.StrategyBaseline},
		{"VBP", byteslice.StrategyBaseline},
		{"ByteSlice", byteslice.StrategyBaseline},
		{"ByteSlice", byteslice.StrategyPredicateFirst},
		{"ByteSlice", byteslice.StrategyColumnFirst},
	}
	for _, sel := range sels {
		filters := []byteslice.Filter{
			byteslice.CodeFilter("col1", byteslice.Lt, datagen.SelectivityConstant(codes1, sel)),
			byteslice.CodeFilter("col2", byteslice.Gt, datagen.SelectivityConstant(codes2, 0.5)),
		}
		cyc := []string{fpct(sel)}
		mis := []string{fpct(sel)}
		for _, cb := range combos {
			prof := byteslice.NewProfile()
			if _, err := eval(tables[cb.layout], filters, byteslice.WithProfile(prof),
				byteslice.WithStrategy(cb.strategy), byteslice.WithFilterOrder(byteslice.OrderAsWritten)); err != nil {
				panic(err)
			}
			cyc = append(cyc, ff(prof.Cycles()/float64(cfg.N)))
			mis = append(mis, ff(float64(prof.L2Misses())/float64(cfg.N)))
		}
		rc.AddRow(cyc...)
		rm.AddRow(mis...)
	}
	return []*Report{rc, rm}
}
