// Package tpch reproduces the paper's TPC-H evaluation setting (§4.2):
// following Li and Patel's WideTable [32], the joins of the TPC-H schema
// are materialised upfront into a denormalised wide table at lineitem
// grain, and queries reduce to selection–projection kernels — scans over
// encoded columns plus lookups of the projected columns — which is exactly
// the workload the paper times.
//
// The paper uses dbgen at scale factor 10 (and a skewed variant [11]).
// dbgen itself is proprietary-format C tooling; this package generates a
// deterministic synthetic equivalent that preserves what the experiments
// depend on: the wide-table column set for queries Q1, Q3, Q4, Q5, Q6, Q8,
// Q10, Q11, Q12, Q14, Q15, Q17 and Q19, TPC-H value domains (hence encoded
// code widths), the correlations predicates rely on (ship/commit/receipt
// dates derived from the order date), and per-query selectivities. Row
// count and Zipfian skew are configurable.
package tpch

import (
	"fmt"
	"time"

	"byteslice"
	"byteslice/internal/datagen"
	"byteslice/internal/encoding"
)

// Epoch is day zero of the date encoding; EndDate is the last generated
// date (TPC-H's order-date horizon plus maximum shipping delays).
var (
	Epoch   = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	EndDate = time.Date(1998, 12, 31, 0, 0, 0, 0, time.UTC)
)

// Day converts a civil date into the day-number code domain.
func Day(y, m, d int) int64 {
	return int64(time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC).Sub(Epoch).Hours() / 24)
}

// Dictionaries of the categorical columns, with TPC-H's vocabularies
// (sizes matter — they set the encoded widths; exact strings are cosmetic).
var (
	ReturnFlags = []string{"A", "N", "R"}
	LineStatus  = []string{"F", "O"}
	ShipModes   = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	Instructs   = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}
	Priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	Segments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	Regions     = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
)

func brands() []string {
	out := make([]string, 0, 25)
	for i := 1; i <= 5; i++ {
		for j := 1; j <= 5; j++ {
			out = append(out, fmt.Sprintf("Brand#%d%d", i, j))
		}
	}
	return out
}

func containers() []string {
	sizes := []string{"SM", "MED", "LG", "JUMBO", "WRAP"}
	kinds := []string{"BAG", "BOX", "CAN", "CASE", "DRUM", "JAR", "PACK", "PKG"}
	out := make([]string, 0, 40)
	for _, s := range sizes {
		for _, k := range kinds {
			out = append(out, s+" "+k)
		}
	}
	return out
}

func partTypes() []string {
	t1 := []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	t2 := []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	t3 := []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	out := make([]string, 0, 150)
	for _, a := range t1 {
		for _, b := range t2 {
			for _, c := range t3 {
				out = append(out, a+" "+b+" "+c)
			}
		}
	}
	return out
}

// Config parameterises generation.
type Config struct {
	// Rows is the number of wide-table rows (lineitem grain). The paper
	// runs SF10 (~60M); the default harness scale keeps laptop runtimes.
	Rows int
	// Skew is the Zipf factor applied to the skewed-TPC-H variant
	// (Figure 21); 0 generates the standard uniform-ish distributions.
	Skew float64
	// Seed makes generation deterministic.
	Seed uint64
}

// ColumnSpec is one encoded column before it is formatted into a layout.
type ColumnSpec struct {
	Name string
	// K is the encoded width in bits.
	K int
	// Codes are the encoded values, one per row.
	Codes []uint32
}

// BuildTable formats the columns into one facade table; opts (the storage
// layout, compression) apply to every column.
func BuildTable(specs []ColumnSpec, opts ...byteslice.ColumnOption) (*byteslice.Table, error) {
	cols := make([]*byteslice.Column, len(specs))
	for i, s := range specs {
		c, err := byteslice.NewCodeColumn(s.Name, s.Codes, s.K, opts...)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return byteslice.NewTable(cols...)
}

// Dataset is the generated wide table plus the encoders queries need to
// translate their constants into code space.
type Dataset struct {
	Cfg   Config
	Specs []ColumnSpec
	Dates *encoding.IntEncoder
	Price *encoding.DecimalEncoder
	Cost  *encoding.DecimalEncoder
	Dicts map[string]*encoding.Dictionary
	// Raw keeps the generated codes per column for building the table in
	// several layouts and for test oracles.
	Raw map[string][]uint32
}

// Generate builds the dataset (codes only; BuildTable formats it).
func Generate(cfg Config) *Dataset {
	if cfg.Rows <= 0 {
		cfg.Rows = 100_000
	}
	rng := datagen.NewRand(cfg.Seed ^ 0x7c1)
	n := cfg.Rows

	dates, err := encoding.NewIntEncoder(0, Day(1998, 12, 31))
	if err != nil {
		panic(err)
	}
	price, err := encoding.NewDecimalEncoder(900, 105000, 2)
	if err != nil {
		panic(err)
	}
	cost, err := encoding.NewDecimalEncoder(1, 1000, 2)
	if err != nil {
		panic(err)
	}
	dicts := map[string]*encoding.Dictionary{
		"l_returnflag":    encoding.NewDictionary(ReturnFlags),
		"l_linestatus":    encoding.NewDictionary(LineStatus),
		"l_shipmode":      encoding.NewDictionary(ShipModes),
		"l_shipinstruct":  encoding.NewDictionary(Instructs),
		"o_orderpriority": encoding.NewDictionary(Priorities),
		"c_mktsegment":    encoding.NewDictionary(Segments),
		"region":          encoding.NewDictionary(Regions),
		"p_brand":         encoding.NewDictionary(brands()),
		"p_container":     encoding.NewDictionary(containers()),
		"p_type":          encoding.NewDictionary(partTypes()),
	}

	d := &Dataset{Cfg: cfg, Dates: dates, Price: price, Cost: cost, Dicts: dicts,
		Raw: make(map[string][]uint32)}

	// skewed draws an integer in [0, domain) — uniform or Zipf-skewed.
	var zipfCache = map[int]*datagen.ZipfSampler{}
	skewed := func(domain int) uint32 {
		if cfg.Skew == 0 {
			return uint32(rng.IntN(domain))
		}
		k := encoding.Width(uint64(domain))
		z, ok := zipfCache[k]
		if !ok {
			z = datagen.NewZipfSampler(k, cfg.Skew)
			zipfCache[k] = z
		}
		for {
			if v := z.Sample(rng); int(v) < domain {
				return v
			}
		}
	}

	col := func(name string, k int, fill func(i int) uint32) {
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = fill(i)
		}
		d.Raw[name] = codes
		d.Specs = append(d.Specs, ColumnSpec{Name: name, K: k, Codes: codes})
	}
	dictCol := func(name, dict string) {
		dc := dicts[dict]
		col(name, dc.Width(), func(int) uint32 { return skewed(dc.Cardinality()) })
	}

	// Per-row driver values that several columns derive from.
	orderDay := make([]uint32, n)
	shipDay := make([]uint32, n)
	quantity := make([]uint32, n)
	horizon := int(Day(1998, 8, 2)) // orders placed up to ~1998-08-02
	for i := 0; i < n; i++ {
		orderDay[i] = uint32(int(skewed(horizon)))
		shipDay[i] = orderDay[i] + 1 + uint32(rng.IntN(121))
		quantity[i] = 1 + skewed(50)
	}

	col("o_orderdate", dates.Width(), func(i int) uint32 { return orderDay[i] })
	col("l_shipdate", dates.Width(), func(i int) uint32 { return shipDay[i] })
	commit := make([]uint32, n)
	receipt := make([]uint32, n)
	for i := 0; i < n; i++ {
		commit[i] = orderDay[i] + 30 + uint32(rng.IntN(61))
		receipt[i] = shipDay[i] + 1 + uint32(rng.IntN(30))
	}
	col("l_commitdate", dates.Width(), func(i int) uint32 { return commit[i] })
	col("l_receiptdate", dates.Width(), func(i int) uint32 { return receipt[i] })
	col("l_commit_lt_receipt", 1, func(i int) uint32 {
		if commit[i] < receipt[i] {
			return 1
		}
		return 0
	})
	col("l_quantity", 6, func(i int) uint32 { return quantity[i] })
	col("l_discount", 4, func(int) uint32 { return skewed(11) }) // percent
	col("l_tax", 4, func(int) uint32 { return skewed(9) })       // percent
	col("l_extendedprice", price.Width(), func(i int) uint32 {
		unit := 900 + rng.IntN(1201) // 900.00 – 2100.00 per unit
		return price.EncodeClamped(float64(unit) * float64(quantity[i]))
	})
	dictCol("l_returnflag", "l_returnflag")
	dictCol("l_linestatus", "l_linestatus")
	dictCol("l_shipmode", "l_shipmode")
	dictCol("l_shipinstruct", "l_shipinstruct")
	col("l_suppkey", 14, func(int) uint32 { return skewed(10000) })
	dictCol("o_orderpriority", "o_orderpriority")
	dictCol("c_mktsegment", "c_mktsegment")
	col("c_nationkey", 5, func(int) uint32 { return skewed(25) })
	sNation := make([]uint32, n)
	for i := range sNation {
		sNation[i] = skewed(25)
	}
	col("s_nationkey", 5, func(i int) uint32 { return sNation[i] })
	col("s_regionkey", 3, func(i int) uint32 { return sNation[i] / 5 })
	col("c_regionkey", 3, func(i int) uint32 { return d.Raw["c_nationkey"][i] / 5 })
	col("c_s_same_nation", 1, func(i int) uint32 {
		if d.Raw["c_nationkey"][i] == sNation[i] {
			return 1
		}
		return 0
	})
	dictCol("p_brand", "p_brand")
	dictCol("p_container", "p_container")
	dictCol("p_type", "p_type")
	col("p_size", 6, func(int) uint32 { return 1 + skewed(50) })
	col("ps_availqty", 14, func(int) uint32 { return 1 + skewed(9999) })
	col("ps_supplycost", cost.Width(), func(int) uint32 {
		return cost.EncodeClamped(1 + float64(rng.IntN(99900))/100)
	})

	return d
}

// DayCode encodes a civil date as a comparison constant.
func (d *Dataset) DayCode(y, m, day int) uint32 {
	return d.Dates.EncodeClamped(Day(y, m, day))
}

// DictCode encodes a categorical constant.
func (d *Dataset) DictCode(dict, value string) uint32 {
	c, err := d.Dicts[dict].Encode(value)
	if err != nil {
		panic(err)
	}
	return c
}
