package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"byteslice"
)

// Column domains of the generated lineitem table. Decimals are held as
// integer cents, so the oracle compares exactly what the encoder stores.
const (
	orderkeyMax   = 1<<26 - 1 // k = 26, sorted, built WithCompression
	quantityMin   = 1         // quantity 1..50, k = 6
	quantityMax   = 50
	priceMaxCents = 10_000_000 // price 0..100000.00, k = 24
	discMaxCents  = 10         // discount 0..0.10, k = 4
	shipdateMax   = 2555       // shipdate 0..2555, k = 12, clustered, zone maps
	shipdateNoise = 30
)

// modes is the sorted dictionary of the mode column; modeWeights skews
// it (percent per value, same order).
var (
	modes       = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	modeWeights = []int{22, 7, 9, 12, 4, 16, 30}
)

// lineitem holds generated rows column-wise in compact types: the oracle
// regenerates them after a window instead of keeping int64 copies alive.
type lineitem struct {
	orderkey []int32
	quantity []int8
	price    []int32 // cents
	discount []int8  // cents
	shipdate []int16
	mode     []uint8 // index into modes
}

func (l *lineitem) len() int { return len(l.orderkey) }

// newRNG derives an independent deterministic stream per (seed, purpose).
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// Generator streams; each input the benchmark makes has its own, so
// changing one workload's request mix never changes another's data.
const (
	streamLineitem = iota + 1
	streamIngestBase
	streamIngestRows
	streamRequests
	streamDashboard
	streamWriter
)

func pickMode(r *rand.Rand) uint8 {
	x := r.IntN(100)
	for i, w := range modeWeights {
		if x < w {
			return uint8(i)
		}
		x -= w
	}
	return uint8(len(modes) - 1)
}

// genLineitem makes n rows: orderkey sorted over 0..2^26, shipdate
// following row order with ±30 noise, the rest uniform (mode skewed).
func genLineitem(seed, stream uint64, n int) *lineitem {
	r := newRNG(seed, stream)
	l := &lineitem{
		orderkey: make([]int32, n), quantity: make([]int8, n), price: make([]int32, n),
		discount: make([]int8, n), shipdate: make([]int16, n), mode: make([]uint8, n),
	}
	stride := (orderkeyMax + 1) / n
	for i := 0; i < n; i++ {
		l.orderkey[i] = int32(i*stride + r.IntN(stride))
		l.quantity[i] = int8(quantityMin + r.IntN(quantityMax-quantityMin+1))
		l.price[i] = int32(r.IntN(priceMaxCents + 1))
		l.discount[i] = int8(r.IntN(discMaxCents + 1))
		d := i*(shipdateMax+1)/n + r.IntN(2*shipdateNoise+1) - shipdateNoise
		l.shipdate[i] = int16(min(max(d, 0), shipdateMax))
		l.mode[i] = pickMode(r)
	}
	return l
}

// genRow makes one appended row: new orders arrive in no key order.
func genRow(r *rand.Rand) row {
	return row{
		orderkey: int32(r.IntN(orderkeyMax + 1)),
		quantity: int8(quantityMin + r.IntN(quantityMax-quantityMin+1)),
		price:    int32(r.IntN(priceMaxCents + 1)),
		discount: int8(r.IntN(discMaxCents + 1)),
		shipdate: int16(r.IntN(shipdateMax + 1)),
		mode:     pickMode(r),
	}
}

// row is one lineitem row, the unit of the ingest path.
type row struct {
	orderkey int32
	quantity int8
	price    int32
	discount int8
	shipdate int16
	mode     uint8
}

func (l *lineitem) append(rw row) {
	l.orderkey = append(l.orderkey, rw.orderkey)
	l.quantity = append(l.quantity, rw.quantity)
	l.price = append(l.price, rw.price)
	l.discount = append(l.discount, rw.discount)
	l.shipdate = append(l.shipdate, rw.shipdate)
	l.mode = append(l.mode, rw.mode)
}

// values renders the row as IngestTable.Append wants it.
func (rw row) values() map[string]any {
	return map[string]any{
		"orderkey": int64(rw.orderkey), "quantity": int64(rw.quantity),
		"price": cents(int64(rw.price)), "discount": cents(int64(rw.discount)),
		"shipdate": int64(rw.shipdate), "mode": modes[rw.mode],
	}
}

func cents(c int64) float64 { return float64(c) / 100 }

// buildTable encodes the rows into the facade table the benchmark serves.
// Each column's temporary int64/float64/string copy is dropped before the
// next is made.
func buildTable(l *lineitem) (*byteslice.Table, error) {
	n := l.len()
	ints := func(f func(i int) int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	decs := func(f func(i int) int64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = cents(f(i))
		}
		return v
	}
	var cols []*byteslice.Column
	add := func(c *byteslice.Column, err error) error {
		if err != nil {
			return err
		}
		cols = append(cols, c)
		return nil
	}
	if err := add(byteslice.NewIntColumn("orderkey", ints(func(i int) int64 { return int64(l.orderkey[i]) }),
		0, orderkeyMax, byteslice.WithCompression())); err != nil {
		return nil, err
	}
	if err := add(byteslice.NewIntColumn("quantity", ints(func(i int) int64 { return int64(l.quantity[i]) }),
		quantityMin, quantityMax)); err != nil {
		return nil, err
	}
	if err := add(byteslice.NewDecimalColumn("price", decs(func(i int) int64 { return int64(l.price[i]) }),
		0, cents(priceMaxCents), 2)); err != nil {
		return nil, err
	}
	if err := add(byteslice.NewDecimalColumn("discount", decs(func(i int) int64 { return int64(l.discount[i]) }),
		0, cents(discMaxCents), 2)); err != nil {
		return nil, err
	}
	if err := add(byteslice.NewIntColumn("shipdate", ints(func(i int) int64 { return int64(l.shipdate[i]) }),
		0, shipdateMax, byteslice.WithZoneMaps())); err != nil {
		return nil, err
	}
	strs := make([]string, n)
	for i, m := range l.mode {
		strs[i] = modes[m]
	}
	if err := add(byteslice.NewStringColumn("mode", strs)); err != nil {
		return nil, err
	}
	return byteslice.NewTable(cols...)
}

// tableBytes is the in-memory size of the table's column data.
func tableBytes(t *byteslice.Table) int64 {
	var n uint64
	for _, c := range t.Columns() {
		n += c.SizeBytes()
	}
	return int64(n)
}

// writeSnapshot encodes the rows, saves the table to path and returns
// its in-memory size.
func writeSnapshot(path string, l *lineitem) (int64, error) {
	tbl, err := buildTable(l)
	if err != nil {
		return 0, fmt.Errorf("build lineitem: %w", err)
	}
	return tableBytes(tbl), tbl.SaveFile(path)
}

// ingestRows is the ingest workload's row sequence: base rows, then the
// rows the prepared WAL holds, then the rows the writer appends. Row
// numbers on the live table follow this order across merges.
type ingestRows struct {
	base, replay int
	rows         *lineitem
	next         *rand.Rand // appended rows continue the replayed stream
}

func newIngestRows(seed uint64, base, replay int) *ingestRows {
	ir := &ingestRows{base: base, replay: replay, rows: genLineitem(seed, streamIngestBase, base),
		next: newRNG(seed, streamIngestRows)}
	for i := 0; i < replay; i++ {
		ir.rows.append(genRow(ir.next))
	}
	return ir
}

// prepareIngest writes an ingest directory holding the base snapshot and a
// WAL of the replay rows, closed cleanly, and returns the base table's
// in-memory size. Appends are unsynced here — the directory is an input,
// and Close syncs the WAL.
func prepareIngest(dir string, ir *ingestRows) (int64, error) {
	base := &lineitem{
		orderkey: ir.rows.orderkey[:ir.base], quantity: ir.rows.quantity[:ir.base],
		price: ir.rows.price[:ir.base], discount: ir.rows.discount[:ir.base],
		shipdate: ir.rows.shipdate[:ir.base], mode: ir.rows.mode[:ir.base],
	}
	tbl, err := buildTable(base)
	if err != nil {
		return 0, fmt.Errorf("build ingest base: %w", err)
	}
	it, err := byteslice.CreateIngest(dir, tbl, byteslice.WithSyncedAppends(false), byteslice.WithAutoMerge(false))
	if err != nil {
		return 0, err
	}
	for i := ir.base; i < ir.base+ir.replay; i++ {
		if err := it.Append(ir.rows.at(i).values()); err != nil {
			it.Close() //nolint:errcheck // already failing
			return 0, fmt.Errorf("prepare ingest WAL row %d: %w", i, err)
		}
	}
	return tableBytes(tbl), it.Close()
}

func (l *lineitem) at(i int) row {
	return row{l.orderkey[i], l.quantity[i], l.price[i], l.discount[i], l.shipdate[i], l.mode[i]}
}

// copyDir copies a flat directory (an ingest directory) so every mount
// starts from the same bytes.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
