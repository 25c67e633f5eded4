package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// TestChecksumPinned pins the checksum of fixed responses to the hex
// values the fmt-built fingerprint produced, so a faster rendering of the
// same text cannot drift by a byte: row ids, int/decimal/string
// projections, decimal aggregates whose %g form takes an exponent or is
// not finite, and int and string aggregates.
func TestChecksumPinned(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	i := func(v int64) *int64 { return &v }
	s := func(v string) *string { return &v }
	cases := []struct {
		name string
		resp Response
		want string
	}{
		{"rows", Response{Count: 7, RowIDs: []int32{3, 1, 4, 0}, Data: map[string]*ColumnData{
			"qty":   {Rows: []int32{0, 1, 3, 4}, Ints: []int64{5, -12, 9_000_000_000, 0}},
			"price": {Rows: []int32{1, 4}, Decimals: []float64{2.5, 1e-7}},
			"mode":  {Rows: []int32{3}, Strings: []string{"AIR;x=1"}},
			"empty": {},
		}}, "6c1413c7e0ad49a3"},
		{"decimal_exp_large", Response{Count: 3, Value: f(1e21)}, "0c60fa440ba17326"},
		{"decimal_exp_small", Response{Count: 3, Value: f(1e-07)}, "40cd82442973c2c8"},
		{"decimal_plain", Response{Count: 2, Value: f(-123.456)}, "d14cb7243807d2e9"},
		{"decimal_specials", Response{Count: 4, Data: map[string]*ColumnData{
			"d": {Rows: []int32{0, 1, 2, 3, 4}, Decimals: []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 123456789012345678}},
		}}, "7b628cea03b9a070"},
		{"int", Response{Count: 9, IntValue: i(-42)}, "6028560bb58ab087"},
		{"string", Response{Count: 1, StrValue: s("RAIL")}, "301ba030f9ae4c1c"},
		{"count_only", Response{Count: 0}, "78563e7416f40a41"},
		{"many_rows", manyRows(3000), "5a1e8fadc0a67f97"},
	}
	for _, c := range cases {
		if got := c.resp.fingerprint(); got != c.want {
			t.Errorf("%s: checksum %s, want %s", c.name, got, c.want)
		}
	}
}

// manyRows is a rows response whose checksum text runs to tens of
// kilobytes, so a chunked hash crosses many chunk boundaries.
func manyRows(n int) Response {
	r := Response{Count: 2 * n, Data: map[string]*ColumnData{"v": {}, "p": {}}}
	for i := 0; i < n; i++ {
		r.RowIDs = append(r.RowIDs, int32(n-i))
		v, p := r.Data["v"], r.Data["p"]
		v.Rows, v.Ints = append(v.Rows, int32(i)), append(v.Ints, int64(i*i-7*n))
		p.Rows, p.Decimals = append(p.Rows, int32(2*i)), append(p.Decimals, float64(i)/3)
	}
	return r
}

// TestChecksumMatchesFmtRendering compares the fingerprint with a
// reference that renders every piece through fmt, over random responses
// mixing ints, decimals in plain and exponent form, ±Inf, NaN, −0 and
// strings.
func TestChecksumMatchesFmtRendering(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	decimal := func() float64 {
		switch rng.IntN(8) {
		case 0:
			return math.Inf(1 - 2*rng.IntN(2))
		case 1:
			return math.NaN()
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(60)-30))
		}
		return float64(rng.IntN(20000)-10000) / 100
	}
	for n := 0; n < 500; n++ {
		r := Response{Count: rng.IntN(1 << 20)}
		switch rng.IntN(4) {
		case 0:
			v := decimal()
			r.Value = &v
		case 1:
			v := rng.Int64() - math.MaxInt64/2
			r.IntValue = &v
		case 2:
			v := fmt.Sprint("s", rng.IntN(100))
			r.StrValue = &v
		}
		for i := rng.IntN(300); i > 0; i-- {
			r.RowIDs = append(r.RowIDs, rng.Int32())
		}
		if rng.IntN(2) == 0 {
			r.Data = map[string]*ColumnData{}
			for c := rng.IntN(4); c > 0; c-- {
				d := &ColumnData{}
				kind := rng.IntN(3)
				for i := rng.IntN(200); i > 0; i-- {
					d.Rows = append(d.Rows, rng.Int32())
					switch kind {
					case 0:
						d.Ints = append(d.Ints, rng.Int64()-math.MaxInt64/2)
					case 1:
						d.Decimals = append(d.Decimals, decimal())
					default:
						d.Strings = append(d.Strings, fmt.Sprint("v=", rng.IntN(1000)))
					}
				}
				r.Data[fmt.Sprint("c", c)] = d
			}
		}
		if got, want := r.fingerprint(), fingerprintFmt(&r); got != want {
			t.Fatalf("response %d: checksum %s, fmt reference %s", n, got, want)
		}
	}
}

// fingerprintFmt is the fmt-built rendering the checksum text is defined
// by, kept as the reference for TestChecksumMatchesFmtRendering.
func fingerprintFmt(r *Response) string {
	h := fnv.New64a()
	w := func(s string) { h.Write([]byte(s)) } //nolint:errcheck // hash.Write never fails
	w(fmt.Sprintf("count=%d", r.Count))
	if r.Value != nil {
		w(fmt.Sprintf("|value=%g", *r.Value))
	}
	if r.IntValue != nil {
		w(fmt.Sprintf("|int=%d", *r.IntValue))
	}
	if r.StrValue != nil {
		w("|str=" + *r.StrValue)
	}
	for _, id := range r.RowIDs {
		w(fmt.Sprintf("|r%d", id))
	}
	cols := make([]string, 0, len(r.Data))
	for c := range r.Data {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		d := r.Data[c]
		w("|col=" + c)
		for i, row := range d.Rows {
			switch {
			case d.Ints != nil:
				w(fmt.Sprintf(";%d=%d", row, d.Ints[i]))
			case d.Decimals != nil:
				w(fmt.Sprintf(";%d=%g", row, d.Decimals[i]))
			case d.Strings != nil:
				w(fmt.Sprintf(";%d=%s", row, d.Strings[i]))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
