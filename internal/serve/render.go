package serve

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync"
)

// A /query success body is rendered by hand, not through encoding/json's
// reflection: one pass writes exactly the bytes
// json.NewEncoder(w).Encode(resp) writes, formatting every number once,
// and feeds the same digits to an FNV-1a hash in the checksum text's
// order. The checksum text is count, value, int, str, the row ids and
// the data columns in key order — the body's order — so only a column's
// "row=value" pairs need the row digits again, which are read back from
// the body. A decimal's %g form is formatted separately only where it
// differs from encoding/json's, below 1e-4 or at or above 1e6.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// maxPooledBody caps the render buffers kept for reuse: an unlimited
	// rows answer may run to megabytes once, and its buffer is dropped.
	maxPooledBody = 1 << 20
)

// bodyPool holds render buffers.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// putBody returns a render buffer to the pool.
func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// pow10 holds the exact float64 powers of ten a decimal column's scale
// can take (encoding.NewDecimalEncoder allows 0–9 digits).
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// fnv1a folds s into the FNV-1a 64 hash h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// renderer is one rendering pass: the body so far, and the checksum
// text's hash when hash is set.
type renderer struct {
	b    []byte
	h    uint64
	hash bool
	// ok turns false at a value encoding/json refuses (NaN, ±Inf), whose
	// Encode writes nothing: the body is then not the encoder's.
	ok bool
}

// sum feeds checksum text to the hash.
func (w *renderer) sum(s string) {
	if w.hash {
		w.h = fnv1a(w.h, s)
	}
}

// sumFrom feeds the body bytes from start on to the hash.
func (w *renderer) sumFrom(start int) {
	if w.hash {
		w.h = fnv1a(w.h, w.b[start:])
	}
}

// str writes s as encoding/json does: quoted, and, when any byte needs
// an escape (a control byte, a quote, a backslash, <, >, & or any byte
// past ASCII), through encoding/json itself.
func (w *renderer) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7E || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				w.ok = false
			}
			w.b = append(w.b, enc...)
			return
		}
	}
	w.b = append(append(append(w.b, '"'), s...), '"')
}

// int writes v and feeds its digits to the hash.
func (w *renderer) int(v int64) {
	start := len(w.b)
	w.b = strconv.AppendInt(w.b, v, 10)
	w.sumFrom(start)
}

// float writes v by encoding/json's float rule and feeds its %g form to
// the hash. digits is the scale of the decimal column v came from
// (0 when v is not a column value): inside the exact range the body's
// digits come from v's fixed-point integer, not from strconv.
func (w *renderer) float(v float64, digits int) {
	start := len(w.b)
	abs := math.Abs(v)
	m := math.Round(v * pow10[digits])
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		w.ok = false
		w.b = strconv.AppendFloat(w.b, v, 'g', -1, 64)
		w.sumFrom(start)
		return
	case (v == 0 || abs >= 1e-6) && math.Abs(m) < 1e15 && m/pow10[digits] == v:
		// The integer m·10^-digits reads back as v and has at most 15
		// significant digits, so no shorter decimal reads back as v: it
		// is the shortest form, which encoding/json's 'f' prints.
		w.b = appendFixed(w.b, uint64(math.Abs(m)), digits, math.Signbit(v))
	default:
		w.b = appendJSONFloat(w.b, v)
	}
	if !w.hash {
		return
	}
	if v == 0 || abs >= 1e-4 && abs < 1e6 {
		w.sumFrom(start) // %g prints the shortest 'f' form here
		return
	}
	var g [32]byte
	w.h = fnv1a(w.h, strconv.AppendFloat(g[:0], v, 'g', -1, 64))
}

// appendFixed appends u·10^-digits, trailing fractional zeros trimmed,
// signed when neg.
func appendFixed(b []byte, u uint64, digits int, neg bool) []byte {
	for digits > 0 && u%10 == 0 {
		u /= 10
		digits--
	}
	var tmp [24]byte
	i := len(tmp)
	for ; digits > 0; digits-- {
		i--
		tmp[i] = byte('0' + u%10)
		u /= 10
		if digits == 1 {
			i--
			tmp[i] = '.'
		}
	}
	for {
		i--
		tmp[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if neg {
		i--
		tmp[i] = '-'
	}
	return append(b, tmp[i:]...)
}

// appendJSONFloat appends a finite v as encoding/json writes a float64:
// the shortest 'f' form, or 'e' form below 1e-6 and from 1e21 on, with a
// two-digit exponent cleaned to one ("1e-07" → "1e-7").
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendContent appends r's body up to its checksum — the fields a
// result carries, which a cached response shares — and returns it with
// the checksum text's hash (when hash is set) and whether encoding/json
// would have written the same bytes.
func appendContent(b []byte, r *Response, hash bool) ([]byte, uint64, bool) {
	w := renderer{b: b, h: fnvOffset, hash: hash, ok: true}
	w.b = append(w.b, `{"table":`...)
	w.str(r.Table)
	w.b = strconv.AppendUint(append(w.b, `,"epoch":`...), r.Epoch, 10)
	w.b = strconv.AppendInt(append(w.b, `,"rows":`...), int64(r.Rows), 10)
	w.b = append(w.b, `,"count":`...)
	w.sum("count=")
	w.int(int64(r.Count))
	if r.Value != nil {
		w.b = append(w.b, `,"value":`...)
		w.sum("|value=")
		w.float(*r.Value, 0)
	}
	if r.IntValue != nil {
		w.b = append(w.b, `,"int_value":`...)
		w.sum("|int=")
		w.int(*r.IntValue)
	}
	if r.StrValue != nil {
		w.b = append(w.b, `,"str_value":`...)
		w.str(*r.StrValue)
		w.sum("|str=")
		w.sum(*r.StrValue)
	}
	if len(r.RowIDs) > 0 {
		w.b = append(w.b, `,"row_ids":[`...)
		for i, id := range r.RowIDs {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.sum("|r")
			w.int(int64(id))
		}
		w.b = append(w.b, ']')
	}
	if len(r.Data) > 0 {
		cols := make([]string, 0, len(r.Data))
		for c := range r.Data {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		w.b = append(w.b, `,"data":{`...)
		for i, c := range cols {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.str(c)
			w.b = append(w.b, ':')
			w.sum("|col=")
			w.sum(c)
			w.column(r.Data[c])
		}
		w.b = append(w.b, '}')
	}
	return w.b, w.h, w.ok
}

// column writes one projected column. The checksum text pairs each row
// with its value (";row=value"), in the first value slice that is set;
// while that slice's array is written, each row's digits are read back
// from the rows array at cursor rp.
func (w *renderer) column(d *ColumnData) {
	if d == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, `{"rows":`...)
	rp := len(w.b) + 1
	if d.Rows == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i, r := range d.Rows {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = strconv.AppendInt(w.b, int64(r), 10)
		}
		w.b = append(w.b, ']')
	}
	// pair feeds ";row=" of row i to the hash, or reports that the rows
	// ran out or nothing is hashed.
	hashing := w.hash
	pair := func(i int) bool {
		if !hashing || i >= len(d.Rows) {
			return false
		}
		end := rp
		for w.b[end] != ',' && w.b[end] != ']' {
			end++
		}
		w.h = fnv1a(w.h, ";")
		w.h = fnv1a(w.h, w.b[rp:end])
		w.h = fnv1a(w.h, "=")
		rp = end + 1
		return true
	}
	hashInts := d.Ints != nil
	hashDecimals := !hashInts && d.Decimals != nil
	hashStrings := !hashInts && !hashDecimals && d.Strings != nil
	if len(d.Ints) > 0 {
		w.b = append(w.b, `,"ints":[`...)
		for i, v := range d.Ints {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			start := len(w.b)
			w.b = strconv.AppendInt(w.b, v, 10)
			if hashInts && pair(i) {
				w.sumFrom(start)
			}
		}
		w.b = append(w.b, ']')
	}
	if len(d.Decimals) > 0 {
		w.b = append(w.b, `,"decimals":[`...)
		for i, v := range d.Decimals {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.hash = hashDecimals && pair(i)
			w.float(v, d.digits)
		}
		w.hash = hashing
		w.b = append(w.b, ']')
	}
	if len(d.Strings) > 0 {
		w.b = append(w.b, `,"strings":[`...)
		for i, v := range d.Strings {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.str(v)
			if hashStrings && pair(i) {
				w.sum(v)
			}
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
}

// appendTail appends the rest of r's body after its content: the
// checksum, the per-request fields, the explain text and the newline
// Encode ends with. It reports whether encoding/json would have written
// the same bytes.
func appendTail(b []byte, r *Response) ([]byte, bool) {
	w := renderer{b: b, ok: true}
	w.b = append(w.b, `,"checksum":`...)
	w.str(r.Checksum)
	w.b = append(w.b, `,"cache":`...)
	w.str(r.Cache)
	w.b = append(w.b, `,"tenant":`...)
	w.str(r.Tenant)
	w.b = append(w.b, `,"elapsed_ms":`...)
	w.float(r.ElapsedMs, 0)
	if r.Explain != "" {
		w.b = append(w.b, `,"explain":`...)
		w.str(r.Explain)
	}
	return append(w.b, '}', '\n'), w.ok
}

// checksumHex renders a checksum hash as 16 lower-case hex digits.
func checksumHex(h uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[h&15]
		h >>= 4
	}
	return string(b[:])
}
