// Package bitvec implements the result bit vectors that column scans
// produce: fixed-length vectors of one bit per record, with the logical
// operations needed to combine predicates and convert matches into record
// numbers.
package bitvec

import (
	"fmt"
	"math/bits"
)

// Vector is a fixed-length bit vector. Bit i corresponds to record i; the
// scan kernels append results in record order. Bits at positions ≥ Len()
// are always zero (operations maintain this invariant), so Count and
// Positions are exact even though scans emit whole 32- or 256-bit blocks.
type Vector struct {
	words []uint64
	n     int
	// pos is the append cursor in bits.
	pos int
}

// Release hands a finished query result's lent vectors back for reuse.
// The byteslice package sets it at start-up to release a
// *byteslice.Result, whose vectors are unexported; internal/serve calls
// it once a request's response no longer reads its result. It is an
// internal seam, not API: a library caller's results are never released.
var Release func(result any)

// New returns a zeroed vector of n bits positioned for appending at bit 0.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// Adopt wraps words as a vector of n bits without copying them: bit i is
// bit i%64 of words[i/64]. The words must number ⌈n/64⌉ and hold no bit
// at or past n; Adopt reports false otherwise. Nobody may write the words
// afterwards except through the vector.
func Adopt(words []uint64, n int) (*Vector, bool) {
	if n < 0 || len(words) != (n+63)/64 {
		return nil, false
	}
	if n%64 != 0 && words[len(words)-1]>>uint(n%64) != 0 {
		return nil, false
	}
	return &Vector{words: words, n: n}, true
}

// Len returns the number of record bits.
func (v *Vector) Len() int { return v.n }

// Reset zeroes the vector and rewinds the append cursor.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
	v.pos = 0
}

// Append32 appends the low 32 bits of r (bit j of r becomes record pos+j).
// Bits spilling past Len are discarded, which is how scans emit their final
// partial segment.
func (v *Vector) Append32(r uint32) {
	v.appendBits(uint64(r), 32)
}

// Append64 appends the low width bits of r (width ≤ 64).
func (v *Vector) Append64(r uint64, width int) {
	if width < 0 || width > 64 {
		panic("bitvec: bad append width")
	}
	v.appendBits(r, width)
}

func (v *Vector) appendBits(r uint64, width int) {
	if width == 0 {
		return
	}
	if rem := v.n - v.pos; rem <= 0 {
		v.pos += width
		return
	} else if rem < width {
		r &= (1 << uint(rem)) - 1
		if rem < 64 && width > rem {
			// keep only in-range bits
			r &= 1<<uint(rem) - 1
		}
	} else if width < 64 {
		r &= 1<<uint(width) - 1
	}
	w, off := v.pos>>6, uint(v.pos&63)
	v.words[w] |= r << off
	if off != 0 && w+1 < len(v.words) {
		v.words[w+1] |= r >> (64 - off)
	}
	v.pos += width
}

// Append256 appends 256 bits given as four little-endian 64-bit lanes (bit
// j of the block is lane j/64, bit j%64), as the VBP scan emits per segment.
func (v *Vector) Append256(lanes [4]uint64) {
	for _, l := range lanes {
		v.appendBits(l, 64)
	}
}

// Get returns bit i.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i>>6]>>(uint(i)&63)&1 == 1
}

// Set sets bit i to b.
func (v *Vector) Set(i int, b bool) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	if b {
		v.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Word32 returns the 32-bit block starting at bit i (i must be a multiple
// of 32). The column-first pipelined scan reads the previous predicate's
// result segment-by-segment through this.
//
//bsvet:hotloop
func (v *Vector) Word32(i int) uint32 {
	if i&31 != 0 {
		panic("bitvec: Word32 index not 32-bit aligned")
	}
	if i >= v.n {
		return 0
	}
	return uint32(v.words[i>>6] >> (uint(i) & 63))
}

// Words returns the vector's backing words: bit i is bit i%64 of word
// i/64. The pipelined scans and the masked aggregates walk a selection 64
// rows at a time through it. A caller that writes it must keep the bits
// past Len zero.
//
//bsvet:hotloop
func (v *Vector) Words() []uint64 { return v.words }

// Prefix returns a vector of v's first n bits that shares v's words, so
// writes through it land in v; a live view's base evaluation writes its
// result into the view-length vector this way. Writes through the prefix
// clear the bits of its last word past n, so v's later bits must be set
// after the prefix is written.
func (v *Vector) Prefix(n int) *Vector {
	if n < 0 || n > v.n {
		panic(fmt.Sprintf("bitvec: prefix of %d bits of a %d-bit vector", n, v.n))
	}
	return &Vector{words: v.words[:(n+63)/64], n: n}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And replaces v with v AND o. The vectors must have equal length.
func (v *Vector) And(o *Vector) {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// Or replaces v with v OR o. The vectors must have equal length.
func (v *Vector) Or(o *Vector) {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// AndNot replaces v with v AND NOT o. The vectors must have equal length.
func (v *Vector) AndNot(o *Vector) {
	v.sameLen(o)
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
}

// Not complements every record bit in place (tail bits stay zero).
func (v *Vector) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.clearTail()
}

// Fill sets every record bit.
func (v *Vector) Fill() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.clearTail()
}

// Clone returns an independent copy of v (append cursor included).
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	w.pos = v.pos
	return w
}

// Equal reports whether v and o have identical length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Positions appends the record numbers of all set bits to dst and returns
// it. This is the scan-to-lookup conversion step: the result bit vector
// becomes a list of record numbers.
func (v *Vector) Positions(dst []int32) []int32 {
	for wi, w := range v.words {
		base := int32(wi * 64)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

func (v *Vector) clearTail() {
	if tail := uint(v.n & 63); tail != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= 1<<tail - 1
	}
}

// SetWord32 overwrites the 32-bit block starting at bit i (i must be a
// multiple of 32), truncating bits past Len. It writes without the append
// cursor, so disjoint blocks can be filled concurrently — parallel scans
// give each worker an aligned range of segments.
//
//bsvet:hotloop
func (v *Vector) SetWord32(i int, w uint32) {
	if i&31 != 0 {
		panic("bitvec: SetWord32 index not 32-bit aligned")
	}
	if i >= v.n {
		return
	}
	if rem := v.n - i; rem < 32 {
		w &= 1<<uint(rem) - 1
	}
	word, off := i>>6, uint(i&63)
	v.words[word] = v.words[word]&^(uint64(0xFFFFFFFF)<<off) | uint64(w)<<off
}

// SetWord64 overwrites the aligned 64-bit word holding bits [i, i+64) (i
// must be a multiple of 64), truncating bits past Len. Like SetWord32 it
// bypasses the append cursor; the native scan kernels use it to store two
// 32-bit segment results with one plain write instead of two
// read-modify-writes.
//
//bsvet:hotloop
func (v *Vector) SetWord64(i int, w uint64) {
	if i&63 != 0 {
		panic("bitvec: SetWord64 index not 64-bit aligned")
	}
	if i >= v.n {
		return
	}
	if rem := v.n - i; rem < 64 {
		w &= 1<<uint(rem) - 1
	}
	v.words[i>>6] = w
}

// OrWord32 ORs w into the 32-bit block starting at bit i (i must be a
// multiple of 32), truncating bits past Len. Like SetWord32 it bypasses
// the append cursor; the native strict-compare scan uses it to patch
// deferred deep-slice results into already-stored segments.
//
//bsvet:hotloop
func (v *Vector) OrWord32(i int, w uint32) {
	if i&31 != 0 {
		panic("bitvec: OrWord32 index not 32-bit aligned")
	}
	if i >= v.n {
		return
	}
	if rem := v.n - i; rem < 32 {
		w &= 1<<uint(rem) - 1
	}
	v.words[i>>6] |= uint64(w) << (uint(i) & 63)
}

// OrAt ORs o into v at bit offset off: bit i of o lands on bit off+i, and
// o must fit (off+o.Len() ≤ v.Len()). It splices the result over one part
// of a table into the result over the whole — one shifted word per 64
// bits.
func (v *Vector) OrAt(o *Vector, off int) {
	if off < 0 || off+o.n > v.n {
		panic(fmt.Sprintf("bitvec: %d bits at offset %d overflow length %d", o.n, off, v.n))
	}
	w, s := off>>6, uint(off&63)
	for i, x := range o.words {
		v.words[w+i] |= x << s
		if s != 0 && w+i+1 < len(v.words) {
			v.words[w+i+1] |= x >> (64 - s)
		}
	}
}
