package simd

import "byteslice/internal/perf"

// SWAR masks, repeated per byte / 16-bit bank of a 64-bit lane.
const (
	hi8  = 0x8080808080808080
	lo8  = 0x0101010101010101
	hi16 = 0x8000800080008000
	lo16 = 0x0001000100010001
)

// Engine executes emulated vector instructions against a perf.Profile.
// Every exported method models exactly one retired instruction unless its
// documentation says otherwise. Engines are cheap to create and not safe
// for concurrent use.
type Engine struct {
	P *perf.Profile
}

// New returns an engine recording into the given profile.
func New(p *perf.Profile) *Engine { return &Engine{P: p} }

func (e *Engine) op() { e.P.C.SIMD++ }

// Load reads a 256-bit word from buf (first 32 bytes) located at the given
// simulated address. One instruction plus a cache access.
func (e *Engine) Load(buf []byte, addr uint64) Vec {
	e.op()
	e.P.Touch(addr, Bytes)
	return FromBytes(buf)
}

// Broadcast8 fills every byte bank with x (vpbroadcastb).
func (e *Engine) Broadcast8(x byte) Vec {
	e.op()
	l := uint64(x) * lo8
	return Vec{l, l, l, l}
}

// Broadcast16 fills every 16-bit bank with x (vpbroadcastw).
func (e *Engine) Broadcast16(x uint16) Vec {
	e.op()
	l := uint64(x) * lo16
	return Vec{l, l, l, l}
}

// Broadcast32 fills every 32-bit bank with x (vpbroadcastd).
func (e *Engine) Broadcast32(x uint32) Vec {
	e.op()
	l := uint64(x)<<32 | uint64(x)
	return Vec{l, l, l, l}
}

// Broadcast64 fills every 64-bit bank with x (vpbroadcastq).
func (e *Engine) Broadcast64(x uint64) Vec {
	e.op()
	return Vec{x, x, x, x}
}

// And is the bitwise AND of two registers (vpand).
func (e *Engine) And(a, b Vec) Vec {
	e.op()
	return Vec{a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]}
}

// Or is the bitwise OR of two registers (vpor).
func (e *Engine) Or(a, b Vec) Vec {
	e.op()
	return Vec{a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]}
}

// Xor is the bitwise XOR of two registers (vpxor).
func (e *Engine) Xor(a, b Vec) Vec {
	e.op()
	return Vec{a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]}
}

// AndNot computes (NOT a) AND b, matching vpandn's operand order.
func (e *Engine) AndNot(a, b Vec) Vec {
	e.op()
	return Vec{^a[0] & b[0], ^a[1] & b[1], ^a[2] & b[2], ^a[3] & b[3]}
}

// Not is the bitwise complement. AVX2 spells this vpxor with all-ones; it
// costs one instruction either way.
func (e *Engine) Not(a Vec) Vec {
	e.op()
	return Vec{^a[0], ^a[1], ^a[2], ^a[3]}
}

// Add64 adds 64-bit banks pairwise (vpaddq). Carries do not cross banks.
func (e *Engine) Add64(a, b Vec) Vec {
	e.op()
	return Vec{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]}
}

// Sub64 subtracts 64-bit banks pairwise (vpsubq).
func (e *Engine) Sub64(a, b Vec) Vec {
	e.op()
	return Vec{a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]}
}

// ShlI64 shifts every 64-bit bank left by n bits (vpsllq immediate).
func (e *Engine) ShlI64(a Vec, n uint) Vec {
	e.op()
	if n >= 64 {
		return Zero()
	}
	return Vec{a[0] << n, a[1] << n, a[2] << n, a[3] << n}
}

// ShrI64 shifts every 64-bit bank right (logically) by n bits (vpsrlq).
func (e *Engine) ShrI64(a Vec, n uint) Vec {
	e.op()
	if n >= 64 {
		return Zero()
	}
	return Vec{a[0] >> n, a[1] >> n, a[2] >> n, a[3] >> n}
}

// ShrV32 shifts each 32-bit bank of a right by the count in the matching
// bank of c (vpsrlvd). Counts ≥ 32 yield zero, as on hardware.
func (e *Engine) ShrV32(a, c Vec) Vec {
	e.op()
	var r Vec
	for i := 0; i < 8; i++ {
		n := c.U32(i)
		if n < 32 {
			r = r.SetU32(i, a.U32(i)>>n)
		}
	}
	return r
}

// ShrV64 shifts each 64-bit bank of a right by the count in the matching
// bank of c (vpsrlvq).
func (e *Engine) ShrV64(a, c Vec) Vec {
	e.op()
	var r Vec
	for i := 0; i < 4; i++ {
		if n := c[i]; n < 64 {
			r[i] = a[i] >> n
		}
	}
	return r
}

// cmpEq8Lane returns 0xFF in every byte of the lane where a and b agree.
func cmpEq8Lane(a, b uint64) uint64 {
	x := a ^ b
	t := (x &^ uint64(hi8)) + ^uint64(hi8) | x // high bit set iff byte non-zero
	return (^t & hi8) >> 7 * 0xFF
}

// cmpLtU8Lane returns 0xFF in every byte of the lane where a < b unsigned.
func cmpLtU8Lane(a, b uint64) uint64 {
	// Per byte with a = a7·128+al, b = b7·128+bl:
	//   a < b  ⟺  (¬a7 ∧ b7) ∨ ((a7 = b7) ∧ al < bl).
	// s computes al+128−bl per byte without cross-byte borrows, so its
	// high bit is al ≥ bl.
	s := (a&^uint64(hi8) | hi8) - b&^uint64(hi8)
	lt := ((^a & b) | (^(a ^ b) &^ s)) & hi8
	return lt >> 7 * 0xFF
}

// CmpEq8 compares byte banks for equality, producing 0xFF/0x00 masks
// (vpcmpeqb).
func (e *Engine) CmpEq8(a, b Vec) Vec {
	e.op()
	return Vec{cmpEq8Lane(a[0], b[0]), cmpEq8Lane(a[1], b[1]), cmpEq8Lane(a[2], b[2]), cmpEq8Lane(a[3], b[3])}
}

// CmpLtU8 compares byte banks for unsigned less-than.
func (e *Engine) CmpLtU8(a, b Vec) Vec {
	e.op()
	return Vec{cmpLtU8Lane(a[0], b[0]), cmpLtU8Lane(a[1], b[1]), cmpLtU8Lane(a[2], b[2]), cmpLtU8Lane(a[3], b[3])}
}

// CmpGtU8 compares byte banks for unsigned greater-than.
func (e *Engine) CmpGtU8(a, b Vec) Vec {
	e.op()
	return Vec{cmpLtU8Lane(b[0], a[0]), cmpLtU8Lane(b[1], a[1]), cmpLtU8Lane(b[2], a[2]), cmpLtU8Lane(b[3], a[3])}
}

func cmpEq16Lane(a, b uint64) uint64 {
	x := a ^ b
	t := (x &^ uint64(hi16)) + ^uint64(hi16) | x
	return (^t & hi16) >> 15 * 0xFFFF
}

func cmpLtU16Lane(a, b uint64) uint64 {
	s := (a&^uint64(hi16) | hi16) - b&^uint64(hi16)
	lt := ((^a & b) | (^(a ^ b) &^ s)) & hi16
	return lt >> 15 * 0xFFFF
}

// CmpEq16 compares 16-bit banks for equality (vpcmpeqw).
func (e *Engine) CmpEq16(a, b Vec) Vec {
	e.op()
	return Vec{cmpEq16Lane(a[0], b[0]), cmpEq16Lane(a[1], b[1]), cmpEq16Lane(a[2], b[2]), cmpEq16Lane(a[3], b[3])}
}

// CmpLtU16 compares 16-bit banks for unsigned less-than.
func (e *Engine) CmpLtU16(a, b Vec) Vec {
	e.op()
	return Vec{cmpLtU16Lane(a[0], b[0]), cmpLtU16Lane(a[1], b[1]), cmpLtU16Lane(a[2], b[2]), cmpLtU16Lane(a[3], b[3])}
}

// CmpGtU16 compares 16-bit banks for unsigned greater-than.
func (e *Engine) CmpGtU16(a, b Vec) Vec {
	e.op()
	return Vec{cmpLtU16Lane(b[0], a[0]), cmpLtU16Lane(b[1], a[1]), cmpLtU16Lane(b[2], a[2]), cmpLtU16Lane(b[3], a[3])}
}

func boolMask32(b bool) uint32 {
	if b {
		return ^uint32(0)
	}
	return 0
}

func boolMask64(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}

// CmpEq32 compares 32-bit banks for equality (vpcmpeqd).
func (e *Engine) CmpEq32(a, b Vec) Vec {
	e.op()
	var r Vec
	for i := 0; i < 8; i++ {
		r = r.SetU32(i, boolMask32(a.U32(i) == b.U32(i)))
	}
	return r
}

// CmpGtU32 compares 32-bit banks for unsigned greater-than.
func (e *Engine) CmpGtU32(a, b Vec) Vec {
	e.op()
	var r Vec
	for i := 0; i < 8; i++ {
		r = r.SetU32(i, boolMask32(a.U32(i) > b.U32(i)))
	}
	return r
}

// CmpLtU32 compares 32-bit banks for unsigned less-than.
func (e *Engine) CmpLtU32(a, b Vec) Vec {
	e.op()
	var r Vec
	for i := 0; i < 8; i++ {
		r = r.SetU32(i, boolMask32(a.U32(i) < b.U32(i)))
	}
	return r
}

// CmpEq64 compares 64-bit banks for equality (vpcmpeqq).
func (e *Engine) CmpEq64(a, b Vec) Vec {
	e.op()
	return Vec{boolMask64(a[0] == b[0]), boolMask64(a[1] == b[1]), boolMask64(a[2] == b[2]), boolMask64(a[3] == b[3])}
}

// CmpGtU64 compares 64-bit banks for unsigned greater-than.
func (e *Engine) CmpGtU64(a, b Vec) Vec {
	e.op()
	return Vec{boolMask64(a[0] > b[0]), boolMask64(a[1] > b[1]), boolMask64(a[2] > b[2]), boolMask64(a[3] > b[3])}
}

// CmpLtU64 compares 64-bit banks for unsigned less-than.
func (e *Engine) CmpLtU64(a, b Vec) Vec {
	e.op()
	return Vec{boolMask64(a[0] < b[0]), boolMask64(a[1] < b[1]), boolMask64(a[2] < b[2]), boolMask64(a[3] < b[3])}
}

// Shuffle permutes bytes of a by the low five bits of each index byte; an
// index byte with its high bit set yields zero. This models the vpshufb +
// cross-lane-permute pair and is charged as two instructions (see the
// package comment).
func (e *Engine) Shuffle(a, idx Vec) Vec {
	e.op()
	e.op()
	var r Vec
	for i := 0; i < Bytes; i++ {
		ix := idx.Byte(i)
		if ix&0x80 == 0 {
			r = r.SetByte(i, a.Byte(int(ix&31)))
		}
	}
	return r
}

// movemask8Lane gathers the high bit of each byte of the lane into 8 bits.
func movemask8Lane(x uint64) uint32 {
	return uint32((x & hi8) >> 7 * 0x0102040810204080 >> 56)
}

// Movemask8 gathers the most significant bit of each byte bank into a
// 32-bit mask, bit i ← byte i (vpmovmskb).
func (e *Engine) Movemask8(a Vec) uint32 {
	e.op()
	return movemask8Lane(a[0]) | movemask8Lane(a[1])<<8 | movemask8Lane(a[2])<<16 | movemask8Lane(a[3])<<24
}

// Movemask16 gathers the most significant bit of each 16-bit bank into a
// 16-bit mask. AVX2 spells this vpmovmskb plus a shift-free bit-extract; it
// is charged as one instruction.
func (e *Engine) Movemask16(a Vec) uint16 {
	e.op()
	var m uint16
	for i := 0; i < 16; i++ {
		m |= uint16(a.U16(i)>>15) << i
	}
	return m
}

// Movemask32 gathers the most significant bit of each 32-bit bank into an
// 8-bit mask (vmovmskps).
func (e *Engine) Movemask32(a Vec) uint8 {
	e.op()
	var m uint8
	for i := 0; i < 8; i++ {
		m |= uint8(a.U32(i)>>31) << i
	}
	return m
}

// Movemask64 gathers the most significant bit of each 64-bit bank into a
// 4-bit mask (vmovmskpd).
func (e *Engine) Movemask64(a Vec) uint8 {
	e.op()
	return uint8(a[0]>>63) | uint8(a[1]>>63)<<1 | uint8(a[2]>>63)<<2 | uint8(a[3]>>63)<<3
}

// TestZero reports whether the register is all zeroes (vptest). The
// consuming conditional branch is counted separately via perf.Profile.Branch.
func (e *Engine) TestZero(a Vec) bool {
	e.op()
	return a.IsZero()
}

// Scalar charges n modelled scalar ALU instructions (shifts, masks, adds in
// lookup stitching and result handling).
func (e *Engine) Scalar(n int) { e.P.C.Scalar += uint64(n) }

// ScalarLoad charges one scalar load instruction reading size bytes at the
// simulated address.
func (e *Engine) ScalarLoad(addr, size uint64) {
	e.P.C.Scalar++
	e.P.Touch(addr, size)
}

// ScalarLoadGroup charges one scalar load instruction per span and records
// the accesses as independent (overlappable) — the memory-level-
// parallelism model for lookups whose addresses are all computed upfront.
func (e *Engine) ScalarLoadGroup(spans []perf.Span) {
	e.P.C.Scalar += uint64(len(spans))
	e.P.TouchGroup(spans)
}

// ScalarLoadGroupWindowed is ScalarLoadGroup with the overlap additionally
// limited to window consecutive loads (long dependent merge loops).
func (e *Engine) ScalarLoadGroupWindowed(spans []perf.Span, window int) {
	e.P.C.Scalar += uint64(len(spans))
	e.P.TouchGroupWindowed(spans, window)
}

// minU8Lane returns the per-byte unsigned minimum of two lanes.
func minU8Lane(a, b uint64) uint64 {
	lt := cmpLtU8Lane(a, b)
	return a&lt | b&^lt
}

// MinU8 computes the per-byte unsigned minimum (vpminub).
func (e *Engine) MinU8(a, b Vec) Vec {
	e.op()
	return Vec{minU8Lane(a[0], b[0]), minU8Lane(a[1], b[1]), minU8Lane(a[2], b[2]), minU8Lane(a[3], b[3])}
}

// MaxU8 computes the per-byte unsigned maximum (vpmaxub).
func (e *Engine) MaxU8(a, b Vec) Vec {
	e.op()
	return Vec{a[0]&^cmpLtU8Lane(a[0], b[0]) | b[0]&cmpLtU8Lane(a[0], b[0]),
		a[1]&^cmpLtU8Lane(a[1], b[1]) | b[1]&cmpLtU8Lane(a[1], b[1]),
		a[2]&^cmpLtU8Lane(a[2], b[2]) | b[2]&cmpLtU8Lane(a[2], b[2]),
		a[3]&^cmpLtU8Lane(a[3], b[3]) | b[3]&cmpLtU8Lane(a[3], b[3])}
}

// sad8Lane sums the eight bytes of a lane into its low 16 bits.
func sad8Lane(x uint64) uint64 {
	// Pairwise widen and add: bytes → 16-bit pairs → 32-bit → 64-bit.
	s := x&0x00FF00FF00FF00FF + x>>8&0x00FF00FF00FF00FF
	s = s&0x0000FFFF0000FFFF + s>>16&0x0000FFFF0000FFFF
	return s&0xFFFFFFFF + s>>32
}

// Sad8 sums the bytes of each 64-bit bank into that bank (vpsadbw against
// zero) — the horizontal byte accumulator SIMD aggregation builds on.
func (e *Engine) Sad8(a Vec) Vec {
	e.op()
	return Vec{sad8Lane(a[0]), sad8Lane(a[1]), sad8Lane(a[2]), sad8Lane(a[3])}
}
