// Package compress implements the compressed ByteSlice column layout:
// frame-of-reference + delta encoding over 512-code blocks with a
// Stream-VByte-style byte layout — all control bytes of a block first
// (2 bits per code giving the value's byte length), then the value bytes,
// so decode is a branch-free control-byte walk over two forward streams.
//
// Each block additionally stores its exact code-domain min and max, which
// doubles as a zone map with exact (not first-byte) resolution: a scan
// prunes a whole 512-code block from 8 bytes of metadata, and only
// undecided blocks are decoded. Blocks whose values all fit one byte
// under frame of reference are marked uniform; the scan kernels compare
// those 512 bytes directly in SWAR registers without decoding at all.
//
// The package exposes the column both as raw arrays for the fused native
// kernels in internal/kernel and as a layout.Layout for the modelled
// engine path, and NewBuilder applies the planner's bytes-moved model
// (plan.CompressedWins) to decide per column whether compression pays,
// falling back to the raw ByteSlice layout when it does not.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"byteslice/internal/bitvec"
	"byteslice/internal/cache"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/plan"
	"byteslice/internal/simd"
)

const (
	// BlockCodes is the number of codes per compressed block. A block is
	// 16 ByteSlice segments and exactly 8 aligned result-vector words, so
	// any block partition is word-aligned for concurrent writers.
	BlockCodes = 512
	// BlockSegments is BlockCodes / core.SegmentSize.
	BlockSegments = BlockCodes / core.SegmentSize
	// CtlBlockBytes is the control-stream size per block: 2 bits per code.
	CtlBlockBytes = BlockCodes / 4
	ctlBytes      = CtlBlockBytes
	// dataSlack pads the data stream so a decoder can always issue one
	// unconditional 4-byte load per value, masking to the real length.
	dataSlack = 4
)

// Name is the layout name the compressed column registers and persists
// under.
const Name = "ByteSliceC"

// LenMask truncates an unconditional 4-byte little-endian load to a
// value's real byte length.
var LenMask = [5]uint32{0, 0xFF, 0xFFFF, 0xFFFFFF, ^uint32(0)}

// lenSums[c] is the total byte length of the 4 values governed by control
// byte c (each 2-bit field stores length-1).
var lenSums = func() (t [256]uint16) {
	for c := 0; c < 256; c++ {
		t[c] = uint16(c&3 + c>>2&3 + c>>4&3 + c>>6&3 + 4)
	}
	return
}()

// Column is an immutable compressed column of n k-bit codes.
type Column struct {
	k, n int

	ctl     []byte   // nblocks × ctlBytes control bytes
	data    []byte   // value bytes, little-endian, + dataSlack slack
	dataOff []uint32 // per-block start into data; nblocks+1 entries
	refs    []uint32 // per-block decode base (FOR reference / delta start)
	mins    []uint32 // per-block exact min code over real rows
	maxs    []uint32 // per-block exact max code over real rows
	modes   []byte   // bit 0 delta; bits 1..3 uniform byte length (0 mixed)

	ctlAddr, dataAddr uint64 // simulated addresses for the modelled path
}

const modeDelta = 1

// New builds the compressed column unconditionally (no planner decision),
// registering its streams with the arena for the cache model.
func New(codes []uint32, k int, arena *cache.Arena) *Column {
	c := build(codes, k)
	c.Register(arena)
	return c
}

// NewBuilder is a layout.Builder: it builds the compressed column and
// keeps it only when the planner's bytes-moved model says the compressed
// scan is cheaper than the raw one; otherwise the raw ByteSlice layout is
// returned. The decision is a pure function of the codes and width, so a
// persisted column rebuilds to the same layout it was saved from.
func NewBuilder(codes []uint32, k int, arena *cache.Arena) layout.Layout {
	c := build(codes, k)
	if !c.Wins() {
		return core.New(codes, k, arena)
	}
	c.Register(arena)
	return c
}

// build encodes codes into blocks. Each block is delta-encoded when its
// codes are non-decreasing (ref = first code, values are the gaps) and
// frame-of-reference otherwise (ref = block min, values are offsets); the
// tail block is padded to BlockCodes with zero values, which decode to
// the last real code (delta) or the reference (FOR) and are truncated by
// the result vector on scan.
func build(codes []uint32, k int) *Column {
	layout.CheckArgs(codes, k)
	n := len(codes)
	nblocks := (n + BlockCodes - 1) / BlockCodes
	c := &Column{
		k:       k,
		n:       n,
		ctl:     make([]byte, nblocks*ctlBytes),
		dataOff: make([]uint32, nblocks+1),
		refs:    make([]uint32, nblocks),
		mins:    make([]uint32, nblocks),
		maxs:    make([]uint32, nblocks),
		modes:   make([]byte, nblocks),
	}
	c.data = make([]byte, 0, n+n/8+dataSlack)
	var vals [BlockCodes]uint32
	for b := 0; b < nblocks; b++ {
		lo := b * BlockCodes
		hi := lo + BlockCodes
		if hi > n {
			hi = n
		}
		view := codes[lo:hi]
		mn, mx := view[0], view[0]
		sorted := true
		for i, v := range view {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			if i > 0 && v < view[i-1] {
				sorted = false
			}
		}
		c.mins[b], c.maxs[b] = mn, mx
		ref := mn
		if sorted {
			ref = view[0]
			prev := ref
			for i, v := range view {
				vals[i] = v - prev
				prev = v
			}
		} else {
			for i, v := range view {
				vals[i] = v - ref
			}
		}
		for i := len(view); i < BlockCodes; i++ {
			vals[i] = 0
		}
		c.refs[b] = ref

		ulen := byteLen(vals[0])
		uniform := true
		ctl := c.ctl[b*ctlBytes : (b+1)*ctlBytes]
		var lenBuf [4]byte
		for i, v := range vals {
			l := byteLen(v)
			if l != ulen {
				uniform = false
			}
			ctl[i>>2] |= byte(l-1) << uint((i&3)*2)
			binary.LittleEndian.PutUint32(lenBuf[:], v)
			c.data = append(c.data, lenBuf[:l]...)
		}
		mode := byte(0)
		if sorted {
			mode |= modeDelta
		}
		if uniform {
			mode |= byte(ulen) << 1
		}
		c.modes[b] = mode
		c.dataOff[b+1] = uint32(len(c.data))
	}
	var slack [dataSlack]byte
	c.data = append(c.data, slack[:]...)
	return c
}

func byteLen(v uint32) int {
	l := (bits.Len32(v) + 7) >> 3
	if l == 0 {
		l = 1
	}
	return l
}

// Streams are a compressed column's stored parts: the control and data
// streams, the per-block references and the per-block mode bytes. A
// snapshot writes them and Adopt takes them back. The block offsets and
// exact block bounds are not among them: the decode pass that checks a
// stored column rebuilds them.
type Streams struct {
	Ctl   []byte   // Blocks()×CtlBlockBytes control bytes
	Data  []byte   // value bytes and the dataSlack zero bytes after them
	Refs  []uint32 // per-block decode base
	Modes []byte   // per-block mode byte
}

// Streams returns the column's stored parts. They alias the column and
// must not be written.
func (c *Column) Streams() Streams {
	return Streams{Ctl: c.ctl, Data: c.data, Refs: c.refs, Modes: c.modes}
}

// Adopt wraps stored streams as a column of n k-bit codes without copying
// them, once one decode pass per block has checked that they are exactly
// the streams build writes for the codes they decode to: each value in
// its minimal byte length, the tail block's padding values zero, the
// reference and the mode byte as build chooses them, every code inside
// the 2^k domain, and the control lengths summing to the data stream,
// whose slack bytes are zero. The same pass rebuilds the block offsets
// and exact block bounds. Nobody may write the streams afterwards; call
// Register to give the column its simulated addresses.
func Adopt(s Streams, k, n int) (*Column, error) {
	if k < 1 || k > 32 || n < 0 {
		return nil, fmt.Errorf("compress: %d codes of width %d", n, k)
	}
	nblocks := (n + BlockCodes - 1) / BlockCodes
	if len(s.Ctl) != nblocks*ctlBytes || len(s.Refs) != nblocks || len(s.Modes) != nblocks {
		return nil, fmt.Errorf("compress: %d control bytes, %d references and %d modes for %d blocks",
			len(s.Ctl), len(s.Refs), len(s.Modes), nblocks)
	}
	end := len(s.Data) - dataSlack
	if end < 0 || uint64(end) > math.MaxUint32 {
		return nil, fmt.Errorf("compress: a data stream of %d bytes", len(s.Data))
	}
	for _, v := range s.Data[end:] {
		if v != 0 {
			return nil, errors.New("compress: non-zero data slack")
		}
	}
	c := &Column{
		k:       k,
		n:       n,
		ctl:     s.Ctl,
		data:    s.Data,
		dataOff: make([]uint32, nblocks+1),
		refs:    s.Refs,
		mins:    make([]uint32, nblocks),
		maxs:    make([]uint32, nblocks),
		modes:   s.Modes,
	}
	for b := 0; b < nblocks; b++ {
		if err := c.adoptBlock(b, end); err != nil {
			return nil, fmt.Errorf("compress: block %d: %w", b, err)
		}
	}
	if got := int(c.dataOff[nblocks]); got != end {
		return nil, fmt.Errorf("compress: control lengths sum to %d data bytes, the stream holds %d", got, end)
	}
	return c, nil
}

// adoptBlock checks block b of an adopted column against build's
// encoding (see Adopt) in one decode pass, and records where its data
// ends and its exact bounds. The blocks before b are checked, so
// dataOff[b] holds where its data starts; end is the data length before
// the slack.
func (c *Column) adoptBlock(b, end int) error {
	ctl := c.ctl[b*ctlBytes : (b+1)*ctlBytes]
	ref, mode := uint64(c.refs[b]), c.modes[b]
	delta := ModeDelta(mode)
	if ModeUniformLen(mode) == 1 {
		return c.adoptUniform1(b, end, delta)
	}
	rows := c.BlockRows(b)
	limit := uint64(1) << uint(c.k)
	p := int(c.dataOff[b])
	running, prev := ref, uint64(0)
	mn, mx := uint64(math.MaxUint64), uint64(0)
	minVal, first := uint32(math.MaxUint32), uint32(0)
	ulen, uniform, sorted := 0, true, true
	for i := 0; i < BlockCodes; i++ {
		l := int(ctl[i>>2]>>uint((i&3)*2))&3 + 1
		if p+l > end {
			return errors.New("control lengths overrun the data stream")
		}
		v := binary.LittleEndian.Uint32(c.data[p:]) & LenMask[l]
		p += l
		if l > 1 && v>>uint(8*(l-1)) == 0 {
			return fmt.Errorf("value %d stored in %d bytes", v, l)
		}
		if i == 0 {
			ulen, first = l, v
		} else if l != ulen {
			uniform = false
		}
		if i >= rows {
			if v != 0 {
				return errors.New("non-zero padding value")
			}
			continue
		}
		code := ref + uint64(v)
		if delta {
			running += uint64(v)
			code = running
		}
		if code >= limit {
			return fmt.Errorf("code %d outside the %d-bit domain", code, c.k)
		}
		if code < prev {
			sorted = false
		}
		prev = code
		minVal = min(minVal, v)
		mn, mx = min(mn, code), max(mx, code)
	}
	want := mode & modeDelta
	if uniform {
		want |= byte(ulen) << 1
	}
	switch {
	case mode != want:
		return fmt.Errorf("mode byte %#x, want %#x", mode, want)
	case delta && first != 0:
		return errors.New("a delta block's first gap is not 0")
	case !delta && minVal != 0:
		return errors.New("a frame-of-reference block's reference is not its minimum")
	case !delta && sorted:
		return errors.New("a frame-of-reference block of non-decreasing codes")
	}
	c.dataOff[b+1] = uint32(p)
	c.mins[b], c.maxs[b] = uint32(mn), uint32(mx)
	return nil
}

// adoptUniform1 is adoptBlock for a block whose mode byte marks uniform
// one-byte values, the form build gives most sorted and clustered
// blocks: every control field must say one byte, and the values are the
// block's BlockCodes data bytes, checked and bounded without a control
// walk.
func (c *Column) adoptUniform1(b, end int, delta bool) error {
	ctl := c.ctl[b*ctlBytes : (b+1)*ctlBytes]
	for i := 0; i < ctlBytes; i += 8 {
		if binary.LittleEndian.Uint64(ctl[i:]) != 0 {
			return errors.New("a uniform one-byte block's control bytes give a longer value")
		}
	}
	p := int(c.dataOff[b])
	if p+BlockCodes > end {
		return errors.New("control lengths overrun the data stream")
	}
	vals := c.data[p : p+BlockCodes]
	rows := c.BlockRows(b)
	for _, v := range vals[rows:] {
		if v != 0 {
			return errors.New("non-zero padding value")
		}
	}
	ref := uint64(c.refs[b])
	var hi uint64
	if delta {
		if vals[0] != 0 {
			return errors.New("a delta block's first gap is not 0")
		}
		hi = ref + uint64(sumBytes(vals, rows))
	} else {
		mn, mx, sorted := vals[0], vals[0], true
		for i := 1; i < rows; i++ {
			v := vals[i]
			mn, mx = min(mn, v), max(mx, v)
			if v < vals[i-1] {
				sorted = false
			}
		}
		switch {
		case mn != 0:
			return errors.New("a frame-of-reference block's reference is not its minimum")
		case sorted:
			return errors.New("a frame-of-reference block of non-decreasing codes")
		}
		hi = ref + uint64(mx)
	}
	if hi >= uint64(1)<<uint(c.k) {
		return fmt.Errorf("code %d outside the %d-bit domain", hi, c.k)
	}
	c.dataOff[b+1] = uint32(p + BlockCodes)
	c.mins[b], c.maxs[b] = uint32(ref), uint32(hi)
	return nil
}

// Register assigns the control and data streams their simulated
// addresses, in that order, as New does; a nil arena leaves them zero.
func (c *Column) Register(arena *cache.Arena) {
	if arena != nil {
		c.ctlAddr = arena.Alloc(uint64(len(c.ctl)))
		c.dataAddr = arena.Alloc(uint64(len(c.data)))
	}
}

// Name implements layout.Layout.
func (c *Column) Name() string { return Name }

// Width implements layout.Layout.
func (c *Column) Width() int { return c.k }

// Len implements layout.Layout.
func (c *Column) Len() int { return c.n }

// SizeBytes implements layout.Layout: the footprint of both streams plus
// the per-block metadata.
func (c *Column) SizeBytes() uint64 {
	return uint64(len(c.ctl)) + uint64(len(c.data)) +
		4*uint64(len(c.dataOff)+len(c.refs)+len(c.mins)+len(c.maxs)) +
		uint64(len(c.modes))
}

// Blocks returns the number of 512-code blocks.
func (c *Column) Blocks() int { return len(c.refs) }

// Segments returns the number of 32-code segments, matching the raw
// layout's segment count for the same column.
func (c *Column) Segments() int { return (c.n + core.SegmentSize - 1) / core.SegmentSize }

// NumSlices returns how many byte slices the raw layout would use — the
// decode scratch width of the fused kernels.
func (c *Column) NumSlices() int { return (c.k + 7) / 8 }

// Raw array accessors for the fused kernels in internal/kernel; the
// returned slices alias the column and must not be written.

// Ctl returns the control stream: Blocks()×128 bytes, 2 bits per code.
func (c *Column) Ctl() []byte { return c.ctl }

// Data returns the value stream (with 4 slack bytes at the end so block
// decoders can issue unconditional 4-byte loads).
func (c *Column) Data() []byte { return c.data }

// DataOffs returns the per-block start offsets into Data (Blocks()+1
// entries; the last is the stream length before slack).
func (c *Column) DataOffs() []uint32 { return c.dataOff }

// Refs returns the per-block decode base.
func (c *Column) Refs() []uint32 { return c.refs }

// Mins returns the per-block exact minimum code (real rows only).
func (c *Column) Mins() []uint32 { return c.mins }

// Maxs returns the per-block exact maximum code (real rows only).
func (c *Column) Maxs() []uint32 { return c.maxs }

// Modes returns the per-block mode bytes; see BlockDelta/BlockUniformLen.
func (c *Column) Modes() []byte { return c.modes }

// BlockDelta reports whether block b is delta-encoded.
//
//bsvet:hotloop
func (c *Column) BlockDelta(b int) bool { return c.modes[b]&modeDelta != 0 }

// BlockUniformLen returns the uniform value byte length of block b, or 0
// when the block mixes lengths.
//
//bsvet:hotloop
func (c *Column) BlockUniformLen(b int) int { return int(c.modes[b] >> 1) }

// ModeDelta reports whether a mode byte marks a delta block.
//
//bsvet:hotloop
func ModeDelta(m byte) bool { return m&modeDelta != 0 }

// ModeUniformLen extracts the uniform byte length of a mode byte (0 when
// mixed).
//
//bsvet:hotloop
func ModeUniformLen(m byte) int { return int(m >> 1) }

// BlockRows returns the number of real rows in block b.
//
//bsvet:hotloop
func (c *Column) BlockRows(b int) int {
	rows := c.n - b*BlockCodes
	if rows > BlockCodes {
		rows = BlockCodes
	}
	return rows
}

// BlockBytes returns the control and data stream bytes of block b, what
// a decode of it reads.
func (c *Column) BlockBytes(b int) int {
	return ctlBytes + int(c.dataOff[b+1]-c.dataOff[b])
}

// DecodeBlock reconstructs all BlockCodes codes of block b into out
// (padding rows decode to the reference or last real code) and returns
// the number of real rows. A uniform block needs no control walk: a FOR
// block adds each value to the reference, a delta block is a plain
// prefix sum of its gaps.
//
//bsvet:hotloop
func (c *Column) DecodeBlock(b int, out *[BlockCodes]uint32) int {
	ctl := c.ctl[b*ctlBytes : (b+1)*ctlBytes]
	data := c.data[c.dataOff[b]:]
	ref := c.refs[b]
	delta := c.BlockDelta(b)
	if l := c.BlockUniformLen(b); l != 0 {
		mask := LenMask[l]
		p := 0
		if delta {
			running := ref
			for i := range out {
				running += binary.LittleEndian.Uint32(data[p:]) & mask
				out[i] = running
				p += l
			}
			return c.BlockRows(b)
		}
		for i := range out {
			out[i] = ref + binary.LittleEndian.Uint32(data[p:])&mask
			p += l
		}
		return c.BlockRows(b)
	}
	running := ref
	p := 0
	for i := range out {
		l := int(ctl[i>>2]>>uint((i&3)*2))&3 + 1
		v := binary.LittleEndian.Uint32(data[p:]) & LenMask[l]
		p += l
		if delta {
			running += v
			out[i] = running
		} else {
			out[i] = ref + v
		}
	}
	return c.BlockRows(b)
}

// Select returns the code at position r of block b without decoding the
// block, and the stream bytes it read: a uniform FOR block loads one
// value; a mixed FOR block sums the lengths of the ⌊r/4⌋ control bytes
// before the value's and loads it; a uniform delta block sums its first
// r+1 gaps eight bytes per word add; a mixed delta block replays its
// control walk to r. (A delta block is uniform only at one byte: its
// first gap is 0.)
//
//bsvet:hotloop
func (c *Column) Select(b, r int) (code uint32, touched int) {
	code, p, l := c.locate(b, r)
	mode := c.modes[b]
	if ModeUniformLen(mode) == 0 {
		touched = r>>2 + 1
	}
	if ModeDelta(mode) {
		return code, touched + p + l
	}
	return code, touched + l
}

// locate reads position r of block b as Select does, returning the code
// and its value's byte offset and length within the block's data.
//
//bsvet:hotloop
func (c *Column) locate(b, r int) (code uint32, p, l int) {
	ctl := c.ctl[b*ctlBytes : (b+1)*ctlBytes]
	data := c.data[c.dataOff[b]:]
	ref, mode := c.refs[b], c.modes[b]
	l = ModeUniformLen(mode)
	if ModeDelta(mode) {
		if l == 1 {
			return ref + sumBytes(data, r+1), r, 1
		}
		running := ref
		for j := 0; j <= r; j++ {
			l = int(ctl[j>>2]>>uint((j&3)*2))&3 + 1
			running += binary.LittleEndian.Uint32(data[p:]) & LenMask[l]
			p += l
		}
		return running, p - l, l
	}
	if l != 0 {
		p = r * l
		return ref + binary.LittleEndian.Uint32(data[p:])&LenMask[l], p, l
	}
	for j := 0; j < r>>2; j++ {
		p += int(lenSums[ctl[j]])
	}
	for j := r &^ 3; j < r; j++ {
		p += int(ctl[j>>2]>>uint((j&3)*2))&3 + 1
	}
	l = int(ctl[r>>2]>>uint((r&3)*2))&3 + 1
	return ref + binary.LittleEndian.Uint32(data[p:])&LenMask[l], p, l
}

// sumBytes returns the sum of data[:n], n at most a uniform one-byte
// block's 512 data bytes, eight bytes per word add: each word's bytes
// split into two sets of 16-bit lanes, which hold the sums of a block's
// 64 words without carrying into each other. The last, partial word is
// masked to its n%8 bytes; its load stays inside the block.
//
//bsvet:hotloop
func sumBytes(data []byte, n int) uint32 {
	const lanes = 0x00FF00FF00FF00FF
	var acc uint64
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		acc += w&lanes + w>>8&lanes
	}
	if rem := n - i; rem > 0 {
		w := binary.LittleEndian.Uint64(data[i:]) & (1<<uint(8*rem) - 1)
		acc += w&lanes + w>>8&lanes
	}
	acc = acc&0x0000FFFF0000FFFF + acc>>16&0x0000FFFF0000FFFF
	return uint32(acc) + uint32(acc>>32)
}

// ZoneDecide classifies a block against a predicate from its exact code
// bounds: +1 every row matches, -1 no row matches, 0 undecided. Unlike
// the raw layout's first-byte zone maps this is exact, so "undecided"
// always means the block genuinely straddles the constant.
//
//bsvet:hotloop
func ZoneDecide(op layout.Op, mn, mx, c1, c2 uint32) int {
	switch op {
	case layout.Lt:
		if mx < c1 {
			return 1
		}
		if mn >= c1 {
			return -1
		}
	case layout.Le:
		if mx <= c1 {
			return 1
		}
		if mn > c1 {
			return -1
		}
	case layout.Gt:
		if mn > c1 {
			return 1
		}
		if mx <= c1 {
			return -1
		}
	case layout.Ge:
		if mn >= c1 {
			return 1
		}
		if mx < c1 {
			return -1
		}
	case layout.Eq:
		if mn == mx && mn == c1 {
			return 1
		}
		if c1 < mn || c1 > mx {
			return -1
		}
	case layout.Ne:
		if c1 < mn || c1 > mx {
			return 1
		}
		if mn == mx && mn == c1 {
			return -1
		}
	case layout.Between:
		if mn >= c1 && mx <= c2 {
			return 1
		}
		if mx < c1 || mn > c2 {
			return -1
		}
	}
	return 0
}

// Scan implements layout.Layout on the modelled engine: blocks decode
// through the same control-byte walk as the native kernels, charging the
// engine per value load, and the predicate evaluates per code.
func (c *Column) Scan(e *simd.Engine, p layout.Predicate, out *bitvec.Vector) {
	layout.CheckPredicate(p, c.k)
	out.Reset()
	var w uint32
	for b := 0; b < c.Blocks(); b++ {
		ctl := c.ctl[b*ctlBytes : (b+1)*ctlBytes]
		data := c.data[c.dataOff[b]:]
		ref := c.refs[b]
		delta := c.BlockDelta(b)
		rows := c.BlockRows(b)
		running := ref
		pos := 0
		for i := 0; i < rows; i++ {
			if e != nil {
				if i&3 == 0 {
					e.ScalarLoad(c.ctlAddr+uint64(b*ctlBytes+i>>2), 1)
				}
				e.Scalar(3) // length extract, mask, add
			}
			l := int(ctl[i>>2]>>uint((i&3)*2))&3 + 1
			v := binary.LittleEndian.Uint32(data[pos:]) & LenMask[l]
			if e != nil {
				e.ScalarLoad(c.dataAddr+uint64(c.dataOff[b])+uint64(pos), uint64(l))
			}
			pos += l
			var code uint32
			if delta {
				running += v
				code = running
			} else {
				code = ref + v
			}
			gi := b*BlockCodes + i
			if p.Eval(code) {
				w |= 1 << uint(gi&31)
			}
			if gi&31 == 31 {
				out.Append32(w)
				w = 0
			}
		}
	}
	if c.n&31 != 0 {
		out.Append32(w)
	}
}

// Lookup implements layout.Layout through Select's read: uniform FOR
// blocks answer in O(1), mixed FOR blocks sum control-byte lengths to the
// value's position, and delta blocks sum their gaps up to the row.
func (c *Column) Lookup(e *simd.Engine, i int) uint32 {
	b, r := i/BlockCodes, i%BlockCodes
	code, p, l := c.locate(b, r)
	if e != nil {
		e.ScalarLoad(c.ctlAddr+uint64(b*ctlBytes+r>>2), 1)
		e.Scalar(2)
		if c.BlockDelta(b) {
			e.ScalarLoad(c.dataAddr+uint64(c.dataOff[b]), 4)
		} else {
			e.ScalarLoad(c.dataAddr+uint64(c.dataOff[b])+uint64(p), uint64(l))
		}
	}
	return code
}

// BytesPerRow is the compressed footprint per row of the two scan streams
// (control + data), the bytes-moved input of the planner's model.
func (c *Column) BytesPerRow() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(len(c.ctl)+len(c.data)-dataSlack) / float64(c.n)
}

// PruneEstimate predicts the fraction of blocks a random range predicate
// resolves from the exact block bounds alone: 1 − avg(block span)/domain.
// Sorted and clustered columns have tiny per-block spans and estimate
// near 1; uniform random columns estimate near 0.
func (c *Column) PruneEstimate() float64 {
	if c.Blocks() == 0 {
		return 0
	}
	domain := float64(uint64(1) << uint(c.k))
	var spans float64
	for b := range c.refs {
		spans += float64(c.maxs[b]-c.mins[b]) + 1
	}
	est := 1 - spans/float64(c.Blocks())/domain
	if est < 0 {
		return 0
	}
	return est
}

// Uniform1Frac is the fraction of blocks on the no-decode fast path:
// frame-of-reference with every value in one byte, which the kernels
// compare directly in SWAR registers.
func (c *Column) Uniform1Frac() float64 {
	if c.Blocks() == 0 {
		return 0
	}
	u := 0
	for b := range c.modes {
		if !c.BlockDelta(b) && c.BlockUniformLen(b) == 1 {
			u++
		}
	}
	return float64(u) / float64(c.Blocks())
}

// RawBytes is the footprint the raw ByteSlice layout would use for the
// same column (whole padded segments per byte slice).
func (c *Column) RawBytes() uint64 {
	return uint64(c.Segments()) * core.SegmentSize * uint64(c.NumSlices())
}

// Wins reports the planner's build-time decision for this column: true
// when the bytes-moved model prices the compressed fused scan below the
// raw SWAR scan.
func (c *Column) Wins() bool {
	if c.n == 0 {
		return false
	}
	return plan.CompressedWins(c.NumSlices(), c.BytesPerRow(), c.PruneEstimate(), c.Uniform1Frac())
}

// Stats summarises the column for inspection tooling.
type Stats struct {
	Blocks      int
	DeltaBlocks int
	Uniform1    int // FOR blocks with 1-byte values (no-decode scan path)
	RawBytes    uint64
	CompBytes   uint64
	Ratio       float64 // RawBytes / CompBytes
	BytesPerRow float64
	PruneEst    float64
	Compressed  bool // the build-time decision
}

// ColumnStats computes the inspection summary.
func (c *Column) ColumnStats() Stats {
	s := Stats{
		Blocks:      c.Blocks(),
		RawBytes:    c.RawBytes(),
		CompBytes:   c.SizeBytes(),
		BytesPerRow: c.BytesPerRow(),
		PruneEst:    c.PruneEstimate(),
		Compressed:  c.Wins(),
	}
	for b := range c.modes {
		if c.BlockDelta(b) {
			s.DeltaBlocks++
		} else if c.BlockUniformLen(b) == 1 {
			s.Uniform1++
		}
	}
	if s.CompBytes > 0 {
		s.Ratio = float64(s.RawBytes) / float64(s.CompBytes)
	}
	return s
}
