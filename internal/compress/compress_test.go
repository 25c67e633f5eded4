package compress

import (
	"encoding/binary"
	"fmt"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/datagen"
	"byteslice/internal/layout"
)

// datasets returns the code distributions the encoder must round-trip:
// uniform random (incompressible), sorted (delta), clustered (FOR with
// small spans), constant (uniform 1-byte), and awkward lengths around the
// block boundary.
func datasets(t *testing.T, k int) map[string][]uint32 {
	t.Helper()
	rng := datagen.NewRand(0xC0DE)
	sets := map[string][]uint32{
		"uniform":   datagen.Uniform(rng, 3000, k),
		"sorted":    datagen.Sorted(rng, 2500, k),
		"clustered": datagen.Clustered(rng, 4096, k, 256),
		"single":    {uint32(1)<<uint(k-1) - 1},
		"block":     datagen.Uniform(rng, BlockCodes, k),
		"block+1":   datagen.Uniform(rng, BlockCodes+1, k),
		"block-1":   datagen.Uniform(rng, BlockCodes-1, k),
	}
	konst := make([]uint32, 1700)
	for i := range konst {
		konst[i] = uint32(1) << uint(k-1)
	}
	sets["constant"] = konst
	return sets
}

func TestRoundTrip(t *testing.T) {
	for _, k := range []int{1, 7, 8, 12, 16, 17, 24, 31, 32} {
		for name, codes := range datasets(t, k) {
			c := New(codes, k, nil)
			if c.Len() != len(codes) || c.Width() != k {
				t.Fatalf("k=%d %s: Len/Width = %d/%d", k, name, c.Len(), c.Width())
			}
			var buf [BlockCodes]uint32
			for b := 0; b < c.Blocks(); b++ {
				rows := c.DecodeBlock(b, &buf)
				if want := c.BlockRows(b); rows != want {
					t.Fatalf("k=%d %s: block %d rows = %d, want %d", k, name, b, rows, want)
				}
				mn, mx := codes[b*BlockCodes], codes[b*BlockCodes]
				for i := 0; i < rows; i++ {
					got, want := buf[i], codes[b*BlockCodes+i]
					if got != want {
						t.Fatalf("k=%d %s: code %d = %d, want %d", k, name, b*BlockCodes+i, got, want)
					}
					if want < mn {
						mn = want
					}
					if want > mx {
						mx = want
					}
				}
				if c.Mins()[b] != mn || c.Maxs()[b] != mx {
					t.Fatalf("k=%d %s: block %d bounds [%d,%d], want [%d,%d]",
						k, name, b, c.Mins()[b], c.Maxs()[b], mn, mx)
				}
			}
		}
	}
}

func TestLookupAgainstCodes(t *testing.T) {
	for _, k := range []int{8, 12, 16, 24, 32} {
		for name, codes := range datasets(t, k) {
			c := New(codes, k, nil)
			for i, want := range codes {
				if got := c.Lookup(nil, i); got != want {
					t.Fatalf("k=%d %s: Lookup(%d) = %d, want %d", k, name, i, got, want)
				}
			}
		}
	}
}

func TestScanMatchesReference(t *testing.T) {
	const k = 13
	for name, codes := range datasets(t, k) {
		c := New(codes, k, nil)
		ref := layout.NewReference(codes, k, nil)
		want := bitvec.New(len(codes))
		got := bitvec.New(len(codes))
		dom := uint32(1) << k
		for _, op := range layout.Ops {
			p := layout.Predicate{Op: op, C1: dom / 3, C2: dom / 2}
			ref.Scan(nil, p, want)
			c.Scan(nil, p, got)
			if !got.Equal(want) {
				t.Fatalf("%s: Scan(%v) diverged from reference", name, p)
			}
		}
	}
}

func TestZoneDecideMatchesEval(t *testing.T) {
	// Brute-force the decision over small bound/constant grids: +1 must
	// mean every code in [mn,mx] matches, -1 none, 0 anything.
	for _, op := range layout.Ops {
		for mn := uint32(0); mn <= 6; mn++ {
			for mx := mn; mx <= 6; mx++ {
				for c1 := uint32(0); c1 <= 7; c1++ {
					for c2 := c1; c2 <= 7; c2++ {
						p := layout.Predicate{Op: op, C1: c1, C2: c2}
						all, none := true, true
						for v := mn; v <= mx; v++ {
							if p.Eval(v) {
								none = false
							} else {
								all = false
							}
						}
						switch d := ZoneDecide(op, mn, mx, c1, c2); {
						case d > 0 && !all:
							t.Fatalf("%v on [%d,%d]: +1 but not all match", p, mn, mx)
						case d < 0 && !none:
							t.Fatalf("%v on [%d,%d]: -1 but some row matches", p, mn, mx)
						}
					}
				}
			}
		}
	}
}

func TestBuilderDecision(t *testing.T) {
	rng := datagen.NewRand(7)
	const k = 16
	uniform := NewBuilder(datagen.Uniform(rng, 1<<15, k), k, nil)
	if uniform.Name() != "ByteSlice" {
		t.Fatalf("uniform random column chose %s, want raw ByteSlice", uniform.Name())
	}
	sorted := NewBuilder(datagen.Sorted(rng, 1<<15, k), k, nil)
	if sorted.Name() != Name {
		t.Fatalf("sorted column chose %s, want %s", sorted.Name(), Name)
	}
	clustered := NewBuilder(datagen.Clustered(rng, 1<<15, k, 4096), k, nil)
	if clustered.Name() != Name {
		t.Fatalf("clustered column chose %s, want %s", clustered.Name(), Name)
	}
	// The decision is a pure function of the codes: rebuilding yields the
	// same layout (what persistence relies on).
	codes := datagen.Sorted(rng, 1<<14, k)
	if NewBuilder(codes, k, nil).Name() != NewBuilder(codes, k, nil).Name() {
		t.Fatal("builder decision must be deterministic")
	}
}

func TestStats(t *testing.T) {
	rng := datagen.NewRand(3)
	codes := datagen.Sorted(rng, 1<<14, 16)
	c := New(codes, 16, nil)
	s := c.ColumnStats()
	if s.Blocks != c.Blocks() || s.Blocks == 0 {
		t.Fatalf("stats blocks = %d", s.Blocks)
	}
	if s.CompBytes == 0 || s.RawBytes == 0 || s.Ratio <= 1 {
		t.Fatalf("sorted column should compress: raw=%d comp=%d ratio=%.2f",
			s.RawBytes, s.CompBytes, s.Ratio)
	}
	if s.DeltaBlocks != s.Blocks {
		t.Fatalf("sorted column: %d/%d delta blocks", s.DeltaBlocks, s.Blocks)
	}
	if !s.Compressed {
		t.Fatal("sorted column's build-time decision should be to compress")
	}
	if s.PruneEst < 0.9 {
		t.Fatalf("sorted column prune estimate %.3f too low", s.PruneEst)
	}
}

func TestSizeBytesBelowRaw(t *testing.T) {
	rng := datagen.NewRand(9)
	codes := datagen.Clustered(rng, 1<<14, 20, 1024)
	c := New(codes, 20, nil)
	if c.SizeBytes() >= c.RawBytes() {
		t.Fatalf("clustered 20-bit column: compressed %d >= raw %d", c.SizeBytes(), c.RawBytes())
	}
}

// modeColumn is a column whose every block takes one mode.
type modeColumn struct {
	c     *Column
	codes []uint32
	mode  byte
}

// modeColumns returns a column per block mode, each 2½ blocks long so the
// last block is partial: from build, sorted codes with small gaps
// (uniform one-byte delta), sorted codes with large gaps mixed in (mixed
// delta), codes of a narrow span (uniform one-byte FOR) and of a wide one
// (mixed FOR); and hand-encoded uniform FOR blocks of 2, 3 and 4 bytes,
// which build never makes: a FOR block's minimum and a delta block's
// first gap are 0, one byte.
func modeColumns() map[string]modeColumn {
	const n = 2*BlockCodes + BlockCodes/2 + 3
	rng := datagen.NewRand(0x5E1)
	delta1, deltaMixed, for1, forMixed := make([]uint32, n), make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := 1; i < n; i++ {
		delta1[i] = delta1[i-1] + rng.Uint32N(8)
		gap := rng.Uint32N(200)
		if rng.Uint32N(4) == 0 {
			gap = rng.Uint32N(60000)
		}
		deltaMixed[i] = deltaMixed[i-1] + gap
	}
	for i := range for1 {
		for1[i] = 5000 + rng.Uint32N(200)
		forMixed[i] = rng.Uint32N(1 << 24)
	}
	cols := map[string]modeColumn{
		"delta1":     {New(delta1, 32, nil), delta1, modeDelta | 1<<1},
		"deltaMixed": {New(deltaMixed, 32, nil), deltaMixed, modeDelta},
		"for1":       {New(for1, 32, nil), for1, 1 << 1},
		"forMixed":   {New(forMixed, 32, nil), forMixed, 0},
	}
	for l := 2; l <= 4; l++ {
		const ref = 1000
		lo := uint32(1) << uint(8*(l-1))
		span := uint32(1<<30) - lo
		if l < 4 {
			span = uint32(1)<<uint(8*l) - lo
		}
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = ref + lo + rng.Uint32N(span)
		}
		nb := (n + BlockCodes - 1) / BlockCodes
		c := &Column{k: 32, n: n, ctl: make([]byte, nb*ctlBytes), dataOff: make([]uint32, nb+1),
			refs: make([]uint32, nb), mins: make([]uint32, nb), maxs: make([]uint32, nb), modes: make([]byte, nb)}
		for b := 0; b < nb; b++ {
			c.refs[b], c.modes[b], c.mins[b] = ref, byte(l)<<1, ^uint32(0)
			for i := 0; i < BlockCodes; i++ {
				c.ctl[b*ctlBytes+i>>2] |= byte(l-1) << uint((i&3)*2)
				v := lo // padding rows keep the block's one length
				if r := b*BlockCodes + i; r < n {
					v = codes[r] - ref
					c.mins[b], c.maxs[b] = min(c.mins[b], codes[r]), max(c.maxs[b], codes[r])
				}
				var w [4]byte
				binary.LittleEndian.PutUint32(w[:], v)
				c.data = append(c.data, w[:l]...)
			}
			c.dataOff[b+1] = uint32(len(c.data))
		}
		c.data = append(c.data, make([]byte, dataSlack)...)
		cols[fmt.Sprintf("for%d", l)] = modeColumn{c, codes, byte(l) << 1}
	}
	return cols
}

// TestSelectEveryMode reads every row of a column in each block mode
// through Select, Lookup and DecodeBlock, and bounds Select's touched
// bytes by what a decode of the block reads.
func TestSelectEveryMode(t *testing.T) {
	for name, mc := range modeColumns() {
		c := mc.c
		var buf [BlockCodes]uint32
		for b := 0; b < c.Blocks(); b++ {
			if c.Modes()[b] != mc.mode {
				t.Fatalf("%s: block %d has mode %d, want %d", name, b, c.Modes()[b], mc.mode)
			}
			rows := c.DecodeBlock(b, &buf)
			for r := 0; r < rows; r++ {
				i := b*BlockCodes + r
				want := mc.codes[i]
				got, touched := c.Select(b, r)
				if got != want || buf[r] != want || c.Lookup(nil, i) != want {
					t.Fatalf("%s: row %d: Select %d, DecodeBlock %d, Lookup %d, want %d",
						name, i, got, buf[r], c.Lookup(nil, i), want)
				}
				if touched < 1 || touched > c.BlockBytes(b) {
					t.Fatalf("%s: row %d: Select touched %d bytes, a decode reads %d", name, i, touched, c.BlockBytes(b))
				}
			}
		}
	}
}

// TestSumBytes pins the word sum against a byte loop at every length a
// uniform one-byte delta block asks for, over all-0xFF bytes (the lane
// carry edge) and random ones.
func TestSumBytes(t *testing.T) {
	rng := datagen.NewRand(0x5B)
	for _, fill := range []string{"ff", "random"} {
		data := make([]byte, BlockCodes)
		for i := range data {
			data[i] = 0xFF
			if fill == "random" {
				data[i] = byte(rng.Uint32())
			}
		}
		want := uint32(0)
		for n := 1; n <= BlockCodes; n++ {
			want += uint32(data[n-1])
			if got := sumBytes(data, n); got != want {
				t.Fatalf("%s: sumBytes(%d) = %d, want %d", fill, n, got, want)
			}
		}
	}
}
