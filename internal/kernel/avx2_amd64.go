package kernel

import (
	"encoding/binary"
	"strings"

	"byteslice/internal/obs"
)

// The AVX2 loops in avx2_amd64.s, one decide and one resolve pass per
// operator family, each over one window [segLo, segHi) and storing each
// segment's 32 result bits as one 32-bit word of out. A decide pass
// evaluates every segment of the window when und is nil, else the
// segments und's bits name; it loads the first byte slice only and sets
// the bits of the segments with a tied lane in tie. A resolve pass walks
// the segments tie names, needs a column of two or more byte slices, and
// counts the segments it resolves in deep, by depth.

// eqFirstAVX2 is the Eq decide pass; ne = ^0 complements its bits for Ne.
//
//bsvet:hotloop
//go:noescape
func eqFirstAVX2(sc *scanner, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, tie *[zoneWindowWords]uint32, ne uint32)

// cmpFirstAVX2 is the strict compare decide pass: flip 0x80 for Lt, 0x7F
// for Gt.
//
//bsvet:hotloop
//go:noescape
func cmpFirstAVX2(sc *scanner, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, tie *[zoneWindowWords]uint32, flip uint32)

// betweenFirstAVX2 is the open-interval Between decide pass.
//
//bsvet:hotloop
//go:noescape
func betweenFirstAVX2(sc *scanner, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, tie *[zoneWindowWords]uint32)

// eqAVX2 is the Eq resolve pass; ne = ^0 complements its bits for Ne.
//
//bsvet:hotloop
//go:noescape
func eqAVX2(sc *scanner, ne uint32, segLo, segHi int, tie *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)

// cmpAVX2 is the strict compare resolve pass: flip 0x80 for Lt, 0x7F for
// Gt.
//
//bsvet:hotloop
//go:noescape
func cmpAVX2(sc *scanner, flip uint32, segLo, segHi int, tie *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)

// betweenAVX2 is the open-interval Between resolve pass; same is 1 when
// the bounds share their first byte.
//
//bsvet:hotloop
//go:noescape
func betweenAVX2(sc *scanner, same uint32, segLo, segHi int, tie *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)

// zoneAVX2 is the zone walk over at most zoneWindow segments: it stores
// every decided segment's word and marks the undecided ones in und.
//
//bsvet:hotloop
//go:noescape
func zoneAVX2(z *zoneInfo, segLo, segHi int, out []uint64, und *[zoneWindowWords]uint32)

// The AVX2 aggregate loops in aggregate_amd64.s. Each covers a run of
// 64-row mask words [wLo, wHi) whose rows lie in whole segments; a
// masked loop reads a.mw, and nil selects every row.

// popcountAVX2 returns the number of set bits in words.
//
//bsvet:hotloop
//go:noescape
func popcountAVX2(words []uint64) int

// sumSegmentsAVX2 returns the padded byte-weighted sum over every row of
// segments [segLo, segHi), as sumRange does.
//
//bsvet:hotloop
//go:noescape
func sumSegmentsAVX2(a *aggCols, segLo, segHi int) uint64

// sumMaskedAVX2 is sumMaskedRange over mask words [wLo, wHi): the padded
// sum of the selected rows, their count and the segments holding one.
//
//bsvet:hotloop
//go:noescape
func sumMaskedAVX2(a *aggCols, wLo, wHi int) (padded uint64, count, loaded int)

// extremeFirstAVX2 is the Min/Max decide pass over mask words [wLo, wHi),
// at most one window: it returns the smallest first key byte of the
// selected rows (0xFF when none) and the segments holding a selected row,
// and marks in cand[w-wLo] the selected rows whose first key byte is at
// most t.
//
//bsvet:hotloop
//go:noescape
func extremeFirstAVX2(a *aggCols, wLo, wHi int, t uint32, cand *[zoneWindow / 2]uint64) (fold uint32, live int)

// extremeResolveAVX2 is the Min/Max resolve pass: it stitches the rows
// cand marks whose first key byte is t and returns the smallest key below
// key, and the word where that key reached a.bound (-1 when it did not).
//
//bsvet:hotloop
//go:noescape
func extremeResolveAVX2(a *aggCols, wLo, wHi int, t uint32, cand *[zoneWindow / 2]uint64, key uint64) (best uint64, stop int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// probe reads the CPU's features with CPUID and the operating system's
// enabled register state with XGETBV: AVX2 needs the XMM and YMM state,
// AVX-512 the opmask and ZMM state as well. The AVX2 loops count bits with
// POPCNT, so AVX2 is reported only with it (every AVX2 CPU has it).
func probe() Features {
	f := Features{Model: brand()}
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return f
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return f
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	ymm := xcr0&0x6 == 0x6
	f.AVX2 = ymm && ebx&(1<<5) != 0 && ecx1&popcnt != 0
	f.AVX512F = ymm && xcr0&0xE0 == 0xE0 && ebx&(1<<16) != 0
	return f
}

// brand reads the processor brand string (CPUID leaves 0x80000002–4).
func brand() string {
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt < 0x80000004 {
		return ""
	}
	var b [48]byte
	for i := uint32(0); i < 3; i++ {
		a, bx, c, d := cpuid(0x80000002+i, 0)
		for j, r := range [4]uint32{a, bx, c, d} {
			binary.LittleEndian.PutUint32(b[16*i+4*uint32(j):], r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b[:]), "\x00"))
}
