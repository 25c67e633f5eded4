package kernel

import (
	"encoding/binary"
	"strings"

	"byteslice/internal/obs"
)

// The AVX2 loops in avx2_amd64.s. Each covers the segments [segLo, segHi)
// (all of them when und is nil, else those und's bits name), stores each
// segment's 32 result bits as one 32-bit word of out and counts the
// segments that loaded a deeper byte slice in deep, by depth.

// eqAVX2 is the Eq loop; ne = ^0 complements its bits for Ne.
//
//bsvet:hotloop
//go:noescape
func eqAVX2(sc *scanner, ne uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)

// cmpAVX2 is the strict compare loop: flip 0x80 for Lt, 0x7F for Gt.
//
//bsvet:hotloop
//go:noescape
func cmpAVX2(sc *scanner, flip uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)

// betweenAVX2 is the open-interval Between loop; same is 1 when the
// bounds share their first byte.
//
//bsvet:hotloop
//go:noescape
func betweenAVX2(sc *scanner, same uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts)

// zoneAVX2 is the zone walk over at most zoneWindow segments: it stores
// every decided segment's word and marks the undecided ones in und.
//
//bsvet:hotloop
//go:noescape
func zoneAVX2(z *zoneInfo, segLo, segHi int, out []uint64, und *[zoneWindowWords]uint32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// probe reads the CPU's features with CPUID and the operating system's
// enabled register state with XGETBV: AVX2 needs the XMM and YMM state,
// AVX-512 the opmask and ZMM state as well.
func probe() Features {
	f := Features{Model: brand()}
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return f
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return f
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	ymm := xcr0&0x6 == 0x6
	f.AVX2 = ymm && ebx&(1<<5) != 0
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
