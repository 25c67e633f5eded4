//go:build !amd64

package kernel

import "byteslice/internal/obs"

// Architectures other than amd64 have no AVX2: the probe finds nothing,
// useAVX2 stays false and the SWAR loops run. These stand-ins keep the
// portable wrappers in avx2.go compiling; nothing calls them.

func probe() Features { return Features{} }

//bsvet:hotloop
func eqFirstAVX2(sc *scanner, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, tie *[zoneWindowWords]uint32, ne uint32) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func cmpFirstAVX2(sc *scanner, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, tie *[zoneWindowWords]uint32, flip uint32) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func betweenFirstAVX2(sc *scanner, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, tie *[zoneWindowWords]uint32) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func eqAVX2(sc *scanner, ne uint32, segLo, segHi int, tie *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func cmpAVX2(sc *scanner, flip uint32, segLo, segHi int, tie *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func betweenAVX2(sc *scanner, same uint32, segLo, segHi int, tie *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func zoneAVX2(z *zoneInfo, segLo, segHi int, out []uint64, und *[zoneWindowWords]uint32) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func popcountAVX2(words []uint64) int {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func sumSegmentsAVX2(a *aggCols, segLo, segHi int) uint64 {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func sumMaskedAVX2(a *aggCols, wLo, wHi int) (padded uint64, count, loaded int) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func extremeFirstAVX2(a *aggCols, wLo, wHi int, t uint32, cand *[zoneWindow / 2]uint64) (fold uint32, live int) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func extremeResolveAVX2(a *aggCols, wLo, wHi int, t uint32, cand *[zoneWindow / 2]uint64, key uint64) (best uint64, stop int) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}
