//go:build !amd64

package kernel

import "byteslice/internal/obs"

// Architectures other than amd64 have no AVX2: the probe finds nothing,
// useAVX2 stays false and the SWAR loops run. These stand-ins keep the
// portable wrappers in avx2.go compiling; nothing calls them.

func probe() Features { return Features{} }

//bsvet:hotloop
func eqAVX2(sc *scanner, ne uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func cmpAVX2(sc *scanner, flip uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func betweenAVX2(sc *scanner, same uint32, segLo, segHi int, und *[zoneWindowWords]uint32, out []uint64, deep *obs.DepthCounts) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}

//bsvet:hotloop
func zoneAVX2(z *zoneInfo, segLo, segHi int, out []uint64, und *[zoneWindowWords]uint32) {
	panic("kernel: AVX2 loop on a non-amd64 build")
}
