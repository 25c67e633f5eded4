package kernel

import (
	"bufio"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"

	"byteslice/internal/core"
	"byteslice/internal/layout"
)

// TestProbeMatchesCPUInfo checks the start-up probe against the kernel's
// own reading of the CPU: AVX2 exactly when /proc/cpuinfo lists avx2 and
// popcnt (the AVX2 loops use both), AVX-512F exactly when it lists the
// flag.
func TestProbeMatchesCPUInfo(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	defer f.Close()
	var flags []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	if got, want := cpu.AVX2, slices.Contains(flags, "avx2") && slices.Contains(flags, "popcnt"); got != want {
		t.Fatalf("probe AVX2 = %v, /proc/cpuinfo lists avx2 and popcnt: %v", got, want)
	}
	if got, want := cpu.AVX512F, slices.Contains(flags, "avx512f"); got != want {
		t.Fatalf("probe AVX512F = %v, /proc/cpuinfo lists avx512f: %v", got, want)
	}
	if Path() != pathName(cpu.AVX2) {
		t.Fatalf("Path() = %q with AVX2 %v", Path(), cpu.AVX2)
	}
}

// guarded returns a copy of b that ends exactly where an unreadable page
// begins, so a load past its end faults.
func guarded(t *testing.T, b []byte) []byte {
	t.Helper()
	page := os.Getpagesize()
	size := (len(b) + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) }) //nolint:errcheck // test cleanup
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skip(err)
	}
	g := mem[size-len(b) : size : size]
	copy(g, b)
	return g
}

// TestZoneWalkStaysInZoneArrays runs the zoned loop over columns whose
// segment count is not a multiple of 32, with the zone arrays moved in
// front of an unreadable page: the AVX2 walk must never load past
// len(mn), and must still agree with the SWAR loop.
func TestZoneWalkStaysInZoneArrays(t *testing.T) {
	for _, segs := range []int{32, 33, 47, 63, 65, 255, 257, 289} {
		n := segs*core.SegmentSize - 5
		codes := matrixCodes(12, n)
		for i := range codes { // clustered, so the zone maps decide most segments
			codes[i] = uint32(i * 4095 / n)
		}
		b := core.New(codes, 12, nil)
		b.BuildZoneMaps()
		mn, mx := b.ZoneBounds()
		gmn, gmx := guarded(t, mn), guarded(t, mx)
		for _, p := range []layout.Predicate{
			{Op: layout.Lt, C1: 2000}, {Op: layout.Ge, C1: 3000}, {Op: layout.Eq, C1: 4000},
			{Op: layout.Ne, C1: 100}, {Op: layout.Between, C1: 3500, C2: 4090},
		} {
			for _, r := range [][2]int{{0, segs}, {segs - 1, segs}, {segs - 33, segs}, {segs - 2, segs - 1}, {segs / 2, segs}} {
				rangeOnPaths(t, b, p, max(r[0], 0), r[1], gmn, gmx)
			}
		}
	}
}
