package kernel

import (
	"slices"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/obs"
)

// The SWAR loops are the oracle of the AVX2 loops. On a host with AVX2,
// every scan a test runs through mustScan also runs once on each path,
// each with its own stage, and the two runs must agree on the result
// words, the pruned count and every statistic the stage records; the
// caller's own scan then runs on the start-up path.

// kernelPaths lists the range-loop paths this host runs: the SWAR loops
// always (false), the AVX2 loops (true) where the probe found AVX2.
func kernelPaths() []bool {
	if cpu.AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// pathName names a kernelPaths entry.
func pathName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "swar"
}

// withAVX2 runs f with the AVX2 loops switched on or off, restoring the
// start-up choice afterwards.
func withAVX2(on bool, f func()) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = on
	f()
}

// scanRecord is what one scan produced and recorded: everything that
// must not depend on the path.
type scanRecord struct {
	words []uint64
	stats scanStats
}

type scanStats struct {
	pruned                               int
	segments, zone, mask, bytes, batches int64
	depth                                [obs.MaxDepth + 1]int64
}

// recordScan runs Scan on one path over a copy of stale (so stale bits
// must be overwritten) with a fresh stage.
func recordScan(t testing.TB, avx2 bool, x Exec, b *core.ByteSlice, p layout.Predicate, prev *bitvec.Vector, negate bool, stale *bitvec.Vector) scanRecord {
	t.Helper()
	out := stale.Clone()
	x.Stage = obs.NewQuery().NewStage("scan", "scan")
	var pruned int
	var err error
	withAVX2(avx2, func() { pruned, err = Scan(x, b, p, prev, negate, out) })
	if err != nil {
		t.Fatal(err)
	}
	s := x.Stage.Snapshot()
	return scanRecord{words: slices.Clone(out.Words()), stats: scanStats{
		pruned: pruned, segments: s.Segments, zone: s.ZoneSkipped, mask: s.MaskSkipped,
		bytes: s.BytesTouched, batches: s.Batches, depth: s.EarlyStop,
	}}
}

// comparePaths runs the scan on every path of this host and fails the
// test where a path's record differs from the SWAR loops'.
func comparePaths(t testing.TB, x Exec, b *core.ByteSlice, p layout.Predicate, prev *bitvec.Vector, negate bool, stale *bitvec.Vector) {
	t.Helper()
	paths := kernelPaths()
	if len(paths) < 2 {
		return
	}
	want := recordScan(t, false, x, b, p, prev, negate, stale)
	for _, avx2 := range paths[1:] {
		got := recordScan(t, avx2, x, b, p, prev, negate, stale)
		if !slices.Equal(got.words, want.words) {
			t.Fatalf("k=%d %v prev=%v negate=%v workers=%d zoned=%v: %s result words differ from swar",
				b.Width(), p, prev != nil, negate, x.Workers, b.HasZoneMaps(), pathName(avx2))
		}
		if got.stats != want.stats {
			t.Fatalf("k=%d %v prev=%v negate=%v workers=%d zoned=%v: %s recorded %+v, swar %+v",
				b.Width(), p, prev != nil, negate, x.Workers, b.HasZoneMaps(), pathName(avx2), got.stats, want.stats)
		}
	}
}
