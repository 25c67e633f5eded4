package kernel

import (
	"fmt"
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
// caller's own scan then runs on the start-up path. The aggregates do the
// same through mustSum, mustExtreme (compareAggPaths) and mustCount.

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

// aggRecord is what one aggregate call produced and recorded on one path.
type aggRecord struct {
	v     uint64
	n     int
	ok    bool
	stats aggStats
}

type aggStats struct {
	segments, mask, bytes, batches int64
}

// recordAgg runs one aggregate on one path with a fresh stage.
func recordAgg(t testing.TB, avx2 bool, x Exec, run func(Exec) (uint64, int, bool, error)) aggRecord {
	t.Helper()
	x.Stage = obs.NewQuery().NewStage("agg", "agg")
	var r aggRecord
	var err error
	withAVX2(avx2, func() { r.v, r.n, r.ok, err = run(x) })
	if err != nil {
		t.Fatal(err)
	}
	s := x.Stage.Snapshot()
	r.stats = aggStats{segments: s.Segments, mask: s.MaskSkipped, bytes: s.BytesTouched, batches: s.Batches}
	return r
}

// compareAggPaths runs an aggregate on every path of this host and fails
// the test where a path's result differs from the SWAR loops', or its
// stage record does where the walk is deterministic: always, except for
// an Extreme on several workers that reaches its domain bound, where how
// far the other workers got before the stop is a matter of timing
// (sameWalk reports the case from the SWAR record).
func compareAggPaths(t testing.TB, what string, x Exec, sameWalk func(aggRecord) bool, run func(Exec) (uint64, int, bool, error)) {
	t.Helper()
	paths := kernelPaths()
	if len(paths) < 2 {
		return
	}
	want := recordAgg(t, false, x, run)
	for _, avx2 := range paths[1:] {
		got := recordAgg(t, avx2, x, run)
		if got.v != want.v || got.n != want.n || got.ok != want.ok {
			t.Fatalf("%s workers=%d: %s = %d/%d/%v, swar %d/%d/%v",
				what, x.Workers, pathName(avx2), got.v, got.n, got.ok, want.v, want.n, want.ok)
		}
		if sameWalk(want) && got.stats != want.stats {
			t.Fatalf("%s workers=%d: %s recorded %+v, swar %+v", what, x.Workers, pathName(avx2), got.stats, want.stats)
		}
	}
}

// compareSumPaths checks Sum on every path.
func compareSumPaths(t testing.TB, x Exec, b *core.ByteSlice, mask *bitvec.Vector) {
	t.Helper()
	compareAggPaths(t, fmt.Sprintf("k=%d n=%d masked=%v Sum", b.Width(), b.Len(), mask != nil), x,
		func(aggRecord) bool { return true },
		func(x Exec) (uint64, int, bool, error) {
			s, c, err := Sum(x, b, mask)
			return s, c, true, err
		})
}

// compareExtremePaths checks Extreme on every path.
func compareExtremePaths(t testing.TB, x Exec, b *core.ByteSlice, mask *bitvec.Vector, isMin bool) {
	t.Helper()
	bound := uint64(0)
	if !isMin {
		bound = uint64(1)<<uint(b.Width()) - 1
	}
	compareAggPaths(t, fmt.Sprintf("k=%d n=%d masked=%v Extreme(isMin=%v)", b.Width(), b.Len(), mask != nil, isMin), x,
		func(r aggRecord) bool { return x.Workers <= 1 || !r.ok || r.v != bound },
		func(x Exec) (uint64, int, bool, error) {
			v, ok, err := Extreme(x, b, mask, isMin)
			return uint64(v), 0, ok, err
		})
}

// mustCount runs Count on every path of this host and fails the test
// where a path differs from the portable bitvec.Vector.Count.
func mustCount(t testing.TB, v *bitvec.Vector) int {
	t.Helper()
	want := v.Count()
	for _, avx2 := range kernelPaths() {
		var got int
		withAVX2(avx2, func() { got = Count(v) })
		if got != want {
			t.Fatalf("len=%d: %s Count = %d, want %d", v.Len(), pathName(avx2), got, want)
		}
	}
	return want
}
