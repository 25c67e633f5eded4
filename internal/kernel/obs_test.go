package kernel

import (
	"slices"
	"testing"

	"byteslice/internal/bitvec"
	"byteslice/internal/compress"
	"byteslice/internal/core"
	"byteslice/internal/layout"
	"byteslice/internal/layout/hbp"
	"byteslice/internal/obs"
)

// obsCodes are 16-bit codes that cluster per segment, so zone maps resolve
// many segments and deep early stops still occur.
func obsCodes(n int) []uint32 {
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32((i / core.SegmentSize * 97) % 50_000)
	}
	return codes
}

// obsColumn builds a zone-mapped column over obsCodes.
func obsColumn(t *testing.T, n int) *core.ByteSlice {
	t.Helper()
	b := core.New(obsCodes(n), 16, nil)
	b.BuildZoneMaps()
	return b
}

// obsShape is one scan shape of TestScanObsMatchesPlain.
type obsShape struct {
	name string
	// census is how many segment evaluations the stage must count
	// (segments + zone-resolved + gate-skipped); 0 skips the check.
	census int64
	run    func(x Exec, p layout.Predicate, out *bitvec.Vector) (int, error)
}

// TestScanObsMatchesPlain runs every scan shape — plain, zoned, pipelined
// and pipelined-zoned in both polarities, compressed and HBP — for every
// operator, serially and on four workers, once with Stage nil and once
// with a Stage attached. The two runs must produce identical bit vectors
// and prune counts, and the stage must account for what ran: the fan-out
// width, timed batches, zone resolutions and a segment census that covers
// the column. On an AVX2 host every case runs on both paths, which must
// record the same words and statistics.
func TestScanObsMatchesPlain(t *testing.T) {
	const n = 10_000
	codes := obsCodes(n)
	plain := core.New(codes, 16, nil)
	zoned := obsColumn(t, n)
	cc := compress.New(codes, 16, nil)
	h := hbp.New(codes, 16, nil)
	prev := bitvec.New(n)
	mustScan(t, Exec{}, plain, layout.Predicate{Op: layout.Lt, C1: 20_000}, nil, false, prev)
	segs := int64(plain.Segments())

	gated := func(b *core.ByteSlice, negate bool) func(Exec, layout.Predicate, *bitvec.Vector) (int, error) {
		return func(x Exec, p layout.Predicate, out *bitvec.Vector) (int, error) {
			return Scan(x, b, p, prev, negate, out)
		}
	}
	shapes := []obsShape{
		{"plain", segs, func(x Exec, p layout.Predicate, out *bitvec.Vector) (int, error) {
			return Scan(x, plain, p, nil, false, out)
		}},
		{"zoned", segs, func(x Exec, p layout.Predicate, out *bitvec.Vector) (int, error) {
			return Scan(x, zoned, p, nil, false, out)
		}},
		{"pipelined", segs, gated(plain, false)},
		{"pipelined-negate", segs, gated(plain, true)},
		{"pipelined-zoned", segs, gated(zoned, false)},
		{"pipelined-zoned-negate", segs, gated(zoned, true)},
		{"compressed", segs, func(x Exec, p layout.Predicate, out *bitvec.Vector) (int, error) {
			return ScanCompressed(x, cc, p, out)
		}},
		{"hbp", 0, func(x Exec, p layout.Predicate, out *bitvec.Vector) (int, error) {
			return 0, ScanHBP(x, h, p, out)
		}},
	}
	preds := []layout.Predicate{
		{Op: layout.Eq, C1: 97},
		{Op: layout.Ne, C1: 97},
		{Op: layout.Lt, C1: 25_000},
		{Op: layout.Le, C1: 25_000},
		{Op: layout.Gt, C1: 25_000},
		{Op: layout.Ge, C1: 25_000},
		{Op: layout.Between, C1: 10_000, C2: 30_000},
	}
	for _, sh := range shapes {
		for _, p := range preds {
			for _, workers := range []int{1, 4} {
				var swar scanRecord
				for _, avx2 := range kernelPaths() {
					var rec scanRecord
					withAVX2(avx2, func() { rec = checkObsShape(t, sh, p, workers, n) })
					if !avx2 {
						swar = rec
					} else if !slices.Equal(rec.words, swar.words) || rec.stats != swar.stats {
						t.Fatalf("%s %v workers=%d: avx2 recorded %+v, swar %+v (words equal: %v)",
							sh.name, p, workers, rec.stats, swar.stats, slices.Equal(rec.words, swar.words))
					}
				}
			}
		}
	}
}

// checkObsShape runs one shape of TestScanObsMatchesPlain without and with
// a stage and checks what the stage accounts for; it returns the
// instrumented run's words and statistics.
func checkObsShape(t *testing.T, sh obsShape, p layout.Predicate, workers, n int) scanRecord {
	t.Helper()
	want := bitvec.New(n)
	wantPruned, err := sh.run(Exec{Workers: workers}, p, want)
	if err != nil {
		t.Fatal(err)
	}
	got := bitvec.New(n)
	got.Fill() // stale bits must be overwritten
	st := obs.NewQuery().NewStage(sh.name, sh.name)
	pruned, err := sh.run(Exec{Workers: workers, Stage: st}, p, got)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s %v workers=%d: instrumented scan differs from plain", sh.name, p, workers)
	}
	if pruned != wantPruned {
		t.Fatalf("%s %v workers=%d: pruned %d, plain %d", sh.name, p, workers, pruned, wantPruned)
	}
	s := st.Snapshot()
	if s.Workers != workers {
		t.Fatalf("%s %v: workers = %d, want %d", sh.name, p, s.Workers, workers)
	}
	if s.Batches == 0 || s.BatchNs.Count != s.Batches {
		t.Fatalf("%s %v: batches = %d, hist count %d", sh.name, p, s.Batches, s.BatchNs.Count)
	}
	if s.ZoneSkipped != int64(pruned) || s.EarlyStop[0] != int64(pruned) {
		t.Fatalf("%s %v: zoneSkipped = %d, depth[0] = %d, want %d", sh.name, p, s.ZoneSkipped, s.EarlyStop[0], pruned)
	}
	if s.Segments == 0 && s.ZoneSkipped == 0 && s.MaskSkipped == 0 || s.BytesTouched == 0 {
		t.Fatalf("%s %v: stage recorded no work: %+v", sh.name, p, s)
	}
	if census := s.Segments + s.ZoneSkipped + s.MaskSkipped; sh.census != 0 && census != sh.census {
		t.Fatalf("%s %v: segment census %d, want %d", sh.name, p, census, sh.census)
	}
	return scanRecord{words: slices.Clone(got.Words()), stats: scanStats{
		pruned: pruned, segments: s.Segments, zone: s.ZoneSkipped, mask: s.MaskSkipped,
		bytes: s.BytesTouched, batches: s.Batches, depth: s.EarlyStop,
	}}
}

// TestZonedObsAccounting asserts zone-resolved segments count as depth 0
// and that zone-resolved plus scanned segments cover the column.
func TestZonedObsAccounting(t *testing.T) {
	b := obsColumn(t, 10_000)
	p := layout.Predicate{Op: layout.Lt, C1: 25_000}
	got := bitvec.New(b.Len())
	st := obs.NewQuery().NewStage("scan(zoned)", "scan_zoned")
	pruned := mustScan(t, Exec{Workers: 4, Stage: st}, b, p, nil, false, got)
	if pruned == 0 {
		t.Fatal("test column should have zone-resolvable segments")
	}
	s := st.Snapshot()
	if s.ZoneSkipped != int64(pruned) || s.EarlyStop[0] != int64(pruned) {
		t.Fatalf("zoneSkipped = %d, depth[0] = %d, want %d", s.ZoneSkipped, s.EarlyStop[0], pruned)
	}
	if s.Segments+s.ZoneSkipped != int64(b.Segments()) {
		t.Fatalf("segments %d + zoneSkipped %d != %d", s.Segments, s.ZoneSkipped, b.Segments())
	}
}

// TestPipelinedObsAccounting asserts the gate-skip counter: the gate
// skips segments for this predicate pair, and with zone maps the three
// counters partition the column.
func TestPipelinedObsAccounting(t *testing.T) {
	b := obsColumn(t, 10_000)
	plain := core.New(obsCodes(10_000), 16, nil)
	prev := bitvec.New(b.Len())
	mustScan(t, Exec{}, b, layout.Predicate{Op: layout.Lt, C1: 20_000}, nil, false, prev)
	p := layout.Predicate{Op: layout.Gt, C1: 5_000}

	st := obs.NewQuery().NewStage("scan(pipelined)", "pipelined")
	mustScan(t, Exec{Workers: 2, Stage: st}, plain, p, prev, false, bitvec.New(b.Len()))
	s := st.Snapshot()
	if s.MaskSkipped == 0 {
		t.Fatal("gate should skip some segments for this predicate pair")
	}
	if s.Segments+s.MaskSkipped != int64(b.Segments()) {
		t.Fatalf("segments %d + maskSkipped %d != %d", s.Segments, s.MaskSkipped, b.Segments())
	}

	st2 := obs.NewQuery().NewStage("scan(pipelined+zoned)", "pipelined")
	mustScan(t, Exec{Workers: 2, Stage: st2}, b, p, prev, false, bitvec.New(b.Len()))
	s2 := st2.Snapshot()
	if s2.ZoneSkipped == 0 || s2.MaskSkipped == 0 {
		t.Fatalf("zone %d / mask %d: want both gates to fire", s2.ZoneSkipped, s2.MaskSkipped)
	}
	if s2.Segments+s2.ZoneSkipped+s2.MaskSkipped != int64(b.Segments()) {
		t.Fatalf("segments %d + zone %d + mask %d != %d",
			s2.Segments, s2.ZoneSkipped, s2.MaskSkipped, b.Segments())
	}
}

// TestAggregateLookupObs sanity-checks the aggregate and lookup stage
// accounting: results unchanged, rows/segments recorded, and the lookup
// fan-out width recorded as the one actually used.
func TestAggregateLookupObs(t *testing.T) {
	b := obsColumn(t, 5_000)
	wantSum, wantCount := mustSum(t, Exec{Workers: 2}, b, nil)
	q := obs.NewQuery()
	st := q.NewStage("sum", "sum")
	sum, count := mustSum(t, Exec{Workers: 2, Stage: st}, b, nil)
	if sum != wantSum || count != wantCount {
		t.Fatalf("sum = %d/%d, want %d/%d", sum, count, wantSum, wantCount)
	}
	if s := st.Snapshot(); s.Segments != int64(b.Segments()) || s.BytesTouched == 0 {
		t.Fatalf("sum stage: %+v", s)
	}

	rows := []int32{0, 31, 63, 4_000}
	out := make([]uint32, len(rows))
	stl := q.NewStage("lookup", "lookup")
	if err := LookupMany(Exec{Stage: stl}, b, rows, out); err != nil {
		t.Fatal(err)
	}
	if s := stl.Snapshot(); s.Rows != int64(len(rows)) || s.Batches == 0 || s.Workers != 1 {
		t.Fatalf("lookup stage: %+v", s)
	}

	all := make([]int32, b.Len())
	for i := range all {
		all[i] = int32(i)
	}
	got := make([]uint32, len(all))
	stw := q.NewStage("lookup", "lookup")
	if err := LookupMany(Exec{Workers: 4, Stage: stw}, b, all, got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := Lookup(b, i); v != want {
			t.Fatalf("row %d: parallel LookupMany %d, Lookup %d", i, v, want)
		}
	}
	if s := stw.Snapshot(); s.Rows != int64(len(all)) || s.Workers != 4 {
		t.Fatalf("parallel lookup stage: %+v", s)
	}
}
