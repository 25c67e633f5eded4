package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"byteslice"
	"byteslice/internal/layout"
)

func TestParseValues(t *testing.T) {
	codes, err := parseValues("1, 2,2047", 11)
	if err != nil || len(codes) != 3 || codes[2] != 2047 {
		t.Fatalf("parseValues = %v (%v)", codes, err)
	}
	for _, bad := range []string{"", "x", "2048", "-1"} {
		if _, err := parseValues(bad, 11); err == nil {
			t.Fatalf("parseValues(%q) accepted", bad)
		}
	}
	// A width outside [1,32] is an error, not a panic in the layout
	// builders.
	for _, k := range []int{0, 33, -3} {
		if _, err := parseValues("0", k); err == nil {
			t.Fatalf("parseValues(\"0\", %d) accepted", k)
		}
	}
}

// TestParseConst: a -scan constant outside the k-bit domain is an error,
// never a panic in the scan or a silent truncation to 32 bits.
func TestParseConst(t *testing.T) {
	for _, c := range []uint64{0, 2047} {
		if got, err := parseConst(c, 11); err != nil || uint64(got) != c {
			t.Fatalf("parseConst(%d, 11) = %d, %v", c, got, err)
		}
	}
	for _, c := range []uint64{2048, 5000, 4294967298} {
		if got, err := parseConst(c, 11); err == nil {
			t.Fatalf("parseConst(%d, 11) accepted as %d", c, got)
		}
	}
	if got, err := parseConst(1<<32-1, 32); err != nil || got != 1<<32-1 {
		t.Fatalf("parseConst(2^32-1, 32) = %d, %v", got, err)
	}
	if _, err := parseConst(1<<32, 32); err == nil {
		t.Fatal("parseConst(2^32, 32) accepted")
	}
}

// TestZoneReportGolden pins the -zones rendering: segment verdicts, prune
// rate and the planner's Explain (workers pinned, so machine-independent).
func TestZoneReportGolden(t *testing.T) {
	codes := make([]uint32, 0, 40)
	for i := uint32(0); i < 32; i++ {
		codes = append(codes, i)
	}
	for i := uint32(0); i < 8; i++ {
		codes = append(codes, 1800+i)
	}
	got := zoneReport(codes, 11, layout.Predicate{Op: layout.Lt, C1: 16})
	want := `— Zone maps: 2 segment(s) of 32 codes, first-byte min/max —
  seg 0   [  0,   3] → scan
  seg 1   [225, 225] → no-match, skipped
  prune rate for v < 16: 0.50

plan: 1 predicate(s) over 40 rows (2 segments), conjunction
  order: values(sel=0.400, zone=0.50)
  strategy: column-first (est 14ns; column-first 14ns, baseline 14ns)
  workers: 1 (pinned)
`
	if got != want {
		t.Fatalf("zone report drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestCompressionReportGolden pins the -compression rendering: block modes,
// footprints and the build decision are pure functions of the codes.
func TestCompressionReportGolden(t *testing.T) {
	codes := make([]uint32, 0, 40)
	for i := uint32(0); i < 32; i++ {
		codes = append(codes, i)
	}
	for i := uint32(0); i < 8; i++ {
		codes = append(codes, 1800+i)
	}
	got := compressionReport(codes, 11)
	want := `— Compressed ByteSlice: 1 block(s) of 512 codes, FOR/delta with per-code length control —
  block 0     40 row(s)  delta ref=0      bounds [0, 1807]  513 data byte(s)
  raw ByteSlice 128 bytes → compressed 666 bytes (ratio 0.19x, 16.02 B/row)
  block prune estimate 0.12, delta blocks 1/1, uniform-1 blocks 0/1
  decision: stay raw (bytes-moved model prices the SWAR scan cheaper)
`
	if got != want {
		t.Fatalf("compression report drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A full block of narrow-span values lands on the uniform-1 fast path
	// and flips the decision to compress.
	low := make([]uint32, 512)
	for i := range low {
		low[i] = 1024 + uint32(i%100)
	}
	lowReport := compressionReport(low, 11)
	if !strings.Contains(lowReport, "uniform-1 blocks 1/1") ||
		!strings.Contains(lowReport, "decision: compress") {
		t.Fatalf("low-entropy report missed the uniform-1 fast path:\n%s", lowReport)
	}
}

func TestParseOp(t *testing.T) {
	want := map[string]layout.Op{
		"<": layout.Lt, "<=": layout.Le, ">": layout.Gt, ">=": layout.Ge,
		"=": layout.Eq, "<>": layout.Ne, "!=": layout.Ne,
	}
	for s, op := range want {
		got, err := parseOp(s)
		if err != nil || got != op {
			t.Fatalf("parseOp(%q) = %v (%v)", s, got, err)
		}
	}
	if _, err := parseOp("between"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestIngestReport pins the -ingest directory report: a healthy directory,
// a torn WAL tail, and an orphan artifact are all identified, and the
// report never mutates the directory.
func TestIngestReport(t *testing.T) {
	dir := t.TempDir()
	qty, err := byteslice.NewIntColumn("qty", []int64{5, 50, 7}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(qty)
	if err != nil {
		t.Fatal(err)
	}
	it, err := byteslice.CreateIngest(dir, tbl, byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := it.Append(map[string]any{"qty": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ingestReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"epoch 1", "base-1.bslc", "wal-1.log", "5 appended row(s)", "clean tail"} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}

	// Tear the WAL tail and drop an orphan: the report flags both, and
	// does not repair anything.
	walPath := filepath.Join(dir, "wal-1.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "base-9.bslc"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ingestReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"torn tail", "orphan:   base-9.bslc"} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data)-3 {
		t.Fatal("inspection mutated the WAL")
	}
}
