package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `{
  "rows": 1048576,
  "results": [
    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 4.0e9},
    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 9.0e9},
    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8},
    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 6.0e9, "data": "sorted", "mode": "scan_zoned"}
  ]
}`

// TestDetectsTenfoldSlowdown is the gate's reason to exist: a current run
// where one key collapsed 10x must fail, naming the key.
func TestDetectsTenfoldSlowdown(t *testing.T) {
	current := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 4.0e8},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 9.0e8},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 6.0e9, "data": "sorted", "mode": "scan_zoned"}
	  ]
	}`
	report, failed, err := run(write(t, "base.json", baseline), write(t, "cur.json", current), 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("failed = %d, want 1\n%s", failed, report)
	}
	if !strings.Contains(report, "REGRESSION") || !strings.Contains(report, "-90.0%") {
		t.Fatalf("report must name the 10x regression:\n%s", report)
	}
	if !strings.Contains(report, "FAIL") {
		t.Fatalf("report must carry the FAIL verdict:\n%s", report)
	}
}

// TestPassesWithinThreshold pins the jitter tolerance: a uniform 20%
// slowdown stays under the 25% gate, and best-of-workers keying means a
// slow single-worker sample is masked by a healthy 4-worker one.
func TestPassesWithinThreshold(t *testing.T) {
	current := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 1.0e9},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 7.2e9},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 1.7e8},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 5.0e9, "data": "sorted", "mode": "scan_zoned"}
	  ]
	}`
	report, failed, err := run(write(t, "base.json", baseline), write(t, "cur.json", current), 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("failed = %d, want 0\n%s", failed, report)
	}
	if !strings.Contains(report, "PASS") {
		t.Fatalf("report must carry PASS:\n%s", report)
	}
}

// TestMissingKeyFails pins that silently dropping a benchmarked
// configuration cannot sneak past the gate.
func TestMissingKeyFails(t *testing.T) {
	current := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 9.0e9},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8}
	  ]
	}`
	report, failed, err := run(write(t, "base.json", baseline), write(t, "cur.json", current), 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || !strings.Contains(report, "MISSING") {
		t.Fatalf("dropped key must fail as MISSING (failed=%d):\n%s", failed, report)
	}
}

// TestNewKeyPasses pins that adding benchmarks doesn't fail the gate
// before the baseline is regenerated.
func TestNewKeyPasses(t *testing.T) {
	current := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 9.0e9},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 6.0e9, "data": "sorted", "mode": "scan_zoned"},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 3.0e9, "mode": "multi_column_first", "preds": 3}
	  ]
	}`
	report, failed, err := run(write(t, "base.json", baseline), write(t, "cur.json", current), 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || !strings.Contains(report, "new") {
		t.Fatalf("new key must pass and be reported (failed=%d):\n%s", failed, report)
	}
}

// TestMultiRunFold pins the jitter squeeze: a key that dipped 10x in one
// measurement run but recovered in a second passes, because the gate
// compares the per-key best across all -current payloads.
func TestMultiRunFold(t *testing.T) {
	slow := `{
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 9.0e8},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 6.0e9, "data": "sorted", "mode": "scan_zoned"}
	  ]
	}`
	good := `{
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 8.8e9},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 6.0e9, "data": "sorted", "mode": "scan_zoned"}
	  ]
	}`
	currents := write(t, "cur1.json", slow) + "," + write(t, "cur2.json", good)
	report, failed, err := run(write(t, "base.json", baseline), currents, 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("recovered key must pass with multi-run fold (failed=%d):\n%s", failed, report)
	}
}

// TestCompressionAxisKeysSeparately pins that the raw and compressed arms
// of the same width+path+mode are independent keys: a collapse on the
// compressed arm fails even when the raw arm is healthy, and the key
// rendering names the arm.
func TestCompressionAxisKeysSeparately(t *testing.T) {
	base := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 9.0e9, "data": "sorted", "mode": "scan", "compression": "raw"},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 1.4e10, "data": "sorted", "mode": "scan", "compression": "compressed"}
	  ]
	}`
	current := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 9.1e9, "data": "sorted", "mode": "scan", "compression": "raw"},
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 1.4e9, "data": "sorted", "mode": "scan", "compression": "compressed"}
	  ]
	}`
	report, failed, err := run(write(t, "base.json", base), write(t, "cur.json", current), 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("compressed-arm collapse must fail exactly one key (failed=%d):\n%s", failed, report)
	}
	if !strings.Contains(report, "scan compressed") || !strings.Contains(report, "scan raw") {
		t.Fatalf("report must render both compression arms:\n%s", report)
	}
}

// TestLayoutAxisKeysSeparately pins that the per-layout lookup arms of
// the same width+path+mode are independent keys: an HBP lookup collapse
// fails even when the ByteSlice arm is healthy, the key rendering names
// the layout, and layout-less legacy keys keep their exact spelling.
func TestLayoutAxisKeysSeparately(t *testing.T) {
	base := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 9.0e9},
	    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 2.0e7, "mode": "lookup", "layout": "ByteSlice"},
	    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 6.0e7, "mode": "lookup", "layout": "HBP"}
	  ]
	}`
	current := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 9.0e9},
	    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 2.1e7, "mode": "lookup", "layout": "ByteSlice"},
	    {"width": 16, "path": "native", "workers": 1, "rows_per_sec": 6.0e6, "mode": "lookup", "layout": "HBP"}
	  ]
	}`
	report, failed, err := run(write(t, "base.json", base), write(t, "cur.json", current), 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("HBP-arm collapse must fail exactly one key (failed=%d):\n%s", failed, report)
	}
	if !strings.Contains(report, "lookup HBP") || !strings.Contains(report, "lookup ByteSlice") {
		t.Fatalf("report must render both layout arms:\n%s", report)
	}
	if !strings.Contains(report, "w16 native scan ") {
		t.Fatalf("layout-less legacy key must keep its exact spelling:\n%s", report)
	}
}

func TestRejectsEmptyPayload(t *testing.T) {
	if _, _, err := run(write(t, "base.json", baseline), write(t, "cur.json", `{"results": []}`), 0.25, ""); err == nil {
		t.Fatal("empty current payload must be an error, not a pass")
	}
}

// TestRejectsZeroBaseline pins the divide-through-zero hole: a baseline
// row with rows_per_sec 0 must be rejected at load time, not fold into a
// ±Inf delta (or drop out of best()) and silently pass the gate.
func TestRejectsZeroBaseline(t *testing.T) {
	zeroed := `{
	  "rows": 1048576,
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 0},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8}
	  ]
	}`
	current := `{
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": 9.0e9},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8}
	  ]
	}`
	_, _, err := run(write(t, "base.json", zeroed), write(t, "cur.json", current), 0.25, "")
	if err == nil {
		t.Fatal("zero baseline rows_per_sec must be an error, not a pass")
	}
	if !strings.Contains(err.Error(), "rows_per_sec") || !strings.Contains(err.Error(), "native") {
		t.Fatalf("error must name the field and the offending key: %v", err)
	}
}

// TestRejectsNonFiniteMeasurement covers the same guard on the current
// side with a negative value (JSON cannot carry NaN, but the loader also
// refuses NaN/Inf should the payload format ever grow a path for them).
func TestRejectsNonFiniteMeasurement(t *testing.T) {
	current := `{
	  "results": [
	    {"width": 16, "path": "native", "workers": 4, "rows_per_sec": -1.0},
	    {"width": 16, "path": "engine", "workers": 1, "rows_per_sec": 2.0e8}
	  ]
	}`
	if _, _, err := run(write(t, "base.json", baseline), write(t, "cur.json", current), 0.25, ""); err == nil {
		t.Fatal("negative current rows_per_sec must be an error")
	}
}

// TestAdvisoryModeReportsWithoutFailing: a hardware-bound mode in the
// advisory set renders its regression but doesn't fail the gate, while
// the same regression in a non-advisory mode still does — and an
// advisory key that vanished entirely still fails.
func TestAdvisoryModeReportsWithoutFailing(t *testing.T) {
	base := `{"results": [
		{"width": 16, "path": "native", "workers": 1, "mode": "ingest_append_synced", "rows_per_sec": 10000},
		{"width": 16, "path": "native", "workers": 1, "mode": "ingest_append", "rows_per_sec": 1000000}
	]}`
	current := `{"results": [
		{"width": 16, "path": "native", "workers": 1, "mode": "ingest_append_synced", "rows_per_sec": 1000},
		{"width": 16, "path": "native", "workers": 1, "mode": "ingest_append", "rows_per_sec": 1000000}
	]}`
	report, failed, err := run(write(t, "base.json", base), write(t, "cur.json", current), 0.25, "ingest_append_synced")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("advisory regression failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "regressed (advisory)") {
		t.Fatalf("advisory regression not reported:\n%s", report)
	}

	// Without the advisory flag the same payload fails.
	_, failed, err = run(write(t, "base2.json", base), write(t, "cur2.json", current), 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("non-advisory regression passed (failed=%d)", failed)
	}

	// A missing advisory key is a broken harness, not a slow disk.
	gone := `{"results": [
		{"width": 16, "path": "native", "workers": 1, "mode": "ingest_append", "rows_per_sec": 1000000}
	]}`
	_, failed, err = run(write(t, "base3.json", base), write(t, "cur3.json", gone), 0.25, "ingest_append_synced")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("missing advisory key passed (failed=%d)", failed)
	}
}

// stamped returns a one-key payload measured at rate rows/s and stamped
// with env ("" leaves it unstamped).
func stamped(env string, rate float64) string {
	body := fmt.Sprintf(`"results": [{"width": 12, "path": "native", "workers": 1, "rows_per_sec": %g}]`, rate)
	if env == "" {
		return "{" + body + "}"
	}
	return `{"env": ` + env + `, ` + body + "}"
}

const (
	envAVX2 = `{"goarch": "amd64", "gomaxprocs": 2, "num_cpu": 2, "go_version": "go1.24.0", "cpu_model": "A", "avx2": true, "kernel_path": "avx2"}`
	envSWAR = `{"goarch": "amd64", "gomaxprocs": 2, "num_cpu": 2, "go_version": "go1.24.0", "cpu_model": "A", "avx2": true, "kernel_path": "swar"}`
	envARM  = `{"goarch": "arm64", "gomaxprocs": 2, "num_cpu": 2, "go_version": "go1.24.0", "cpu_model": "", "kernel_path": "swar"}`
	envCPUB = `{"goarch": "amd64", "gomaxprocs": 2, "num_cpu": 2, "go_version": "go1.24.0", "cpu_model": "B", "avx2": true, "kernel_path": "avx2"}`
)

// TestStampsOfDifferentCodeAreAdvisory: payloads stamped with another
// kernel path or another architecture measure different code, so a
// tenfold slowdown reports as advisory and the gate passes; both stamps
// are printed.
func TestStampsOfDifferentCodeAreAdvisory(t *testing.T) {
	for _, cur := range []string{envSWAR, envARM} {
		report, failed, err := run(write(t, "base.json", stamped(envAVX2, 4e9)), write(t, "cur.json", stamped(cur, 4e8)), 0.25, "")
		if err != nil {
			t.Fatal(err)
		}
		if failed != 0 || !strings.Contains(report, "regressed (advisory)") || !strings.Contains(report, "every key is advisory") {
			t.Fatalf("failed = %d, want an advisory pass:\n%s", failed, report)
		}
		if !strings.Contains(report, "avx2 kernels") || !strings.Contains(report, "swar kernels") {
			t.Fatalf("report must print both stamps:\n%s", report)
		}
	}
}

// TestStampsOfAnotherCPUStillGate: a different CPU model alone runs the
// same code, so a tenfold slowdown still fails.
func TestStampsOfAnotherCPUStillGate(t *testing.T) {
	report, failed, err := run(write(t, "base.json", stamped(envAVX2, 4e9)), write(t, "cur.json", stamped(envCPUB, 4e8)), 0.25, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || !strings.Contains(report, "REGRESSION") {
		t.Fatalf("failed = %d, want the regression to gate:\n%s", failed, report)
	}
}

// TestUnstampedPayloadStillGates: without a stamp on either side nothing
// says the code differs, so a tenfold slowdown fails as before.
func TestUnstampedPayloadStillGates(t *testing.T) {
	for _, pair := range [][2]string{{"", envSWAR}, {envAVX2, ""}} {
		report, failed, err := run(write(t, "base.json", stamped(pair[0], 4e9)), write(t, "cur.json", stamped(pair[1], 4e8)), 0.25, "")
		if err != nil {
			t.Fatal(err)
		}
		if failed != 1 || !strings.Contains(report, "unstamped") {
			t.Fatalf("failed = %d, want the regression to gate and the missing stamp named:\n%s", failed, report)
		}
	}
}
