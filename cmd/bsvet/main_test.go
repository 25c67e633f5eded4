package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles bsvet once per test binary into a temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bsvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build bsvet: %v\n%s", err, out)
	}
	return bin
}

// runTool runs the built binary from the module root.
func runTool(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = "../.." // module root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run bsvet %v: %v\n%s", args, err, out.String())
	}
	return out.String(), code
}

// TestStandaloneCleanTree is the headline invocation from the README:
// the suite must pass on the repository itself.
func TestStandaloneCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the whole module")
	}
	bin := buildTool(t)
	out, code := runTool(t, bin, "./...")
	if code != 0 {
		t.Fatalf("bsvet ./... = exit %d on clean tree:\n%s", code, out)
	}
}

// TestSeededHotloopAllocationFails covers acceptance criterion (a): a
// fixture introducing an allocation in a //bsvet:hotloop function must
// fail the suite.
func TestSeededHotloopAllocationFails(t *testing.T) {
	bin := buildTool(t)
	out, code := runTool(t, bin, "./internal/analysis/testdata/src/hotloop")
	if code == 0 {
		t.Fatalf("bsvet passed the seeded hotloop fixture:\n%s", out)
	}
	if !strings.Contains(out, "builtin make allocates on the heap") {
		t.Errorf("output does not name the seeded allocation:\n%s", out)
	}
}

// TestSeededFixturesFail runs the suite over each remaining seeded
// fixture and checks the diagnostic class it must surface.
func TestSeededFixturesFail(t *testing.T) {
	bin := buildTool(t)
	cases := []struct {
		fixture string
		needle  string
	}{
		{"epochsafe", "outside a //bsvet:builder function"},
		{"goroutinelife", "has no visible stop path"},
		{"ctxflow", "needs a //bsvet:rootctx annotation"},
		{"errsentinel", "loses its identity"},
	}
	for _, tc := range cases {
		out, code := runTool(t, bin, "./internal/analysis/testdata/src/"+tc.fixture)
		if code == 0 {
			t.Errorf("bsvet passed the seeded %s fixture:\n%s", tc.fixture, out)
			continue
		}
		if !strings.Contains(out, tc.needle) {
			t.Errorf("%s output does not contain %q:\n%s", tc.fixture, tc.needle, out)
		}
	}
}

// TestVettoolCrossPackageFacts proves annotation facts survive the .vetx
// round trip of the go vet protocol: the epochsafe fixture imports a
// dependency package whose //bsvet:sealed annotation go vet only sees
// through the dependency's fact file, and the goroutinelife fixture
// launches a dependency's stopper function, whose evidence must arrive
// the same way (a lost stopper fact would false-positive go lifedep.Run).
func TestVettoolCrossPackageFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over fixture packages")
	}
	bin := buildTool(t)

	vet := func(pkg string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, pkg)
		cmd.Dir = "../.."
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := vet("./internal/analysis/testdata/src/epochsafe")
	if err == nil {
		t.Fatalf("go vet passed the epochsafe fixture:\n%s", out)
	}
	if !strings.Contains(out, "epochdep.View") {
		t.Errorf("epochsafe vet output lost the cross-package sealed fact (no epochdep.View diagnostic):\n%s", out)
	}
	if !strings.Contains(out, "store to field Count") {
		t.Errorf("epochsafe vet output does not flag the imported-field store:\n%s", out)
	}

	out, err = vet("./internal/analysis/testdata/src/goroutinelife")
	if err == nil {
		t.Fatalf("go vet passed the goroutinelife fixture:\n%s", out)
	}
	if !strings.Contains(out, "lifedep.Orphan") {
		t.Errorf("goroutinelife vet output lost the cross-package orphan:\n%s", out)
	}
	if strings.Contains(out, "lifedep.Run") {
		t.Errorf("goroutinelife vet output false-positives on the imported stopper (lifedep.Run's fact was lost):\n%s", out)
	}
}

// TestGcflagsRatchet seeds an allowlist with one stale and one slack
// entry against the bcegate fixture: a warning-only run exits 0 between
// caps, the -ratchet run exits 2 and names both.
func TestGcflagsRatchet(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	allow := filepath.Join(dir, "allow")
	content := "byteslice/internal/analysis/testdata/src/bcegate sumFirst bounds 9\n" +
		"byteslice/internal/analysis/testdata/src/bcegate gone bounds 1\n"
	if err := os.WriteFile(allow, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	out, code := runTool(t, bin, "-gcflags", "-allow", allow,
		"./internal/analysis/testdata/src/bcegate")
	if code != 0 {
		t.Fatalf("warning-mode gate = exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "warning: stale allowlist entry") || !strings.Contains(out, "warning: slack allowlist entry") {
		t.Errorf("warning-mode gate did not report stale and slack entries:\n%s", out)
	}

	out, code = runTool(t, bin, "-gcflags", "-ratchet", "-allow", allow,
		"./internal/analysis/testdata/src/bcegate")
	if code != 2 {
		t.Fatalf("ratchet gate = exit %d; want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "error: stale allowlist entry") || !strings.Contains(out, "gone") {
		t.Errorf("ratchet output does not name the stale entry:\n%s", out)
	}
	if !strings.Contains(out, "error: slack allowlist entry") || !strings.Contains(out, "(observed") {
		t.Errorf("ratchet output does not name the slack entry with its observed count:\n%s", out)
	}
}

// TestGcflagsGateNamesFunctionAndLine runs the compiler gate against
// the seeded bounds-check fixture and checks the report shape.
func TestGcflagsGateNamesFunctionAndLine(t *testing.T) {
	bin := buildTool(t)
	out, code := runTool(t, bin, "-gcflags", "-allow", "/dev/null",
		"./internal/analysis/testdata/src/bcegate")
	if code == 0 {
		t.Fatalf("bsvet -gcflags passed the seeded bounds check:\n%s", out)
	}
	if !strings.Contains(out, "sumFirst") || !strings.Contains(out, "bcegate.go:10") {
		t.Errorf("gate output does not name function and line:\n%s", out)
	}
}

// TestGcflagsGateCleanKernel mirrors the CI gate invocation.
func TestGcflagsGateCleanKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the kernel packages")
	}
	bin := buildTool(t)
	out, code := runTool(t, bin, "-gcflags",
		"./internal/kernel", "./internal/core", "./internal/bitvec")
	if code != 0 {
		t.Fatalf("gate = exit %d against committed allowlist:\n%s", code, out)
	}
}

// TestVettoolProtocol drives bsvet through go vet itself, exercising
// the -V/-flags handshakes and the .cfg/.vetx unit protocol.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over kernel packages")
	}
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./internal/kernel", "./internal/bitvec")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}

// TestVersionHandshake checks the -V=full fingerprint line cmd/go
// parses before trusting a vettool.
func TestVersionHandshake(t *testing.T) {
	bin := buildTool(t)
	out, code := runTool(t, bin, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full = exit %d", code)
	}
	if !strings.Contains(out, "version") || !strings.Contains(out, "buildID=") {
		t.Errorf("-V=full output %q lacks version/buildID", out)
	}
}
