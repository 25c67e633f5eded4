// Command bsvet runs the ByteSlice static-analysis suite from
// internal/analysis — hotloop, atomicfield, boundedalloc, epochsafe,
// goroutinelife, ctxflow, and errsentinel — plus the compiler-output
// BCE/escape gate.
//
// Standalone (the common case):
//
//	go run ./cmd/bsvet ./...
//
// Compiler gate (bounds checks and heap escapes in //bsvet:hotloop
// functions, against the committed bsvet.allow):
//
//	go run ./cmd/bsvet -gcflags ./internal/kernel ./internal/core
//
// With -ratchet the gate also hard-fails on allowlist entries that are
// stale (match nothing) or slack (cap above the observed count), so the
// allowlist can only shrink toward what the compiler actually emits:
//
//	go run ./cmd/bsvet -gcflags -ratchet ./internal/kernel
//
// As a go vet tool (unit-checker protocol):
//
//	go build -o /tmp/bsvet ./cmd/bsvet
//	go vet -vettool=/tmp/bsvet ./...
//
// Exit status: 0 clean, 1 operational error, 2 findings.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"byteslice/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// go vet version handshake: `bsvet -V=full` must print a line ending
	// in a content hash so the build cache can fingerprint the tool.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		return printVersion(args[0])
	}
	// go vet capability probe: it asks which vet flags the tool accepts
	// (JSON list) before passing any through. bsvet takes none of them.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return 0
	}

	fs := flag.NewFlagSet("bsvet", flag.ContinueOnError)
	var (
		checks  = fs.String("checks", "", "comma-separated analyzers to run (default: all)")
		tests   = fs.Bool("tests", true, "also analyze test files")
		gcflags = fs.Bool("gcflags", false, "run the compiler BCE/escape gate instead of the AST analyzers")
		allow   = fs.String("allow", "bsvet.allow", "allowlist file for the -gcflags gate")
		ratchet = fs.Bool("ratchet", false, "fail the -gcflags gate on stale or slack allowlist entries instead of warning")
		dir     = fs.String("C", "", "run in this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()

	// Unit-checker mode: go vet invokes the tool with one *.cfg argument.
	if len(patterns) == 1 && strings.HasSuffix(patterns[0], ".cfg") {
		return runUnit(patterns[0], *checks)
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg := analysis.LoadConfig{Dir: *dir, Tests: *tests}

	if *gcflags {
		return runGate(cfg, *allow, *ratchet, patterns)
	}

	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsvet:", err)
		return 1
	}
	pkgs, err := analysis.Load(cfg, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsvet:", err)
		return 1
	}
	bad := false
	for _, p := range pkgs {
		if p.Analyze && p.TypeErr != nil {
			fmt.Fprintf(os.Stderr, "bsvet: %v\n", p.TypeErr)
			bad = true
		}
	}
	if bad {
		return 1
	}
	diags := analysis.RunAnalyzers(pkgs, analyzers)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func runGate(cfg analysis.LoadConfig, allow string, ratchet bool, patterns []string) int {
	findings, stale, slack, err := analysis.Gate(cfg, allow, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsvet:", err)
		return 1
	}
	severity := "warning"
	if ratchet {
		severity = "error"
	}
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "bsvet: %s: stale allowlist entry (prune it): %s\n", severity, s)
	}
	for _, s := range slack {
		fmt.Fprintf(os.Stderr, "bsvet: %s: slack allowlist entry (tighten the cap): %s\n", severity, s)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "bsvet: %d compiler diagnostics above the %s caps\n", len(findings), allow)
		return 2
	}
	if ratchet && len(stale)+len(slack) > 0 {
		fmt.Fprintf(os.Stderr, "bsvet: ratchet: %d allowlist entries need pruning or tightening in %s\n", len(stale)+len(slack), allow)
		return 2
	}
	return 0
}

func printVersion(arg string) int {
	if arg != "-V=full" {
		fmt.Println("bsvet version 1")
		return 0
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsvet:", err)
		return 1
	}
	f, err := os.Open(self)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsvet:", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, "bsvet:", err)
		return 1
	}
	fmt.Printf("%s version devel buildID=%02x\n", filepath.Base(self), h.Sum(nil))
	return 0
}
