// Command benchdiff compares two bsbench -json payloads and fails when
// the current run regresses against the committed baseline.
//
// Usage:
//
//	benchdiff -baseline BENCH_scan.json -current /tmp/bench.json [-threshold 0.25] [-out diff.txt]
//
// Measurements are keyed by (width, path, mode, data, preds, compression,
// layout); within a key the best rows-per-second across worker counts is
// compared, so scheduler jitter on one worker count doesn't fail the gate
// while a real kernel regression — which slows every worker count of the
// key — does. Each data shape and predicate count is a key of its own: a
// slow shape never hides behind a fast one. A key present only in the
// baseline is reported as missing and fails the gate; keys only in the
// current run are reported as new and pass (the baseline is regenerated
// when benchmarks are added).
//
// Both payloads' environment stamps are printed. When the baseline and a
// current payload are both stamped and differ in GOARCH or in the scan
// path that ran (AVX2 or SWAR), they measure different code: every
// regression is reported as advisory. A different CPU model alone still
// gates, and so does a payload without a stamp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// entry mirrors the fields of experiments.ScanBenchEntry that the gate
// keys and compares on; unknown fields are ignored so the baseline format
// can grow.
type entry struct {
	Width      int     `json:"width"`
	Path       string  `json:"path"`
	Workers    int     `json:"workers"`
	RowsPerSec float64 `json:"rows_per_sec"`
	Data       string  `json:"data,omitempty"`
	Mode       string  `json:"mode,omitempty"`
	Preds      int     `json:"preds,omitempty"`
	Compress   string  `json:"compression,omitempty"`
	Layout     string  `json:"layout,omitempty"`
}

type payload struct {
	Rows    int     `json:"rows"`
	Env     *stamp  `json:"env"`
	Results []entry `json:"results"`
}

// stamp mirrors experiments.Env: what produced a payload.
type stamp struct {
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	AVX512F    bool   `json:"avx512f"`
	KernelPath string `json:"kernel_path"`
}

func (s *stamp) String() string {
	if s == nil {
		return "unstamped"
	}
	return fmt.Sprintf("%s, %s kernels, GOMAXPROCS %d of %d CPUs, %s, %q (avx2 %v, avx512f %v)",
		s.GOARCH, s.KernelPath, s.GOMAXPROCS, s.NumCPU, s.GoVersion, s.CPUModel, s.AVX2, s.AVX512F)
}

// differentCode reports whether two stamped payloads ran different code:
// another architecture or another scan path.
func differentCode(a, b *stamp) bool {
	return a != nil && b != nil && (a.GOARCH != b.GOARCH || a.KernelPath != b.KernelPath)
}

type key struct {
	Width    int
	Path     string
	Mode     string
	Data     string
	Preds    int
	Compress string
	Layout   string
}

func (k key) String() string {
	mode := k.Mode
	if mode == "" {
		mode = "scan"
	}
	// The compression, layout, data and predicate-count axes render only
	// when set, in the order they joined the key, so a key's historical
	// spelling stays its prefix.
	if k.Compress != "" {
		mode += " " + k.Compress
	}
	if k.Layout != "" {
		mode += " " + k.Layout
	}
	if k.Data != "" {
		mode += " " + k.Data
	}
	if k.Preds != 0 {
		mode += fmt.Sprintf(" preds=%d", k.Preds)
	}
	return fmt.Sprintf("w%-2d %-6s %s", k.Width, k.Path, mode)
}

// best folds a payload into the per-key maximum rows/sec.
func best(p *payload) map[key]float64 {
	m := make(map[key]float64)
	for _, e := range p.Results {
		k := key{e.Width, e.Path, e.Mode, e.Data, e.Preds, e.Compress, e.Layout}
		if e.RowsPerSec > m[k] {
			m[k] = e.RowsPerSec
		}
	}
	return m
}

type row struct {
	Key     key
	Base    float64
	Cur     float64
	Delta   float64 // (cur-base)/base; +faster, -slower
	Verdict string
	Failing bool
}

// advisoryMode reports whether a key's mode is in the advisory set:
// compared and rendered, but a regression doesn't fail the gate. Used for
// measurements bound by the runner's hardware rather than the code under
// test (per-append fsync throughput is the CI disk, not a kernel).
func advisoryMode(mode, advisory string) bool {
	if advisory == "" {
		return false
	}
	for _, a := range strings.Split(advisory, ",") {
		if a = strings.TrimSpace(a); a != "" && mode == a {
			return true
		}
	}
	return false
}

// diff compares baseline vs current best-per-key at the given regression
// threshold (0.25 = fail when current is more than 25% slower). Keys whose
// mode is advisory — every key when allAdvisory — report regressions
// without failing; a MISSING advisory key still fails (the harness broke,
// not the disk).
func diff(base, cur map[key]float64, threshold float64, advisory string, allAdvisory bool) []row {
	keys := make(map[key]bool)
	for k := range base {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	rows := make([]row, 0, len(keys))
	for k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		r := row{Key: k, Base: b, Cur: c}
		switch {
		case !inCur:
			r.Verdict, r.Failing = "MISSING", true
		case !inBase:
			r.Verdict = "new"
		default:
			r.Delta = (c - b) / b
			switch {
			case r.Delta < -threshold && (allAdvisory || advisoryMode(k.Mode, advisory)):
				r.Verdict = "regressed (advisory)"
			case r.Delta < -threshold:
				r.Verdict, r.Failing = "REGRESSION", true
			default:
				r.Verdict = "ok"
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Failing != b.Failing {
			return a.Failing
		}
		if a.Key.Path != b.Key.Path {
			return a.Key.Path < b.Key.Path
		}
		if a.Key.Mode != b.Key.Mode {
			return a.Key.Mode < b.Key.Mode
		}
		if a.Key.Data != b.Key.Data {
			return a.Key.Data < b.Key.Data
		}
		if a.Key.Preds != b.Key.Preds {
			return a.Key.Preds < b.Key.Preds
		}
		if a.Key.Compress != b.Key.Compress {
			return a.Key.Compress < b.Key.Compress
		}
		if a.Key.Layout != b.Key.Layout {
			return a.Key.Layout < b.Key.Layout
		}
		return a.Key.Width < b.Key.Width
	})
	return rows
}

func render(w io.Writer, rows []row, threshold float64) (failed int) {
	fmt.Fprintf(w, "benchdiff: threshold %.0f%% (best rows/sec per width+path+mode+data+preds+compression+layout)\n", threshold*100)
	fmt.Fprintf(w, "%-40s %14s %14s %8s  %s\n", "key", "baseline", "current", "delta", "verdict")
	for _, r := range rows {
		delta := "-"
		if r.Base > 0 && r.Cur > 0 {
			delta = fmt.Sprintf("%+.1f%%", r.Delta*100)
		}
		fmt.Fprintf(w, "%-40s %14s %14s %8s  %s\n",
			r.Key, mrows(r.Base), mrows(r.Cur), delta, r.Verdict)
		if r.Failing {
			failed++
		}
	}
	return failed
}

func mrows(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f Mrows/s", v/1e6)
}

func load(path string) (*payload, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p payload
	if err := json.Unmarshal(buf, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(p.Results) == 0 {
		return nil, fmt.Errorf("%s: no measurements", path)
	}
	// A zero or non-finite rows/sec is a harness failure, not a slow run.
	// Left in, a zero baseline either vanishes from best() (the key is
	// never compared) or divides the delta into ±Inf — both silently pass
	// the gate, which is exactly backwards.
	for i, e := range p.Results {
		if math.IsNaN(e.RowsPerSec) || math.IsInf(e.RowsPerSec, 0) || e.RowsPerSec <= 0 {
			return nil, fmt.Errorf("%s: results[%d] (width=%d path=%q mode=%q workers=%d): rows_per_sec %v is not a positive finite measurement",
				path, i, e.Width, e.Path, e.Mode, e.Workers, e.RowsPerSec)
		}
	}
	return &p, nil
}

// run is main minus process concerns, for testing: returns the rendered
// report and the number of failing keys. currentPath may name several
// comma-separated payloads from repeated measurement runs; the per-key
// maximum across all of them is compared, squeezing scheduler jitter out
// of the gate without loosening the threshold.
func run(baselinePath, currentPath string, threshold float64, advisory string) (string, int, error) {
	base, err := load(baselinePath)
	if err != nil {
		return "", 0, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "baseline %s: %s\n", baselinePath, base.Env)
	cur := make(map[key]float64)
	crossCode := false
	for _, path := range strings.Split(currentPath, ",") {
		path = strings.TrimSpace(path)
		p, err := load(path)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(&sb, "current  %s: %s\n", path, p.Env)
		crossCode = crossCode || differentCode(base.Env, p.Env)
		for k, v := range best(p) {
			if v > cur[k] {
				cur[k] = v
			}
		}
	}
	if crossCode {
		fmt.Fprintln(&sb, "stamps differ in GOARCH or kernel path: the payloads measure different code, every key is advisory")
	}
	failed := render(&sb, diff(best(base), cur, threshold, advisory, crossCode), threshold)
	if failed > 0 {
		fmt.Fprintf(&sb, "FAIL: %d key(s) regressed beyond %.0f%%\n", failed, threshold*100)
	} else {
		fmt.Fprintln(&sb, "PASS")
	}
	return sb.String(), failed, nil
}

func main() {
	var (
		baseline  = flag.String("baseline", "BENCH_scan.json", "committed baseline payload")
		current   = flag.String("current", "", "freshly measured payload(s) to compare; comma-separated runs fold to their per-key best")
		threshold = flag.Float64("threshold", 0.25, "relative slowdown that fails the gate (0.25 = 25%)")
		advisory  = flag.String("advisory", "", "comma-separated modes whose regressions report without failing (hardware-bound measurements, e.g. ingest_append_synced)")
		out       = flag.String("out", "", "also write the report to this file (CI artifact)")
	)
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		os.Exit(2)
	}
	report, failed, err := run(*baseline, *current, *threshold, *advisory)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fmt.Print(report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
