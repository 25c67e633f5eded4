package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json's end_to_end and per_layer sections (a test holds them
// in lockstep).
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"mem_mb", "MB"},
	{"stored_bytes_per_row", "B/row"},
}

var layerMetrics = []metricDef{
	{"serve.decode_us", "us"},
	{"serve.do_us", "us"},
	{"serve.do_us_p99", "us"},
	{"serve.encode_us", "us"},
	{"serve.http_us", "us"},
	{"serve.exec_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.overloads", "count"},
	{"serve.response_bytes", "B"},
	{"serve.rows_materialised_per_returned", "ratio"},
	{"facade.query_ms", "ms"},
	{"facade.materialise_ms", "ms"},
	{"kernel.scan_ms", "ms"},
	{"kernel.rows_per_s", "rows/s"},
	{"kernel.bytes_per_row", "B/row"},
	{"kernel.zone_skip_ratio", "ratio"},
	{"kernel.pct_of_bandwidth", "%"},
	{"ingest.append_us", "us"},
	{"ingest.append_us_p99", "us"},
	{"ingest.merges", "count"},
	{"ingest.merge_rows_per_s", "rows/s"},
	{"ingest.delta_rows", "count"},
	{"ingest.wal_bytes_per_row", "B/row"},
	{"ingest.backpressure", "count"},
	{"ingest.replay_rows_per_s", "rows/s"},
	{"persist.load_mb_per_s", "MB/s"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_ms_per_req", "ms"},
	{"bench.read_gbps", "GB/s"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.checked", "count"},
	{"bench.wrong", "count"},
}

// minBeyond is the number of samples a reported percentile must leave
// above it; fewer and the percentile is noise.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples: a
// measured value, never an interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tail returns the q-quantile, or the highest quantile below it that
// still has minBeyond samples above it when the sample is too small for
// q. It fails when not even that exists.
func tail(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, fmt.Errorf("%d samples: a tail percentile needs more than %d", n, minBeyond)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1-minBeyond)], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// env is the machine stamp every output carries.
type env struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	Rows       int     `json:"rows"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	L2         string  `json:"l2"`
	L3         string  `json:"l3"`
	ReadGBps   float64 `json:"read_gbps"`
}

func stamp(cfg config, rows int, readGBps float64) env {
	e := env{
		Workload: cfg.workload, Seed: cfg.seed, WarmupS: cfg.warmup.Seconds(), WindowS: cfg.window.Seconds(), Rows: rows,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GOARCH: runtime.GOARCH,
		GoVersion: runtime.Version(), CPUModel: "unknown", L2: "unknown", L3: "unknown", ReadGBps: readGBps,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	idx, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range idx {
		level, err1 := os.ReadFile(filepath.Join(dir, "level"))
		size, err2 := os.ReadFile(filepath.Join(dir, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			e.L2 = strings.TrimSpace(string(size))
		case "3":
			e.L3 = strings.TrimSpace(string(size))
		}
	}
	return e
}

// readProbe measures single-goroutine sequential read bandwidth over a
// buffer of the given size — the roof a one-lane scan of a table that
// size can reach. It reports the median of several passes in GB/s.
func readProbe(bytes int64) float64 {
	buf := make([]uint64, max(bytes/8, 1024))
	for i := range buf {
		buf[i] = uint64(i)
	}
	var rates []float64
	var sink uint64
	deadline := time.Now().Add(150 * time.Millisecond)
	for pass := 0; pass < 5 || (pass < 50 && time.Now().Before(deadline)); pass++ {
		t0 := time.Now()
		var a, b, c, d uint64
		for i := 0; i+3 < len(buf); i += 4 {
			a += buf[i]
			b += buf[i+1]
			c += buf[i+2]
			d += buf[i+3]
		}
		sink += a ^ b ^ c ^ d
		rates = append(rates, float64(len(buf)*8)/time.Since(t0).Seconds()/1e9)
	}
	probeSink = sink
	return median(rates)
}

// probeSink keeps the probe's loads from being optimised away.
var probeSink uint64
