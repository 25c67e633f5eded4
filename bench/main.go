// Command bench is the repository benchmark: it serves a generated
// lineitem table through bsserve's own Handler on a loopback listener and
// drives one of four workloads over HTTP, then checks the answers against
// a plain-loop oracle.
//
//	go run . -workload olap_scan -seed 1 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics — the end-to-end metrics, or with
// -trace 1 the per-layer ones from a replay that times each layer's
// public calls. See README.md for the workloads and the metric
// dictionary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed every generated input derives from")
	seconds := flag.Int("seconds", int(cfg.window.Seconds()), "measured window in seconds (after a 3s warm-up)")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced replay instead of the end-to-end ones")
	out := flag.String("out", "", "also write the full report (environment, every metric, readout extras) as JSON here")
	flag.StringVar(&cfg.spans, "spans", "", "where a traced run writes its spans (default spans-<workload>.json in the temp dir)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg, os.Stdout)
	if err == nil {
		err = write(cfg, res, *out, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// line is the last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the readout and the result line, and writes the -out
// report and a traced run's spans.
func write(cfg config, res *result, out string, w io.Writer) error {
	defs, vals := e2eMetrics, res.E2E
	if cfg.trace {
		defs, vals = layerMetrics, res.Layers
	}
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "%s seed %d: %d attempted, %d failed, %d answers checked, %d wrong\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, res.checked, res.wrong)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		l.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.name, v, d.unit)
	}
	extras := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Fprintf(w, "  (readout) %-30s %14.6g\n", k, res.Extra[k])
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if cfg.trace {
		path := cfg.spans
		if path == "" {
			path = filepath.Join(cfg.dir, "spans-"+cfg.workload+".json")
		}
		err := writeJSON(path, struct {
			Env   env    `json:"env"`
			Spans []span `json:"spans"`
		}{res.Env, res.spans})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(res.spans), path)
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
