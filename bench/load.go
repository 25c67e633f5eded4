package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"byteslice/internal/obs"
	"byteslice/internal/serve"
)

// server is one serve.Server behind its own Handler on a loopback TCP
// listener, as cmd/bsserve runs it.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer mounts the workload's table and starts serving. The zero
// serve.Config is exactly cmd/bsserve's flag defaults (64 in flight,
// NumCPU workers, 1024 cache entries, 2s/30s deadlines, 64 tenants).
func startServer(mount func(*serve.Catalog) error) (*server, error) {
	srv := serve.New(serve.Config{})
	if err := mount(srv.Catalog()); err != nil {
		srv.Close() //nolint:errcheck // already failing
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close() //nolint:errcheck // already failing
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for Serve to return and closes the
// catalog (ingest mounts stop their mergers and close their WALs).
func (s *server) stop(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// maxConns bounds the benchmark's connections (and client goroutines):
// the host has two vCPUs, and the server shares them.
const maxConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}}
}

// client is one client goroutine's connection state.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

// post sends body and returns the status and the response body, which
// stays valid until the next call.
func (c *client) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// postJSON posts body and decodes a 200 response into out.
func (c *client) postJSON(ctx context.Context, path string, body []byte, out any) error {
	status, resp, err := c.post(ctx, path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, status, resp)
	}
	return json.Unmarshal(resp, out)
}

// window is one run's time line: warm-up from begin to start, measured
// from start to end.
type window struct{ begin, start, end time.Time }

func newWindow(warmup, length time.Duration) window {
	begin := time.Now()
	return window{begin: begin, start: begin.Add(warmup), end: begin.Add(warmup + length)}
}

// sample is a response kept for the oracle: the request and its body.
type sample struct {
	q    *query
	resp []byte
}

// checkEvery is the oracle's sampling stride over window responses.
const checkEvery = 50

// clientResult is what one client saw inside the measured window.
type clientResult struct {
	lat       []float64 // ms per request; +Inf for a failure
	attempted int
	failed    int
	bytes     int64
	samples   []sample
	last      time.Time // when the last measured request completed
}

// closedLoop sends the stream's requests back to back until the window
// ends, timing and sampling the ones that start inside it.
func closedLoop(ctx context.Context, c *client, next stream, win window) clientResult {
	var res clientResult
	for ctx.Err() == nil {
		q := next()
		body := q.body(table)
		t0 := time.Now()
		if !t0.Before(win.end) {
			break
		}
		status, resp, err := c.post(ctx, "/query", body)
		res.last = time.Now()
		lat := res.last.Sub(t0)
		if t0.Before(win.start) {
			continue
		}
		res.attempted++
		if err != nil || status != http.StatusOK {
			res.failed++
			res.lat = append(res.lat, math.Inf(1))
			continue
		}
		res.lat = append(res.lat, ms(lat))
		res.bytes += int64(len(resp))
		if res.attempted%checkEvery == 0 {
			res.samples = append(res.samples, sample{q: q, resp: bytes.Clone(resp)})
		}
	}
	return res
}

// Writer schedule: 64 batches of 64 rows per second, the ingest
// workload's open-loop append rate (4096 rows/s).
const (
	batchRows     = 64
	batchesPerSec = 64
)

// writerResult is the open-loop writer's account of the window.
type writerResult struct {
	lat       []float64 // ms from each batch's due time to its reply
	late      []float64 // ms each batch started after its due time
	attempted int
	failed    int
}

// schedule runs send once per due time from win.begin until win.end and
// times each call from when it was due, so a stall also charges the
// batches queued behind it. Results are kept for batches due in the
// measured window.
func schedule(ctx context.Context, win window, send func() error) (lat, late []float64, attempted, failed int) {
	for k := 0; ctx.Err() == nil; k++ {
		due := win.begin.Add(time.Duration(k) * time.Second / batchesPerSec)
		if !due.Before(win.end) {
			break
		}
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		started := time.Since(due)
		err := send()
		if due.Before(win.start) {
			continue
		}
		attempted++
		late = append(late, ms(started))
		if err != nil {
			failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(time.Since(due)))
	}
	return
}

// appendWriter posts the ingest rows' continuation in batches on the
// writer schedule. Acknowledged rows extend ir.rows in append order, the
// order the live table numbers them.
func appendWriter(ctx context.Context, c *client, ir *ingestRows, win window) writerResult {
	var res writerResult
	send := func() error {
		batch, body := nextBatch(ir.next)
		status, resp, err := c.post(ctx, "/append", body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("append: status %d: %s", status, resp)
		}
		for _, rw := range batch {
			ir.rows.append(rw)
		}
		return nil
	}
	res.lat, res.late, res.attempted, res.failed = schedule(ctx, win, send)
	return res
}

// nextBatch draws the writer's next batch and its POST /append body.
func nextBatch(r *rand.Rand) ([]row, []byte) {
	batch := make([]row, batchRows)
	rows := make([]map[string]any, batchRows)
	for i := range batch {
		batch[i] = genRow(r)
		rows[i] = batch[i].values()
	}
	body, err := json.Marshal(serve.AppendRequest{Table: table, Rows: rows})
	if err != nil {
		panic(err) // integers, floats and strings always marshal
	}
	return batch, body
}

// probeQuery is setup_s's first query: a count over every row.
func probeQuery() *query {
	return &query{op: "count", where: []pred{{col: "quantity", op: "ge", a: quantityMin}}}
}

// resources is the process's runtime state at one instant.
type resources struct {
	mem   runtime.MemStats
	cpuNs int64
	reg   obs.RegistrySnapshot
}

func readResources() resources {
	var r resources
	runtime.ReadMemStats(&r.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	r.reg = obs.Default.Snapshot()
	return r
}

// runClients starts fn once per client goroutine and waits for them.
func runClients(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
