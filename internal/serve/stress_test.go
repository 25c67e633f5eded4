package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"byteslice"
	"byteslice/internal/obs"
)

// TestServeRaceStress runs N concurrent HTTP clients with a mixed
// predicate workload against a live ingest mount while one writer
// appends rows and forces merges — the CI serve_race_stress entry,
// meant to run under -race. The correctness invariant: rows only ever
// append, so for any fixed predicate the matching count is monotonically
// non-decreasing across responses, and every response's (epoch, rows)
// version must be coherent (rows never shrinks within an epoch).
func TestServeRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	s := New(Config{MaxInflight: 32, CacheEntries: 256, Registry: &obs.Registry{}})
	defer s.Close() //nolint:errcheck // ingest close checked below
	dir := t.TempDir()
	it, err := byteslice.CreateIngest(dir, testTable(t), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cat.add(&mount{name: "live", kind: "ingest", path: dir, ing: it}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queries := []string{
		`{"table":"live","where":{"col":"qty","op":"ge","args":[50]}}`,
		`{"table":"live","where":{"col":"qty","op":"between","args":[10,60]}}`,
		`{"table":"live","where":{"col":"mode","op":"eq","args":["AIR"]}}`,
		`{"table":"live","where":{"all":[{"col":"qty","op":"ge","args":[20]},{"col":"mode","op":"ne","args":["RAIL"]}]}}`,
		`{"table":"live","where":{"any":[{"col":"qty","op":"lt","args":[10]},{"col":"price","op":"ge","args":[5.0]}]}}`,
	}

	const (
		clients          = 8
		queriesPerClient = 40
		writerRows       = 120
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: appends rows continuously, merging every 30 rows so the
	// readers cross epoch bumps mid-flight.
	wg.Add(1)
	writerErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < writerRows; i++ {
			row := fmt.Sprintf(`{"table":"live","rows":[{"qty":%d,"price":%d.5,"mode":"%s"}]}`,
				i%100, i%9, []string{"AIR", "SHIP", "RAIL"}[i%3])
			resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader([]byte(row)))
			if err != nil {
				writerErr <- err
				return
			}
			resp.Body.Close() //nolint:errcheck // read side
			if resp.StatusCode != http.StatusOK {
				writerErr <- fmt.Errorf("append %d: status %d", i, resp.StatusCode)
				return
			}
			if i%30 == 29 {
				resp, err := http.Post(ts.URL+"/merge", "application/json", bytes.NewReader([]byte(`{"table":"live"}`)))
				if err != nil {
					writerErr <- err
					return
				}
				resp.Body.Close() //nolint:errcheck // read side
				if resp.StatusCode != http.StatusOK {
					writerErr <- fmt.Errorf("merge at %d: status %d", i, resp.StatusCode)
					return
				}
			}
		}
	}()

	clientErrs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastCount := make([]int, len(queries))
			for i := 0; i < queriesPerClient || !stop.Load(); i++ {
				qi := (c + i) % len(queries)
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(queries[qi])))
				if err != nil {
					clientErrs <- err
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					resp.Body.Close() //nolint:errcheck // read side
					continue          // overload is a legal answer under stress
				}
				var r Response
				err = json.NewDecoder(resp.Body).Decode(&r)
				resp.Body.Close() //nolint:errcheck // read side
				if err != nil {
					clientErrs <- fmt.Errorf("client %d decode: %w", c, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					clientErrs <- fmt.Errorf("client %d query %d: status %d", c, qi, resp.StatusCode)
					return
				}
				if r.Count < lastCount[qi] {
					clientErrs <- fmt.Errorf("client %d query %d: count went backwards %d → %d", c, qi, lastCount[qi], r.Count)
					return
				}
				lastCount[qi] = r.Count
				if i > 10*queriesPerClient {
					break // writer finished long ago; don't spin forever
				}
			}
			clientErrs <- nil
		}(c)
	}
	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatalf("writer: %v", err)
	default:
	}
	for c := 0; c < clients; c++ {
		if err := <-clientErrs; err != nil {
			t.Fatal(err)
		}
	}

	// The final count must agree with a fresh, uncontended query.
	final, err := s.Do(context.Background(), &Request{Table: "live", NoCache: true, Where: leaf("qty", "ge", 50)})
	if err != nil {
		t.Fatal(err)
	}
	if final.Rows != 6+writerRows {
		t.Fatalf("final rows = %d, want %d", final.Rows, 6+writerRows)
	}
	want := 3 // base rows with qty >= 50
	for i := 0; i < writerRows; i++ {
		if i%100 >= 50 {
			want++
		}
	}
	if final.Count != want {
		t.Fatalf("final count = %d, want %d", final.Count, want)
	}
	st := s.stats().Snapshot()
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after drain, want 0", st.Inflight)
	}
	t.Logf("admitted %d, overloads %d, cache %d hits / %d misses",
		st.Admitted, st.Overloads, st.CacheHits, st.CacheMisses)
}
