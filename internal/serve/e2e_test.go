package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"byteslice"
)

// TestServeE2E drives the bsserve binary end to end: build it, start it
// over a generated snapshot and a live ingest directory, run the
// scripted query mix (scan, aggregate, bad predicate, expired deadline,
// overload burst, cache/epoch lifecycle), check status codes and result
// checksums against locally computed truth, and assert a clean SIGTERM
// shutdown. The server log lands at $BSSERVE_E2E_LOG (default
// /tmp/bsserve_e2e.log) so CI can attach it on failure.
func TestServeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds and runs the bsserve binary")
	}

	// ---- fixture data ----------------------------------------------------
	const rows = 300_000
	qtyVals := make([]int64, rows)
	priceVals := make([]float64, rows)
	modeVals := make([]string, rows)
	modes := []string{"AIR", "SHIP", "RAIL", "MAIL"}
	for i := 0; i < rows; i++ {
		qtyVals[i] = int64(i*37) % 1000
		priceVals[i] = float64(i%500) / 10
		modeVals[i] = modes[i%4]
	}
	qty, err := byteslice.NewIntColumn("qty", qtyVals, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	price, err := byteslice.NewDecimalColumn("price", priceVals, 0, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := byteslice.NewStringColumn("mode", modeVals)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := byteslice.NewTable(qty, price, mode)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "t.bslc")
	if err := tbl.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	ingestDir := filepath.Join(dir, "live")
	if err := os.Mkdir(ingestDir, 0o755); err != nil {
		t.Fatal(err)
	}
	it, err := byteslice.CreateIngest(ingestDir, testTable(t), byteslice.WithAutoMerge(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	// Local ground truth for the scripted scans.
	scanFilter := byteslice.IntFilter("qty", byteslice.Ge, 500)
	truth, err := tbl.Filter([]byteslice.Filter{scanFilter})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := truth.Count()
	wantSum, _, err := tbl.SumInt("qty", truth)
	if err != nil {
		t.Fatal(err)
	}

	// ---- build and launch the binary -------------------------------------
	bin := os.Getenv("BSSERVE_BIN")
	if bin == "" {
		bin = filepath.Join(dir, "bsserve")
		build := exec.Command("go", "build", "-o", bin, "./cmd/bsserve")
		build.Dir = "../.."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building bsserve: %v\n%s", err, out)
		}
	}

	logPath := os.Getenv("BSSERVE_E2E_LOG")
	if logPath == "" {
		logPath = "/tmp/bsserve_e2e.log"
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close() //nolint:errcheck // flushed by the server process

	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-snapshot", "t="+snapPath,
		"-ingest", "live="+ingestDir,
		"-max-inflight", "2",
		"-timeout", "10s",
	)
	// Stdout goes to an io.Writer, not StdoutPipe: Wait closes a
	// StdoutPipe as soon as the process exits, which can cut the reader
	// off before the last line, while for a writer exec's own copier
	// drains everything before Wait returns. The pipe closes after Wait.
	stdout, stdoutW := io.Pipe()
	srv.Stdout = stdoutW
	srv.Stderr = logFile
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	serverDone := make(chan error, 1)

	// Tee stdout into the log file while watching for the address line
	// and, at the end, the clean-shutdown line.
	addrc := make(chan string, 1)
	outputc := make(chan string, 1)
	go func() {
		var all strings.Builder
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			all.WriteString(line + "\n")
			fmt.Fprintln(logFile, line)
			if rest, found := strings.CutPrefix(line, "bsserve: serving on "); found {
				addrc <- rest
			}
		}
		outputc <- all.String()
	}()
	go func() {
		err := srv.Wait()
		stdoutW.Close() //nolint:errcheck // ends the reader's scan; never fails
		serverDone <- err
	}()

	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-serverDone:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never printed its address")
	}
	defer srv.Process.Kill() //nolint:errcheck // backstop for early Fatals

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // read side
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	query := func(body string) (int, Response) {
		t.Helper()
		code, raw := post("/query", body)
		var r Response
		if code == http.StatusOK {
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatalf("decoding %s: %v", raw, err)
			}
		}
		return code, r
	}

	// ---- scripted mix -----------------------------------------------------
	// 1. Scan: count against locally computed truth; repeat must hit the
	//    cache with an identical checksum.
	scan := `{"table":"t","where":{"col":"qty","op":"ge","args":[500]}}`
	code, r1 := query(scan)
	if code != 200 || r1.Count != wantCount || r1.Cache != "miss" {
		t.Fatalf("scan: %d count %d cache %q, want 200 %d miss", code, r1.Count, r1.Cache, wantCount)
	}
	code, r2 := query(scan)
	if code != 200 || r2.Cache != "hit" || r2.Checksum != r1.Checksum {
		t.Fatalf("scan repeat: %d cache %q checksum %q, want hit %q", code, r2.Cache, r2.Checksum, r1.Checksum)
	}

	// 2. Aggregate: server sum equals the library's own answer.
	code, ra := query(`{"table":"t","op":"sum","col":"qty","where":{"col":"qty","op":"ge","args":[500]}}`)
	if code != 200 || ra.IntValue == nil || *ra.IntValue != wantSum {
		t.Fatalf("sum: %d %v, want 200 %d", code, ra.IntValue, wantSum)
	}

	// 3. Bad predicate: typed 400.
	code, raw := post("/query", `{"table":"t","where":{"col":"qty","op":"resembles","args":[1]}}`)
	if code != 400 || !bytes.Contains(raw, []byte(`"bad_query"`)) {
		t.Fatalf("bad predicate: %d %s", code, raw)
	}

	// 4. Expired deadline: typed 504, never a result.
	code, raw = post("/query", `{"table":"t","timeout_ms":-1,"where":{"col":"qty","op":"ge","args":[500]}}`)
	if code != 504 || !bytes.Contains(raw, []byte(`"deadline"`)) {
		t.Fatalf("deadline: %d %s", code, raw)
	}

	// 5. Overload burst: 64 heavy uncached sorts against -max-inflight 2.
	//    Some must be rejected with the typed 429 and some must succeed.
	heavy := `{"table":"t","op":"rows","order_by":"price","limit":5,"no_cache":true,"where":{"col":"qty","op":"ge","args":[0]}}`
	var wg sync.WaitGroup
	codes := make([]int, 64)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/query", "application/json", bytes.NewReader([]byte(heavy)))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close() //nolint:errcheck // status only
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	got429, got200 := 0, 0
	for _, c := range codes {
		switch c {
		case 429:
			got429++
		case 200:
			got200++
		case -1:
			t.Fatal("burst request failed at the transport")
		default:
			t.Fatalf("burst saw status %d", c)
		}
	}
	if got429 == 0 || got200 == 0 {
		t.Fatalf("burst: %d × 200, %d × 429 — want both overload rejections and successes", got200, got429)
	}

	// 6. Cache vs epochs on the live mount: miss → hit → append (miss,
	//    count grows) → merge (new epoch, miss) → hit. Zero stale hits:
	//    every count is checked against what the data must show.
	liveScan := `{"table":"live","where":{"col":"qty","op":"ge","args":[50]}}`
	code, l1 := query(liveScan)
	if code != 200 || l1.Count != 3 || l1.Cache != "miss" {
		t.Fatalf("live scan: %d count %d cache %q, want 200 3 miss", code, l1.Count, l1.Cache)
	}
	code, l2 := query(liveScan)
	if code != 200 || l2.Cache != "hit" || l2.Count != 3 {
		t.Fatalf("live repeat: %d cache %q, want 200 hit", code, l2.Cache)
	}
	code, raw = post("/append", `{"table":"live","rows":[{"qty":77,"price":3.5,"mode":"AIR"}]}`)
	if code != 200 {
		t.Fatalf("append: %d %s", code, raw)
	}
	code, l3 := query(liveScan)
	if code != 200 || l3.Count != 4 || l3.Cache != "miss" {
		t.Fatalf("live post-append: %d count %d cache %q, want 200 4 miss (stale hit?)", code, l3.Count, l3.Cache)
	}
	code, raw = post("/merge", `{"table":"live"}`)
	if code != 200 {
		t.Fatalf("merge: %d %s", code, raw)
	}
	code, l4 := query(liveScan)
	if code != 200 || l4.Count != 4 || l4.Cache != "miss" || l4.Epoch <= l3.Epoch {
		t.Fatalf("live post-merge: %d count %d cache %q epoch %d (was %d), want 200 4 miss at a new epoch",
			code, l4.Count, l4.Cache, l4.Epoch, l3.Epoch)
	}
	code, l5 := query(liveScan)
	if code != 200 || l5.Cache != "hit" || l5.Count != 4 {
		t.Fatalf("live post-merge repeat: %d cache %q count %d, want 200 hit 4", code, l5.Cache, l5.Count)
	}

	// 7. /stats reflects the run.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Serve struct {
			Admitted  int64 `json:"admitted"`
			Overloads int64 `json:"overloads"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"serve"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close() //nolint:errcheck // read side
	if err != nil {
		t.Fatal(err)
	}
	if stats.Serve.Overloads < int64(got429) || stats.Serve.CacheHits < 3 {
		t.Fatalf("stats = %+v, want ≥%d overloads and ≥3 cache hits", stats.Serve, got429)
	}

	// ---- clean shutdown ---------------------------------------------------
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serverDone:
		if err != nil {
			t.Fatalf("server exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	out := <-outputc
	if !strings.Contains(out, "bsserve: clean shutdown") {
		t.Fatalf("shutdown line missing from output:\n%s", out)
	}
}
