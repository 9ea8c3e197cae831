package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// hardenFixture is testFixture plus the on-disk store file, for tests
// that upload or corrupt spectrum bytes.
func hardenFixture(t *testing.T, opts ServerOptions) (*server, []seq.Read, string) {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "h", GenomeLen: 6000, ReadLen: 36, Coverage: 30,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	built, err := kspectrum.Build(reads, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "h.kspc")
	if err := kspectrum.WriteSpectrumFile(path, built); err != nil {
		t.Fatal(err)
	}
	spec, err := kspectrum.ReadSpectrumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spec.Close() })
	srv, err := newServer(map[string]*kspectrum.Spectrum{"main": spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, reads, path
}

func encodeChunk(t *testing.T, reads []seq.Read) []byte {
	t.Helper()
	body, err := fastq.EncodeChunk(reads)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// assertJSONError asserts the daemon's error contract: the response is
// application/json with a non-empty "error" field.
func assertJSONError(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: status %d Content-Type = %q, want application/json; body: %s",
			resp.Request.Method, resp.Request.URL, resp.StatusCode, ct, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Errorf("error body is not JSON: %v; body: %s", err, body)
	} else if e.Error == "" {
		t.Errorf("error body has empty error field: %s", body)
	}
}

func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServeErrorsAreJSON drives every client-visible failure path and
// asserts the uniform error contract: a JSON body with an "error" field
// and an application/json Content-Type on each 4xx/5xx.
func TestServeErrorsAreJSON(t *testing.T) {
	srv, reads, _ := hardenFixture(t, ServerOptions{Workers: 1, MaxChunkBytes: 1 << 20, SpectraDir: t.TempDir()})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	chunk := encodeChunk(t, reads[:50])

	small, sreads, _ := hardenFixture(t, ServerOptions{Workers: 1, MaxChunkBytes: 64})
	tsSmall := httptest.NewServer(small.mux())
	defer tsSmall.Close()
	bigChunk := encodeChunk(t, sreads[:50])

	cases := []struct {
		name   string
		method string
		url    string
		body   []byte
		status int
	}{
		{"bad fastq", "POST", ts.URL + "/v2/correct", []byte("not fastq"), 400},
		{"empty chunk", "POST", ts.URL + "/v2/correct", nil, 400},
		{"wrong verb", "GET", ts.URL + "/v2/correct", nil, 405},
		{"unknown engine", "POST", ts.URL + "/v2/correct?engine=bogus", chunk, 400},
		{"unknown spectrum", "POST", ts.URL + "/v2/correct?spectrum=nope", chunk, 404},
		{"oversize chunk", "POST", tsSmall.URL + "/v2/correct", bigChunk, 413},
		{"invalid upload", "POST", ts.URL + "/v2/spectra?name=bad", []byte("garbage"), 400},
		{"bad upload name", "POST", ts.URL + "/v2/spectra?name=.dotfile", chunk, 400},
		{"delete unknown", "DELETE", ts.URL + "/v2/spectra/nope", nil, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.url, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d want %d; body: %s", resp.StatusCode, tc.status, body)
			}
			assertJSONError(t, resp, body)
		})
	}
}

// stallRequest starts a correction request whose body never arrives, so
// it occupies an admission token (and correction slot) until the caller
// finishes the body through the returned pipe writer — abort with
// CloseWithError, or write a valid chunk and Close to let it complete.
// It returns once the server has admitted the request.
func stallRequest(t *testing.T, srv *server, url string) (pw *io.PipeWriter, done <-chan int) {
	t.Helper()
	pr, w := io.Pipe()
	statusc := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "text/x-fastq", pr)
		if err != nil {
			statusc <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statusc <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.occupancy.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request was never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return w, statusc
}

// TestServeShedsWhenSaturated saturates a no-queue server and asserts
// the admission queue's contract: an immediate 429 with Retry-After, a
// JSON error body, and a shed counter the /metrics endpoint exposes.
func TestServeShedsWhenSaturated(t *testing.T) {
	srv, reads, _ := hardenFixture(t, ServerOptions{Workers: 1, MaxInflight: 1, MaxQueue: -1})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	url := ts.URL + "/v2/correct?spectrum=main"

	pw, done := stallRequest(t, srv, url)
	defer pw.Close()

	resp, body := postChunk(t, ts.Client(), url, encodeChunk(t, reads[:20]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status = %d want 429; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	assertJSONError(t, resp, body)
	if got := srv.m.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d want 1", got)
	}
	out := scrapeMetrics(t, ts.URL)
	if !strings.Contains(out, "repro_requests_shed_total 1") {
		t.Errorf("/metrics missing shed counter:\n%s", out)
	}

	pw.Close() // empty body: the stalled request drains as a clean 400
	if st := <-done; st != http.StatusBadRequest {
		t.Errorf("stalled request finished with status %d want 400", st)
	}
}

// TestServeRequestDeadline holds the sole correction slot and asserts
// that a queued request gives up with 504 when -request-timeout elapses,
// without leaking its goroutines.
func TestServeRequestDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, reads, _ := hardenFixture(t, ServerOptions{
		Workers: 1, MaxInflight: 1, MaxQueue: 1, RequestTimeout: 150 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.mux())
	url := ts.URL + "/v2/correct?spectrum=main"

	pw, done := stallRequest(t, srv, url)
	start := time.Now()
	resp, body := postChunk(t, ts.Client(), url, encodeChunk(t, reads[:20]))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status = %d want 504; body: %s", resp.StatusCode, body)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Errorf("504 after %v: returned before the deadline could have fired", waited)
	}
	assertJSONError(t, resp, body)
	out := scrapeMetrics(t, ts.URL)
	if !strings.Contains(out, `repro_request_errors_total{class="deadline"} 1`) {
		t.Errorf("/metrics missing deadline error class:\n%s", out)
	}

	pw.Close()
	<-done
	ts.Close()
	// The timed-out request's handler and the stalled request's plumbing
	// must all unwind — a leak here means cancellation is not propagating.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines: %d before, %d after deadline test", before, n)
	}
}

// TestServeSpectrumUploadSwapDelete walks the hot-management lifecycle:
// upload a spectrum, correct against it, hot-swap it by re-uploading the
// name, delete it mid-flight and observe the in-flight request drain
// unharmed.
func TestServeSpectrumUploadSwapDelete(t *testing.T) {
	dir := t.TempDir()
	srv, reads, storePath := hardenFixture(t, ServerOptions{Workers: 1, SpectraDir: dir})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	specBytes, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	chunk := encodeChunk(t, reads[:50])

	upload := func(name string) map[string]any {
		t.Helper()
		resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/spectra?name="+name, specBytes)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %q: status %d; body: %s", name, resp.StatusCode, body)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("upload response: %v", err)
		}
		return out
	}

	if out := upload("up"); out["replaced"] != false {
		t.Errorf("first upload: replaced = %v want false", out["replaced"])
	}
	if _, err := os.Stat(filepath.Join(dir, "up.kspc")); err != nil {
		t.Errorf("uploaded store not at its published path: %v", err)
	}
	if got := srv.reg.size(); got != 2 {
		t.Fatalf("registry size = %d want 2 after upload", got)
	}

	// The uploaded spectrum serves corrections byte-identically to the
	// startup copy of the same store.
	respUp, bodyUp := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=up", chunk)
	respMain, bodyMain := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=main", chunk)
	if respUp.StatusCode != 200 || respMain.StatusCode != 200 {
		t.Fatalf("correct statuses: up=%d main=%d; up body: %s", respUp.StatusCode, respMain.StatusCode, bodyUp)
	}
	if !bytes.Equal(bodyUp, bodyMain) {
		t.Error("uploaded spectrum corrects differently from the same store loaded at startup")
	}

	// Hot swap: re-uploading the name replaces the entry atomically.
	if out := upload("up"); out["replaced"] != true {
		t.Errorf("re-upload: replaced = %v want true", out["replaced"])
	}

	// Delete while a request is in flight: the entry leaves the registry
	// at once (new requests 404) but the stalled request keeps its hold
	// and corrects successfully against the unmapped-pending spectrum.
	pw, done := stallRequest(t, srv, ts.URL+"/v2/correct?spectrum=up")
	defer pw.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/spectra/up", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d; body: %s", resp.StatusCode, delBody)
	}
	if _, err := os.Stat(filepath.Join(dir, "up.kspc")); !os.IsNotExist(err) {
		t.Errorf("deleted store still on disk (err=%v)", err)
	}
	resp404, body404 := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=up", chunk)
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("correct after delete: status %d want 404; body: %s", resp404.StatusCode, body404)
	}
	// Complete the stalled request's body: the correction must succeed
	// even though its spectrum was deleted (and its store unlinked) while
	// the request was in flight.
	if _, err := pw.Write(chunk); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if st := <-done; st != http.StatusOK {
		t.Errorf("in-flight request during delete finished %d want 200", st)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, line := range []string{
		`repro_spectrum_swaps_total{op="upload"} 1`,
		`repro_spectrum_swaps_total{op="replace"} 1`,
		`repro_spectrum_swaps_total{op="delete"} 1`,
		`repro_spectra_loaded 1`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestServeUploadDeleteVerifyRace hammers the window between an upload's
// background whole-file Verify and a hot delete or swap of the same
// name: the verifier holds the entry like an in-flight request, so the
// drain-then-unmap must wait for the scan instead of pulling the mapping
// out from under it (a crash, and a -race report, without the hold).
func TestServeUploadDeleteVerifyRace(t *testing.T) {
	dir := t.TempDir()
	srv, _, storePath := hardenFixture(t, ServerOptions{Workers: 1, SpectraDir: dir})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	specBytes, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/spectra?name=race", specBytes)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %d: status %d; body: %s", i, resp.StatusCode, body)
		}
		if i%2 == 0 {
			// Delete immediately: the registry hold drops while the fresh
			// upload's verifier may still be scanning.
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/spectra/race", nil)
			dresp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, dresp.Body)
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("delete %d: status %d", i, dresp.StatusCode)
			}
		}
		// Odd iterations leave the entry in place so the next upload takes
		// the hot-swap path, displacing an entry whose verifier may still
		// be running.
	}
}

// TestServeUnserviceableSpectrum corrupts a mapped store's column bytes:
// OpenMapped's eager header checks pass, Verify fails sticky, and every
// correction against the spectrum becomes a clean JSON 503 with the
// spectrum quarantined (no backing path here, so the quarantine is
// permanent and the daemon keeps refusing rather than serving garbage).
func TestServeUnserviceableSpectrum(t *testing.T) {
	_, reads, storePath := hardenFixture(t, ServerOptions{Workers: 1})
	raw, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	raw[30] ^= 0xff // inside the kmer column: breaks ordering and the CRC
	badPath := filepath.Join(t.TempDir(), "bad.kspc")
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := kspectrum.OpenMapped(badPath)
	if err != nil {
		t.Skipf("no mmap on this platform: corruption is caught eagerly (%v)", err)
	}
	defer spec.Close()
	if !spec.Mapped() {
		t.Skip("no mmap on this platform")
	}
	if err := spec.Verify(); err == nil {
		t.Fatal("corrupted store passed Verify")
	}

	srv, err := newServer(map[string]*kspectrum.Spectrum{"bad": spec}, ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=bad", encodeChunk(t, reads[:20]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d want 503; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 quarantine response missing Retry-After")
	}
	assertJSONError(t, resp, body)
	if !strings.Contains(string(body), "quarantined") {
		t.Errorf("error body does not say quarantined: %s", body)
	}
	out := scrapeMetrics(t, ts.URL)
	for _, line := range []string{
		"repro_spectra_quarantined 1",
		`repro_request_errors_total{class="quarantined_spectrum"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
	// The spectrum listing exposes the quarantine so operators can see it
	// without scraping metrics.
	lresp, err := http.Get(ts.URL + "/v2/spectra")
	if err != nil {
		t.Fatal(err)
	}
	lbody, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	var list []struct {
		Name        string `json:"name"`
		Quarantined bool   `json:"quarantined"`
	}
	if err := json.Unmarshal(lbody, &list); err != nil {
		t.Fatalf("/v2/spectra: %v (%s)", err, lbody)
	}
	if len(list) != 1 || !list[0].Quarantined {
		t.Errorf("/v2/spectra = %s, want bad marked quarantined", lbody)
	}
}

// TestServeMetricsEndpoint asserts the scrape contract CI relies on:
// per-engine request counts and latency histograms appear after traffic,
// and the in-flight gauge returns to zero when the daemon is idle.
func TestServeMetricsEndpoint(t *testing.T) {
	srv, reads, _ := hardenFixture(t, ServerOptions{Workers: 1})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	chunk := encodeChunk(t, reads[:50])

	for i := 0; i < 3; i++ {
		resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?engine=reptile&spectrum=main", chunk)
		if resp.StatusCode != 200 {
			t.Fatalf("correct: status %d; body: %s", resp.StatusCode, body)
		}
	}
	if resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=nope", chunk); resp.StatusCode != 404 {
		t.Fatalf("expected 404, got %d: %s", resp.StatusCode, body)
	}

	out := scrapeMetrics(t, ts.URL)
	for _, line := range []string{
		`repro_requests_total{engine="reptile",spectrum="main",code="200"} 3`,
		`repro_requests_total{engine="reptile",spectrum="",code="404"} 1`,
		`repro_request_duration_seconds_count{engine="reptile",spectrum="main"} 3`,
		`repro_request_errors_total{class="unknown_spectrum"} 1`,
		`repro_inflight_requests 0`,
		`repro_spectra_loaded 1`,
		fmt.Sprintf("repro_reads_total %d", 3*50),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("/metrics missing %q in:\n%s", line, out)
		}
	}
}
