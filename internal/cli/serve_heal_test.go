package cli

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/kspectrum"
)

// TestServePanicRecovery injects a one-shot panic into the correction
// middleware and asserts the daemon's self-defense contract: the
// poisoned request answers a JSON 500, the panic error class counts,
// and the very next request corrects normally — the daemon survives its
// own bugs.
func TestServePanicRecovery(t *testing.T) {
	srv, reads, _ := hardenFixture(t, ServerOptions{Workers: 1})
	defer srv.close()
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	chunk := encodeChunk(t, reads[:20])
	url := ts.URL + "/v2/correct?spectrum=main"

	disable := faultinject.Enable(&faultinject.Rule{
		Site: "serve.request", Op: faultinject.OpAny, Nth: 1, Panic: true,
	})
	defer disable()

	resp, body := postChunk(t, ts.Client(), url, chunk)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status = %d want 500; body: %s", resp.StatusCode, body)
	}
	assertJSONError(t, resp, body)
	if !strings.Contains(string(body), "panic") {
		t.Errorf("error body does not mention the panic: %s", body)
	}

	// The rule was one-shot: the daemon must still be serving.
	resp2, body2 := postChunk(t, ts.Client(), url, chunk)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status = %d want 200; body: %s", resp2.StatusCode, body2)
	}
	out := scrapeMetrics(t, ts.URL)
	for _, line := range []string{
		`repro_request_errors_total{class="panic"} 1`,
		`repro_requests_total{engine="reptile",spectrum="main",code="200"} 1`,
		"repro_inflight_requests 0",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("/metrics missing %q in:\n%s", line, out)
		}
	}
}

// TestServeQuarantineRestore is the self-healing round trip: a spectrum
// whose store is corrupt on disk quarantines at startup (background
// verification), requests answer 503, and once the file is repaired the
// probe loop re-opens, re-verifies and atomically restores it — requests
// succeed again with no operator action and no restart.
func TestServeQuarantineRestore(t *testing.T) {
	_, reads, storePath := hardenFixture(t, ServerOptions{Workers: 1})
	chunkBody := encodeChunk(t, reads[:20])

	// Corrupt one kmer-column byte in place BEFORE the server maps the
	// file (never truncate or rewrite a file that may be mapped).
	f, err := os.OpenFile(storePath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]byte, 1)
	if _, err := f.ReadAt(orig, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{orig[0] ^ 0xff}, 30); err != nil {
		t.Fatal(err)
	}

	spec, err := engine.LoadSpectrumForK(storePath, 0)
	if err != nil {
		f.Close()
		t.Skipf("no mmap on this platform: corruption is caught eagerly (%v)", err)
	}
	defer spec.Close()
	if !spec.Mapped() {
		f.Close()
		t.Skip("no mmap on this platform")
	}
	// Make the sticky error deterministic before the server starts: the
	// first request then answers 503 whether the background verifier or
	// the request path's own check quarantines first.
	if err := spec.Verify(); err == nil {
		f.Close()
		t.Fatal("corrupted store passed Verify")
	}

	srv, err := newServer(map[string]*kspectrum.Spectrum{"main": spec}, ServerOptions{
		Workers:        1,
		SpectrumPaths:  map[string]string{"main": storePath},
		QuarantineBase: 5 * time.Millisecond,
		QuarantineMax:  20 * time.Millisecond,
	})
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	defer srv.close()
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	url := ts.URL + "/v2/correct?spectrum=main"

	// The background verifier (or the first request's sticky-error check)
	// quarantines the spectrum; either way the request must answer 503.
	resp, body := postChunk(t, ts.Client(), url, chunkBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		f.Close()
		t.Fatalf("corrupt spectrum: status = %d want 503; body: %s", resp.StatusCode, body)
	}
	assertJSONError(t, resp, body)

	// Repair the store in place. The probe's next attempt re-opens the
	// file, verifies the whole store, and restores service.
	if _, err := f.WriteAt(orig, 30); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	deadline := time.Now().Add(10 * time.Second)
	var last int
	var lastBody []byte
	for time.Now().Before(deadline) {
		resp, body := postChunk(t, ts.Client(), url, chunkBody)
		last, lastBody = resp.StatusCode, body
		if last == http.StatusOK {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if last != http.StatusOK {
		t.Fatalf("spectrum never restored: final status %d; body: %s", last, lastBody)
	}

	// The restored entry must serve the same corrections as a clean load.
	cleanSpec, err := kspectrum.ReadSpectrumFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanSpec.Close()
	cleanSrv, err := newServer(map[string]*kspectrum.Spectrum{"main": cleanSpec}, ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanSrv.close()
	tsClean := httptest.NewServer(cleanSrv.mux())
	defer tsClean.Close()
	respClean, bodyClean := postChunk(t, tsClean.Client(), tsClean.URL+"/v2/correct?spectrum=main", chunkBody)
	if respClean.StatusCode != http.StatusOK {
		t.Fatalf("clean server: status %d; body: %s", respClean.StatusCode, bodyClean)
	}
	if !bytes.Equal(lastBody, bodyClean) {
		t.Error("restored spectrum corrects differently from a clean load")
	}

	out := scrapeMetrics(t, ts.URL)
	for _, line := range []string{
		"repro_spectra_quarantined 0",
		`repro_spectrum_swaps_total{op="restore"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("/metrics missing %q in:\n%s", line, out)
		}
	}
}

// TestServeQuarantineDeleteWins quarantines a spectrum with no hope of
// repair (the backing file stays corrupt) and deletes it: the probe must
// stand down, the gauge must drop to zero, and the name must 404 — the
// operator's resolution beats the probe's.
func TestServeQuarantineDeleteWins(t *testing.T) {
	_, reads, storePath := hardenFixture(t, ServerOptions{Workers: 1})
	chunkBody := encodeChunk(t, reads[:20])

	f, err := os.OpenFile(storePath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 30); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spec, err := engine.LoadSpectrumForK(storePath, 0)
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

	srv, err := newServer(map[string]*kspectrum.Spectrum{"doomed": spec}, ServerOptions{
		Workers:        1,
		SpectrumPaths:  map[string]string{"doomed": storePath},
		QuarantineBase: 5 * time.Millisecond,
		QuarantineMax:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=doomed", chunkBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("corrupt spectrum: status = %d want 503; body: %s", resp.StatusCode, body)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/spectra/doomed", nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}

	resp404, _ := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=doomed", chunkBody)
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("correct after delete: status %d want 404", resp404.StatusCode)
	}
	// The gauge recomputes from the registry, so the deleted quarantined
	// entry stops counting even while its probe unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for srv.reg.countQuarantined() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	srv.updateQuarantineGauge()
	if out := scrapeMetrics(t, ts.URL); !strings.Contains(out, "repro_spectra_quarantined 0") {
		t.Errorf("/metrics still counts a deleted spectrum as quarantined:\n%s", out)
	}
}
