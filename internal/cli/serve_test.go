package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/redeem"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// testFixture builds a corpus, persists its spectrum through the store
// (exercising the same load path the daemon uses), and returns the server
// plus the reads and spectrum.
func testFixture(t *testing.T, opts ServerOptions) (*server, []seq.Read, *kspectrum.Spectrum) {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 6000, ReadLen: 36, Coverage: 30,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	built, err := kspectrum.Build(reads, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.kspc")
	if err := kspectrum.WriteSpectrumFile(path, built); err != nil {
		t.Fatal(err)
	}
	spec, err := kspectrum.ReadSpectrumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(map[string]*kspectrum.Spectrum{"main": spec, "alt": spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, reads, spec
}

func postChunk(t *testing.T, client *http.Client, url string, chunk []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "text/x-fastq", bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeEndpoints covers the metadata endpoints and the error paths of
// the request lifecycle.
func TestServeEndpoints(t *testing.T) {
	srv, reads, _ := testFixture(t, ServerOptions{Workers: 1, MaxChunkReads: 100})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["spectra"] != float64(2) {
		t.Errorf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/v2/spectra")
	if err != nil {
		t.Fatal(err)
	}
	var specs []struct {
		Name        string `json:"name"`
		K           int    `json:"k"`
		Kmers       int    `json:"kmers"`
		BothStrands bool   `json:"both_strands"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&specs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(specs) != 2 || specs[0].Name != "alt" || specs[1].Name != "main" || specs[0].K != 11 || !specs[0].BothStrands {
		t.Errorf("spectra = %+v", specs)
	}

	chunk, err := fastq.EncodeChunk(reads[:50])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, url, body string
		status          int
	}{
		{"unknown spectrum", "/v2/correct?spectrum=nope", string(chunk), http.StatusNotFound},
		{"ambiguous spectrum", "/v2/correct", string(chunk), http.StatusBadRequest},
		{"unknown engine", "/v2/correct?spectrum=main&engine=bogus", string(chunk), http.StatusBadRequest},
		{"bad fastq", "/v2/correct?spectrum=main", "not a fastq", http.StatusBadRequest},
		{"empty chunk", "/v2/correct?spectrum=main", "", http.StatusBadRequest},
		// The one API version is /v2: the retired /v1 routes are the
		// mux's plain 404.
		{"retired v1 correct", "/v1/correct?spectrum=main", string(chunk), http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, _ := postChunk(t, ts.Client(), ts.URL+tc.url, []byte(tc.body))
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// Oversized chunk: MaxChunkReads is 100, send more.
	big, err := fastq.EncodeChunk(reads[:150])
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=main", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized chunk: status %d want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}

	// Wrong verb.
	resp, err = http.Get(ts.URL + "/v2/correct?spectrum=main")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/correct: status %d want 405", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/spectra")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("retired v1 spectra listing: status %d want 404", resp.StatusCode)
	}
}

// TestServeRedeemOnlySpectrum: a spectrum Reptile cannot serve (k > 16
// overflows the packed 2k-base tile) must not kill the daemon — it loads,
// lists under REDEEM only, serves REDEEM, and answers engine=reptile with
// a clean 400 naming the MaxSpectrumK capability.
func TestServeRedeemOnlySpectrum(t *testing.T) {
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 4000, ReadLen: 36, Coverage: 20,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	spec, err := kspectrum.Build(reads, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(map[string]*kspectrum.Spectrum{"wide": spec}, ServerOptions{Workers: 1})
	if err != nil {
		t.Fatalf("k=20 spectrum rejected at registration: %v", err)
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	chunk, err := fastq.EncodeChunk(reads[:50])
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?engine=reptile", chunk)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("k=20 exceeds max spectrum k 16")) {
		t.Errorf("engine=reptile on k=20 spectrum: status %d body %q", resp.StatusCode, body)
	}
	resp, body = postChunk(t, ts.Client(), ts.URL+"/v2/correct?engine=redeem", chunk)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("engine=redeem on k=20 spectrum: status %d body %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/v2/engines")
	if err != nil {
		t.Fatal(err)
	}
	var engines []struct {
		Name    string   `json:"name"`
		Spectra []string `json:"spectra"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&engines); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	listed := map[string]string{}
	for _, e := range engines {
		listed[e.Name] = strings.Join(e.Spectra, ",")
	}
	if listed["redeem"] != "wide" || listed["reptile"] != "" {
		t.Errorf("/v2/engines lists the k=20 spectrum under %v, want redeem only", listed)
	}
}

// TestServeCorrectConcurrent is the acceptance test of the serve path:
// 12 parallel clients (≥ 8), alternating algorithms, through a semaphore
// narrower than the client count, each response byte-identical to the
// locally computed reference for its method. One worker a request is the
// shape whose tile tables, scratch and reply buffers pass between requests
// through pools. Run under -race (CI does).
func TestServeCorrectConcurrent(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { serveCorrectConcurrent(t, workers) })
	}
}

func serveCorrectConcurrent(t *testing.T, workers int) {
	srv, reads, spec := testFixture(t, ServerOptions{Workers: workers, MaxInflight: 3})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	chunk := reads[:600]
	body, err := fastq.EncodeChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}

	// Reference outputs, computed without the server.
	svc, err := reptile.NewService(spec, reptile.Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	repOut, err := svc.CorrectChunk(context.Background(), chunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantReptile, err := fastq.EncodeChunk(repOut)
	if err != nil {
		t.Fatal(err)
	}
	cfg := redeem.DefaultConfig(spec.K)
	cfg.Spectrum = spec
	m, err := redeem.NewFromSpectrum(spec, simulate.NewUniformKmerModel(spec.K, 0.01), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	thr, _, err := m.InferThreshold(1, redeem.MixtureMaxG)
	if err != nil {
		t.Fatal(err)
	}
	redeemOut, err := m.CorrectReadsCtx(context.Background(), chunk, thr, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantRedeem, err := fastq.EncodeChunk(redeemOut)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		method := "reptile"
		want := wantReptile
		if c%2 == 1 {
			method = "redeem"
			want = wantRedeem
		}
		wg.Add(1)
		go func(method string, want []byte) {
			defer wg.Done()
			resp, err := ts.Client().Post(
				fmt.Sprintf("%s/v2/correct?spectrum=main&engine=%s", ts.URL, method),
				"text/x-fastq", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d: %s", method, resp.StatusCode, got)
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("%s: response diverges from local reference", method)
				return
			}
			if h := resp.Header.Get("X-Kserve-Reads"); h != "600" {
				errs <- fmt.Errorf("%s: X-Kserve-Reads = %q want 600", method, h)
				return
			}
			if resp.Header.Get("X-Kserve-Method") != method {
				errs <- fmt.Errorf("method header mismatch")
			}
		}(method, want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := srv.requests.Load(); got != clients {
		t.Errorf("request counter = %d want %d", got, clients)
	}
	if got := srv.m.reads.Value(); got != clients*600 {
		t.Errorf("read counter = %d want %d", got, clients*600)
	}

	// The corrected output is itself valid FASTQ with preserved IDs.
	out, err := fastq.DecodeChunk(bytes.NewReader(wantReptile), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(chunk) {
		t.Fatalf("reference decodes to %d reads want %d", len(out), len(chunk))
	}
	for i := range out {
		if out[i].ID != chunk[i].ID {
			t.Fatalf("read %d: ID %q want %q", i, out[i].ID, chunk[i].ID)
		}
	}
	// And correction must actually help: strictly more corrected reads
	// match nothing? (quality asserted elsewhere); here just confirm some
	// change happened so the serve path is not an identity shim.
	if bytes.Equal(wantReptile, body) && bytes.Equal(wantRedeem, body) {
		t.Error("server output identical to input for both methods — no correction happened")
	}
}

// TestServeRedeemMatchesCLI: the daemon and `repro redeem -load-spectrum`
// fit REDEEM to the same spectrum with the same mixture sweep, so they
// correct a chunk of the 50 %-repeat rung to the same bytes. The daemon once
// swept G ≤ 3 and the CLI G ≤ 4: here that is threshold 11.06 against 11.11,
// which corrects two of the rung's 66 666 reads differently, one of them in
// this chunk.
func TestServeRedeemMatchesCLI(t *testing.T) {
	ds, err := simulate.BuildDataset(simulate.Chapter3Specs(30000)[1])
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	spec, err := kspectrum.BuildParallel(reads, 11, true, kspectrum.BuildOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, in, out := filepath.Join(dir, "d2.kspc"), filepath.Join(dir, "chunk.fastq"), filepath.Join(dir, "out.fastq")
	if err := kspectrum.WriteSpectrumFile(store, spec); err != nil {
		t.Fatal(err)
	}
	chunk, err := fastq.EncodeChunk(reads[22000:23000])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, chunk, 0o644); err != nil {
		t.Fatal(err)
	}
	want := runSubcommand(t, redeemCmd, []string{"-in", in, "-out", out, "-load-spectrum", store, "-workers", "1"}, out)

	srv, err := newServer(map[string]*kspectrum.Spectrum{"d2": spec}, ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/correct?spectrum=d2&engine=redeem", bytes.NewReader(chunk)))
	if rec.Code != http.StatusOK {
		t.Fatalf("daemon redeem: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Error("the daemon's redeem reply differs from repro redeem -load-spectrum on the same reads")
	}
}
