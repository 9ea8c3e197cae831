package cli

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/simulate"
)

// TestServeV2Shrec: the capability-driven path makes SHREC servable
// without any spectrum parameter.
func TestServeV2Shrec(t *testing.T) {
	srv, reads, _ := testFixture(t, ServerOptions{Workers: 1})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	chunk, err := fastq.EncodeChunk(reads[:200])
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?engine=shrec", chunk)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v2 shrec status %d: %s", resp.StatusCode, body)
	}
	out, err := fastq.DecodeChunk(bytes.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 200 {
		t.Errorf("shrec returned %d reads want 200", len(out))
	}
	if h := resp.Header.Get("X-Kserve-Method"); h != "shrec" {
		t.Errorf("X-Kserve-Method = %q", h)
	}
}

// TestServeV2UnknownEngine: the daemon surfaces the registry's typed
// lookup error — unknown names report what is registered.
func TestServeV2UnknownEngine(t *testing.T) {
	srv, reads, _ := testFixture(t, ServerOptions{Workers: 1})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	chunk, err := fastq.EncodeChunk(reads[:10])
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?engine=nope", chunk)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown engine status %d want 400", resp.StatusCode)
	}
	for _, name := range []string{"redeem", "reptile", "shrec"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("unknown-engine error %q does not list %s", body, name)
		}
	}
}

// TestServeV2Engines: /v2/engines reports capabilities and per-spectrum
// servability, replacing the hand-rolled k>16 special case.
func TestServeV2Engines(t *testing.T) {
	// One k=11 spectrum every engine serves, one k=20 spectrum only
	// REDEEM can.
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 4000, ReadLen: 36, Coverage: 15,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	narrow, err := kspectrum.Build(reads, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := kspectrum.Build(reads, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(map[string]*kspectrum.Spectrum{"narrow": narrow, "wide": wide}, ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v2/engines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var engines []struct {
		Name          string   `json:"name"`
		Streaming     bool     `json:"streaming"`
		SpectrumReuse bool     `json:"spectrum_reuse"`
		MaxSpectrumK  int      `json:"max_spectrum_k"`
		Spectra       []string `json:"spectra"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&engines); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, e := range engines {
		byName[e.Name] = i
	}
	rep, ok := byName["reptile"]
	if !ok {
		t.Fatal("reptile missing from /v2/engines")
	}
	if got := engines[rep]; !got.Streaming || !got.SpectrumReuse || got.MaxSpectrumK != 16 ||
		strings.Join(got.Spectra, ",") != "narrow" {
		t.Errorf("reptile entry = %+v", got)
	}
	red, ok := byName["redeem"]
	if !ok {
		t.Fatal("redeem missing from /v2/engines")
	}
	if got := engines[red]; strings.Join(got.Spectra, ",") != "narrow,wide" {
		t.Errorf("redeem entry = %+v", got)
	}
	sh, ok := byName["shrec"]
	if !ok {
		t.Fatal("shrec missing from /v2/engines")
	}
	if got := engines[sh]; got.SpectrumReuse || strings.Join(got.Spectra, ",") != "*" {
		t.Errorf("shrec entry = %+v", got)
	}

	// The declared boundary is enforced: reptile on the wide spectrum is
	// a clean 400 carrying the capability explanation.
	chunk, err := fastq.EncodeChunk(reads[:10])
	if err != nil {
		t.Fatal(err)
	}
	r2, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=wide&engine=reptile", chunk)
	if r2.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "max spectrum k") {
		t.Errorf("reptile on k=20 spectrum: status %d body %q", r2.StatusCode, body)
	}
	// And the same spectrum still serves REDEEM through /v2.
	r3, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?spectrum=wide&engine=redeem", chunk)
	if r3.StatusCode != http.StatusOK {
		t.Errorf("redeem on k=20 spectrum: status %d body %q", r3.StatusCode, body)
	}
}
