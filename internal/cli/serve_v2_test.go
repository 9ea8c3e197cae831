package cli

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/simulate"
)

// TestServeV2UnknownEngine: the daemon surfaces the registry's typed
// lookup error — unknown names report what is registered. SHREC is a
// reference for the tables, not a registered engine.
func TestServeV2UnknownEngine(t *testing.T) {
	srv, reads, _ := testFixture(t, ServerOptions{Workers: 1})
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	chunk, err := fastq.EncodeChunk(reads[:10])
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"nope", "shrec"} {
		resp, body := postChunk(t, ts.Client(), ts.URL+"/v2/correct?engine="+engine, chunk)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("engine=%s: status %d want 400", engine, resp.StatusCode)
		}
		if !strings.Contains(string(body), "registered: redeem, reptile)") {
			t.Errorf("engine=%s: error %q does not list redeem and reptile", engine, body)
		}
	}
	if got := srv.m.errors.With(errClassUnknownEngine).Value(); got != 2 {
		t.Errorf("%s errors = %d want 2", errClassUnknownEngine, got)
	}
}

// TestServeV2Engines: /v2/engines reports each engine's max spectrum k
// and per-spectrum servability, replacing the hand-rolled k>16 special
// case.
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
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fields []map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		if len(f) != 3 || f["name"] == nil || f["max_spectrum_k"] == nil || f["spectra"] == nil {
			t.Errorf("entry %v: want exactly name, max_spectrum_k, spectra", f)
		}
	}
	var engines []struct {
		Name         string   `json:"name"`
		MaxSpectrumK int      `json:"max_spectrum_k"`
		Spectra      []string `json:"spectra"`
	}
	if err := json.Unmarshal(raw, &engines); err != nil {
		t.Fatal(err)
	}
	if len(engines) != 2 {
		t.Errorf("/v2/engines lists %d engines want 2: %s", len(engines), raw)
	}
	byName := map[string]int{}
	for i, e := range engines {
		byName[e.Name] = i
	}
	rep, ok := byName["reptile"]
	if !ok {
		t.Fatal("reptile missing from /v2/engines")
	}
	if got := engines[rep]; got.MaxSpectrumK != 16 || strings.Join(got.Spectra, ",") != "narrow" {
		t.Errorf("reptile entry = %+v", got)
	}
	red, ok := byName["redeem"]
	if !ok {
		t.Fatal("redeem missing from /v2/engines")
	}
	if got := engines[red]; got.MaxSpectrumK != 32 || strings.Join(got.Spectra, ",") != "narrow,wide" {
		t.Errorf("redeem entry = %+v", got)
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
