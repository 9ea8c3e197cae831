package cli

import (
	"errors"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/kspectrum"
	"repro/internal/remote"
	"repro/internal/reptile"
)

// entry is one registry slot: a loaded spectrum plus the per-engine
// service slots derived from it — one neighbor index and one EM fit per
// (spectrum, engine). The Reptile slot is built eagerly at registration
// (the first request pays no index-build latency), the rest on first
// use, because many deployments serve a single algorithm.
type entry struct {
	name string
	// backend is the spectrum as the query seam shows it — Local(spec) on
	// a local entry, remote itself on a coordinator's — and the one place
	// geometry (K, Len, BothStrands) and sticky health (Err) are read.
	backend kspectrum.SpectrumBackend
	// spec is a local entry's columns: what /v2/query answers from, the
	// integrity scans walk and the engines adopt. Nil on a remote entry.
	spec *kspectrum.Spectrum

	// services are the per-engine correctors, keyed by engine name and
	// built at most once through engine.Servicer.
	services map[string]*serviceSlot

	// refs counts the entry's holders: one for registry membership plus
	// one per in-flight request using it. Hot swap and delete drop the
	// registry hold and let in-flight requests drain — the spectrum is
	// only released when the count reaches zero, so an unmap can never
	// pull pages out from under a running correction.
	refs atomic.Int64
	// owned marks spectra the server itself opened (uploads, quarantine
	// restores): the final release closes them. Startup spectra belong
	// to the caller, which closes them at process exit.
	owned bool
	// path is the store file backing the spectrum: set for uploads
	// (removed when the entry is deleted) and for startup spectra whose
	// path the caller declared via ServerOptions.SpectrumPaths. The
	// quarantine probe repairs from it; without a path a quarantine is
	// permanent until the operator re-uploads or deletes the name.
	path string

	// quarantined flips true when the spectrum's integrity checks fail
	// sticky (lazy bucket validation or the whole-file scan): requests
	// answer 503 instead of silently useless corrections, and a single
	// background probe (the CAS is the spawn dedup) retries the backing
	// file until it verifies again or the entry leaves the registry.
	quarantined atomic.Bool

	// remote is set on coordinator entries: backend again, typed for the
	// batch queries and shard map the seam does not carry. Remote entries
	// never quarantine — node failures surface per-request as
	// shard-unavailable 503s.
	remote *remote.RemoteSpectrum
	// shard is set on node-side shard entries: the metadata GET
	// /v2/shards advertises to discovering coordinators.
	shard *remote.ShardInfo
	// nis caches the per-radius neighbor indexes POST /v2/query d>0
	// answers are served from, built lazily per distinct d.
	nimu sync.Mutex
	nis  map[int]*kspectrum.NeighborIndex
}

// neighborIndex resolves the entry's shared NeighborIndex for radius d,
// building it at most once per distinct d (c = min(k, d+4), the same
// derivation the correction engines use, so node answers are identical
// to local ones). Only valid on local entries.
func (e *entry) neighborIndex(d int) (*kspectrum.NeighborIndex, error) {
	e.nimu.Lock()
	defer e.nimu.Unlock()
	if ni, ok := e.nis[d]; ok {
		return ni, nil
	}
	c := min(e.spec.K, d+4)
	var (
		ni  *kspectrum.NeighborIndex
		err error
	)
	if e.spec.Mapped() {
		ni, err = kspectrum.NewNeighborIndexLazy(e.spec, d, c)
	} else {
		ni, err = kspectrum.NewNeighborIndex(e.spec, d, c)
	}
	if err != nil {
		return nil, err
	}
	if e.nis == nil {
		e.nis = make(map[int]*kspectrum.NeighborIndex)
	}
	e.nis[d] = ni
	return ni, nil
}

// acquire takes a request hold on the entry.
func (e *entry) acquire() { e.refs.Add(1) }

// release drops one hold; the last hold on an owned entry closes the
// spectrum (for mapped spectra: unmaps the file). Safe on nil, so
// spectrum-free request paths can release unconditionally.
func (e *entry) release() {
	if e == nil {
		return
	}
	if e.refs.Add(-1) == 0 && e.owned {
		if err := e.backend.Close(); err != nil {
			log.Printf("spectrum %q: close after drain: %v", e.name, err)
		}
	}
}

// serviceSlot builds one engine's chunk corrector at most once.
type serviceSlot struct {
	once sync.Once
	svc  engine.ChunkCorrector
	err  error
}

// specRegistry is the daemon's mutable spectrum table. Reads (every
// correction request) take a read lock and a refcount; writes (upload,
// swap, delete) take the write lock only to splice the map, never while
// doing I/O — validation and store writes happen before the entry is
// published, so a swap is one pointer exchange and in-flight requests on
// the displaced entry drain against their own hold.
type specRegistry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// get resolves a name to an acquired entry (the caller must release),
// or nil when unknown.
func (reg *specRegistry) get(name string) *entry {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	e := reg.entries[name]
	if e != nil {
		e.acquire()
	}
	return e
}

// sole acquires the single registered entry when exactly one exists;
// the count lets callers phrase the ambiguity error.
func (reg *specRegistry) sole() (*entry, int) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	if len(reg.entries) == 1 {
		for _, e := range reg.entries {
			e.acquire()
			return e, 1
		}
	}
	return nil, len(reg.entries)
}

// put publishes an entry, displacing and returning any previous holder
// of the name (the caller releases the displaced entry's registry hold).
func (reg *specRegistry) put(e *entry) *entry {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	old := reg.entries[e.name]
	reg.entries[e.name] = e
	return old
}

// current returns the entry a name maps to right now, without acquiring
// a hold: only valid for identity checks (is this still the entry my
// probe quarantined?), never for serving corrections.
func (reg *specRegistry) current(name string) *entry {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return reg.entries[name]
}

// replaceIf atomically swaps old for repaired, but only when old is
// still the name's registered entry — a concurrent upload or delete
// wins, and the caller discards the repaired entry. On success the
// caller releases old's registry hold; repaired starts with its own.
func (reg *specRegistry) replaceIf(old, repaired *entry) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.entries[old.name] != old {
		return false
	}
	reg.entries[repaired.name] = repaired
	return true
}

// countQuarantined tallies the registered entries currently quarantined;
// the gauge is recomputed from this after every transition, so no
// inc/dec pairing can drift.
func (reg *specRegistry) countQuarantined() int {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	n := 0
	for _, e := range reg.entries {
		if e.quarantined.Load() {
			n++
		}
	}
	return n
}

// remove unpublishes a name, returning the displaced entry (the caller
// releases its registry hold) or nil.
func (reg *specRegistry) remove(name string) *entry {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e := reg.entries[name]
	delete(reg.entries, name)
	return e
}

// size reports the number of registered spectra.
func (reg *specRegistry) size() int {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return len(reg.entries)
}

// names lists the registered names, sorted.
func (reg *specRegistry) names() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]string, 0, len(reg.entries))
	for name := range reg.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// snapshot returns the current entries sorted by name, without acquiring
// holds: valid for metadata reads (name, k, size, capability checks) —
// struct fields stay readable after a concurrent close — but not for
// serving corrections.
func (reg *specRegistry) snapshot() []*entry {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]*entry, 0, len(reg.entries))
	for _, e := range reg.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// newEntry builds a registry slot for a loaded spectrum; the entry
// starts with the registry's hold.
func (s *server) newEntry(name string, spec *kspectrum.Spectrum) *entry {
	return s.initEntry(&entry{name: name, backend: kspectrum.Local(spec), spec: spec})
}

// initEntry gives a local or remote entry its registry hold and
// per-engine service slots, and resolves the Reptile slot eagerly so the
// first request pays no index-build latency. A spectrum Reptile cannot
// serve (k > 16 overflows the packed 2k-base tile — the declared
// MaxSpectrumK capability) is not fatal: it still serves the other
// engines, and engine=reptile requests get the capability reason back as
// a clean 400.
func (s *server) initEntry(e *entry) *entry {
	e.services = make(map[string]*serviceSlot)
	e.refs.Store(1)
	for _, engName := range engine.Names() {
		e.services[engName] = &serviceSlot{}
	}
	if rep, err := engine.Lookup(reptile.EngineName); err == nil {
		if _, err := s.service(rep, e); err != nil {
			log.Printf("spectrum %q cannot serve %s (%v)", e.name, reptile.EngineName, err)
		}
	}
	return e
}

// spectrumNameRE admits registry names that are safe as both URL path
// segments and file names: leading alphanumeric, then up to 63 of
// [A-Za-z0-9._-]. The leading-alphanumeric rule excludes dotfiles and
// any traversal spelling.
var spectrumNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// handleSpectraUpload is POST /v2/spectra?name=NAME: the request body is
// a .kspc spectrum store, persisted with the store's temp+rename
// discipline, opened via OpenMapped (header validated eagerly, whole
// file verified in the background — a failure turns that spectrum's
// requests into clean 500s), and published atomically. Re-uploading an
// existing name is the hot-swap path: the new entry replaces the old in
// one registry splice, and in-flight requests on the old spectrum drain
// against their refcount before it is closed.
func (s *server) handleSpectraUpload(w http.ResponseWriter, r *http.Request) {
	if s.opts.SpectraDir == "" {
		s.errorJSON(w, http.StatusServiceUnavailable, errClassDisabled,
			"spectrum uploads are disabled: the server has no spectra directory")
		return
	}
	name := r.URL.Query().Get("name")
	if !spectrumNameRE.MatchString(name) {
		s.errorJSON(w, http.StatusBadRequest, errClassBadRequest,
			"name parameter %q: want a leading alphanumeric then [A-Za-z0-9._-], at most 64 chars", name)
		return
	}

	// Temp+rename discipline: the bytes land in a dot-temp file in the
	// same directory, are validated, and only then take the final name —
	// a crashed or rejected upload never leaves a half-written .kspc
	// behind the daemon's back.
	tmp, err := os.CreateTemp(s.opts.SpectraDir, "."+name+".upload-*")
	if err != nil {
		s.errorJSON(w, http.StatusInternalServerError, errClassInternal, "staging upload: %v", err)
		return
	}
	tmpPath := tmp.Name()
	discard := func() { os.Remove(tmpPath) }
	capped := http.MaxBytesReader(w, r.Body, s.opts.MaxSpectrumBytes)
	_, err = io.Copy(tmp, capped)
	if err2 := tmp.Close(); err == nil {
		err = err2
	}
	if err != nil {
		discard()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.errorJSON(w, http.StatusRequestEntityTooLarge, errClassTooLarge,
				"spectrum exceeds the %d-byte upload cap", s.opts.MaxSpectrumBytes)
			return
		}
		s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "reading upload: %v", err)
		return
	}

	// OpenMapped validates the header (magic, version, k, count) eagerly;
	// on platforms without mmap it falls back to the copying reader,
	// which validates everything. The mapping follows the inode, so the
	// rename below does not disturb it.
	spec, err := engine.LoadSpectrumForK(tmpPath, 0)
	if err != nil {
		discard()
		s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "invalid spectrum upload: %v", err)
		return
	}
	final := filepath.Join(s.opts.SpectraDir, name+".kspc")
	if err := os.Rename(tmpPath, final); err != nil {
		spec.Close()
		discard()
		s.errorJSON(w, http.StatusInternalServerError, errClassInternal, "publishing upload: %v", err)
		return
	}
	e := s.newEntry(name, spec)
	e.owned = true
	e.path = final
	old := s.reg.put(e)
	s.verifyInBackground(e)
	op := "upload"
	if old != nil {
		op = "replace"
		old.release() // registry hold; closes once in-flight requests drain
	}
	s.m.swaps.With(op).Inc()
	s.m.spectra.Set(int64(s.reg.size()))
	s.updateQuarantineGauge()
	log.Printf("spectrum %q %sed: k=%d, %d kmers (%s)", name, op, spec.K, spec.Size(), final)

	writeJSON(w, http.StatusCreated, map[string]any{
		"name":     name,
		"k":        spec.K,
		"kmers":    spec.Size(),
		"mapped":   spec.Mapped(),
		"replaced": old != nil,
	})
}

// handleSpectraDelete is DELETE /v2/spectra/{name}: the entry leaves the
// registry immediately (new requests 404), in-flight requests drain
// against their holds, and an uploaded spectrum's store file is removed.
func (s *server) handleSpectraDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e := s.reg.remove(name)
	if e == nil {
		s.errorJSON(w, http.StatusNotFound, errClassUnknownSpectrum,
			"unknown spectrum %q (loaded: %s)", name, joinOr(s.reg.names(), "none"))
		return
	}
	if e.owned && e.path != "" {
		// The unlink is safe under in-flight mappings: the inode lives
		// until the last mapping is released.
		if err := os.Remove(e.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			log.Printf("spectrum %q: removing %s: %v", name, e.path, err)
		}
	}
	e.release() // registry hold
	s.m.swaps.With("delete").Inc()
	s.m.spectra.Set(int64(s.reg.size()))
	s.updateQuarantineGauge()
	log.Printf("spectrum %q deleted", name)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// joinOr renders a sorted name list, or a placeholder when empty.
func joinOr(names []string, empty string) string {
	if len(names) == 0 {
		return empty
	}
	return strings.Join(names, ", ")
}
