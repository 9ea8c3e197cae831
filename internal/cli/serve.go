package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/redeem"
	"repro/internal/remote"
	"repro/internal/reptile"
	"repro/internal/seq"
)

// serveCmd is the correction-as-a-service daemon: it loads one or more
// persisted k-spectra into a named registry at startup and serves
// correction requests over HTTP from then on, so the expensive Phase-1
// spectrum work is paid once per corpus instead of once per invocation.
//
// Endpoints:
//
//	POST /v2/correct?spectrum=NAME&engine=NAME
//	    A FASTQ chunk in, the corrected chunk out, with X-Kserve-* stat
//	    headers. Any engine whose declared capabilities allow the request
//	    is servable — including SHREC, which needs no spectrum — and
//	    unknown engine names report the registered ones. engine defaults
//	    to reptile.
//	GET /v2/engines
//	    JSON list of the registered engines: capabilities plus which
//	    loaded spectra each can serve.
//	GET /v2/spectra
//	    JSON list of the loaded spectra (name, k, kmers, both_strands).
//	POST /v2/spectra?name=NAME
//	    Upload a .kspc spectrum store and serve it without a restart;
//	    re-uploading an existing name hot-swaps it atomically while
//	    in-flight requests on the old spectrum drain.
//	DELETE /v2/spectra/{name}
//	    Unregister a spectrum; in-flight requests drain cleanly.
//	GET /metrics
//	    Prometheus text exposition: per-engine/per-spectrum request
//	    counts and latency histograms, error classes, shed counter,
//	    in-flight gauge, corrected reads/bases counters.
//	GET /healthz
//	    Liveness plus aggregate request counters.
//
// Concurrency is bounded by a semaphore of -max-inflight slots fronted
// by a bounded admission queue of -max-queue waiters: a request arriving
// beyond inflight+queue is shed immediately with 429 and Retry-After
// instead of queueing without bound. -request-timeout is the end-to-end
// per-request deadline (queue wait included): exceeding it cancels the
// correction work and answers 504. All error responses are
// application/json {"error": "..."}. A dropped request's context cancels
// its correction work. SIGINT/SIGTERM drain in-flight requests before
// exit.
func serveCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("serve")
	var specs specFlags
	var (
		listen         = fs.String("listen", ":8424", "HTTP listen address")
		maxInflight    = fs.Int("max-inflight", 0, "max concurrent correction requests (0 = 2x GOMAXPROCS)")
		maxQueue       = fs.Int("max-queue", 0, "max requests waiting for a correction slot before shedding with 429 (0 = 4x max-inflight, -1 = no queue)")
		requestTimeout = fs.Duration("request-timeout", time.Minute, "end-to-end deadline per correction request, queue wait included; exceeding it cancels the work and answers 504 (0 = none)")
		maxChunkReads  = fs.Int("max-chunk-reads", 100000, "max reads accepted per request (0 = unlimited)")
		maxChunkBytes  = fs.String("max-chunk-bytes", "64MB", "max raw request body size")
		maxSpecBytes   = fs.String("max-spectrum-bytes", "1GB", "max POST /v2/spectra upload size")
		spectraDirFlag = fs.String("spectra-dir", "", "directory for uploaded spectrum stores (empty = a private temp dir, removed at exit)")
		workers        = fs.Int("workers", 1, "correction workers per request (0 = all cores; keep small, requests already run in parallel)")
		errorRate      = fs.Float64("error-rate", 0.01, "assumed substitution rate for the REDEEM error model")
		d              = fs.Int("d", 1, "Reptile max Hamming distance per constituent kmer")
		readTimeout    = fs.Duration("read-timeout", 2*time.Minute, "deadline for reading one full request; bounds how long a slow upload can hold a correction slot (0 = none)")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight requests")
		shardsOwned    = fs.String("shards-owned", "", "comma-separated shard numbers this node serves, e.g. 0,1 (node mode, with -shard-spectrum and -shards-of)")
		shardsOf       = fs.Int("shards-of", 0, "total shard count the -shard-spectrum spectra were split into (node mode)")
		coordinator    = fs.Bool("coordinator", false, "coordinator mode: discover shards from the -node daemons and serve corrections by fanning spectrum queries out to them")
		clusterWait    = fs.Duration("cluster-wait", 30*time.Second, "how long the coordinator retries discovery until every -node answers")
		shardRetries   = fs.Int("shard-retries", 2, "coordinator retries per shard query before degrading the shard to 503")
	)
	var shardSpecs, nodes specFlags
	fs.Var(&specs, "spectrum", "name=path of a persisted spectrum to serve (repeatable)")
	fs.Var(&shardSpecs, "shard-spectrum", "name=base.kspc of a sharded spectrum; the owned shard files (repro shard output) sit beside base (node mode, repeatable)")
	fs.Var(&nodes, "node", "base URL of a shard-serving node, e.g. http://10.0.0.2:8424 (coordinator mode, repeatable)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if len(specs) == 0 && len(shardSpecs) == 0 && !*coordinator {
		return usagef(fs, "at least one -spectrum name=path, -shard-spectrum name=base.kspc, or -coordinator is required")
	}
	if *coordinator && len(nodes) == 0 {
		return usagef(fs, "-coordinator requires at least one -node URL")
	}
	if len(shardSpecs) > 0 && (*shardsOf < 1 || *shardsOwned == "") {
		return usagef(fs, "-shard-spectrum requires -shards-of and -shards-owned")
	}

	loaded := make(map[string]*kspectrum.Spectrum, len(specs))
	paths := make(map[string]string, len(specs))
	// The deferred Close loop runs after the server's close() below has
	// waited out the background verifiers and quarantine probes, so an
	// unmap can never pull pages out from under a running scan.
	defer func() {
		for _, spec := range loaded {
			spec.Close()
		}
	}()
	for _, nv := range specs {
		name, path, ok := strings.Cut(nv, "=")
		if !ok || name == "" || path == "" {
			return usagef(fs, "-spectrum %q: want name=path", nv)
		}
		if _, dup := loaded[name]; dup {
			return usagef(fs, "-spectrum %q: duplicate name", name)
		}
		start := time.Now()
		spec, err := engine.LoadSpectrumForK(path, 0)
		if err != nil {
			return err
		}
		loaded[name] = spec
		paths[name] = path
		how := "copied"
		if spec.Mapped() {
			how = "mapped"
		}
		log.Printf("loaded spectrum %q (%s): k=%d, %d kmers, bothStrands=%v (%v)",
			name, how, spec.K, spec.Size(), spec.BothStrands, time.Since(start).Round(time.Millisecond))
	}

	// Node mode: load the owned shard files of each sharded spectrum as
	// registry entries under their shard entry names and record the
	// metadata GET /v2/shards advertises to discovering coordinators.
	var shardEntries map[string]remote.ShardInfo
	if len(shardSpecs) > 0 {
		owned, err := parseShardList(*shardsOwned, *shardsOf)
		if err != nil {
			return usagef(fs, "-shards-owned: %v", err)
		}
		shardEntries = make(map[string]remote.ShardInfo)
		for _, nv := range shardSpecs {
			name, base, ok := strings.Cut(nv, "=")
			if !ok || name == "" || base == "" {
				return usagef(fs, "-shard-spectrum %q: want name=base.kspc", nv)
			}
			stem := strings.TrimSuffix(base, ".kspc")
			for _, i := range owned {
				path := kspectrum.ShardFileName(stem, i, *shardsOf)
				entryName := kspectrum.ShardEntryName(name, i, *shardsOf)
				if _, dup := loaded[entryName]; dup {
					return usagef(fs, "-shard-spectrum %q: duplicate entry %q", nv, entryName)
				}
				spec, err := engine.LoadSpectrumForK(path, 0)
				if err != nil {
					return err
				}
				loaded[entryName] = spec
				paths[entryName] = path
				shardEntries[entryName] = remote.ShardInfo{
					Spectrum: name, Shard: i, Of: *shardsOf, Entry: entryName,
					K: spec.K, BothStrands: spec.BothStrands, Kmers: spec.Size(),
				}
				log.Printf("loaded shard %d/%d of spectrum %q: k=%d, %d kmers (%s)",
					i, *shardsOf, name, spec.K, spec.Size(), path)
			}
		}
	}

	// Coordinator mode: discover the cluster's shard maps from the nodes
	// (retrying until -cluster-wait elapses, so node and coordinator
	// processes can start in any order) and register a remote fan-out
	// backend per discovered spectrum.
	// The signal context exists before cluster discovery so a SIGTERM
	// during the startup retry loop aborts it immediately; the serving
	// select below reuses it for graceful drain.
	ctx, stop := signalContext()
	defer stop()
	var remoteSpectra map[string]*remote.RemoteSpectrum
	if *coordinator {
		maps, err := discoverCluster(ctx, nodes, *clusterWait)
		if err != nil {
			return err
		}
		transport := shardTransport(maps, resolveMaxInflight(*maxInflight))
		defer transport.CloseIdleConnections()
		remoteSpectra = make(map[string]*remote.RemoteSpectrum, len(maps))
		for name, m := range maps {
			if _, dup := loaded[name]; dup {
				return fmt.Errorf("cluster spectrum %q collides with a locally loaded spectrum", name)
			}
			rs, err := remote.New(m, remote.Options{
				HTTP: &http.Client{Timeout: 15 * time.Second, Transport: transport},
				Policy: client.Policy{
					MaxRetries:  *shardRetries,
					BaseBackoff: 50 * time.Millisecond,
					MaxBackoff:  2 * time.Second,
				},
			})
			if err != nil {
				return err
			}
			remoteSpectra[name] = rs
			log.Printf("discovered spectrum %q: k=%d, %d kmers across %d shards on %d nodes",
				name, rs.K(), rs.Len(), len(m.Shards), len(nodes))
		}
	}

	chunkBytes, err := parseByteSize(*maxChunkBytes)
	if err != nil {
		return err
	}
	specBytes, err := parseByteSize(*maxSpecBytes)
	if err != nil {
		return err
	}
	spectraDir := *spectraDirFlag
	if spectraDir == "" {
		dir, err := os.MkdirTemp("", "repro-spectra-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		spectraDir = dir
	}
	srv, err := newServer(loaded, ServerOptions{
		MaxInflight:      *maxInflight,
		MaxQueue:         *maxQueue,
		RequestTimeout:   *requestTimeout,
		MaxChunkReads:    *maxChunkReads,
		MaxChunkBytes:    chunkBytes,
		MaxSpectrumBytes: specBytes,
		SpectraDir:       spectraDir,
		Workers:          *workers,
		ErrorRate:        *errorRate,
		D:                *d,
		SpectrumPaths:    paths,
		ShardEntries:     shardEntries,
		RemoteSpectra:    remoteSpectra,
	})
	if err != nil {
		return err
	}
	// Stop the background machinery (verifiers, quarantine probes) before
	// the deferred spectrum Close loop above unmaps anything.
	defer srv.close()

	// An explicit Listen (instead of ListenAndServe) pins the bound
	// address before the serving goroutine starts: `-listen 127.0.0.1:0`
	// logs the real port, which harnesses scrape to find the daemon.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: srv.mux(),
		// Without read deadlines, max-inflight slow uploads would pin
		// every correction slot forever (each handler reads the body
		// while holding its semaphore slot).
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("serving %d spectra on %s (max-inflight %d, max-queue %d, request-timeout %v, engines %s)",
		len(loaded), ln.Addr(), srv.opts.MaxInflight, srv.opts.MaxQueue, *requestTimeout, strings.Join(engine.Names(), ","))
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintf(stdout, "served %d requests (%d reads, %d changed, %d shed)\n",
		srv.requests.Load(), srv.m.reads.Value(), srv.m.changedReads.Value(), srv.m.shed.Value())
	return nil
}

// specFlags collects repeated -spectrum name=path arguments.
type specFlags []string

func (s *specFlags) String() string     { return strings.Join(*s, ",") }
func (s *specFlags) Set(v string) error { *s = append(*s, v); return nil }

var _ flag.Value = (*specFlags)(nil)

// ServerOptions configures a correction server. It is exported so
// benchmarks and embedding tests can stand up the daemon's handler
// (NewHandler) without going through flags.
type ServerOptions struct {
	// MaxInflight bounds concurrently-executing correction requests
	// (<= 0 selects 2x GOMAXPROCS).
	MaxInflight int
	// MaxQueue bounds the requests waiting for a correction slot; a
	// request arriving beyond MaxInflight+MaxQueue is shed with 429.
	// 0 selects 4x MaxInflight; negative means no queue (shed as soon
	// as every slot is busy).
	MaxQueue int
	// RequestTimeout is the end-to-end deadline of one correction
	// request, queue wait included; exceeding it cancels the work and
	// answers 504 (0 = no deadline).
	RequestTimeout time.Duration
	// MaxChunkReads caps the reads accepted per request (0 = unlimited).
	MaxChunkReads int
	// MaxChunkBytes caps the raw request body size (<= 0 selects 64 MiB)
	// via http.MaxBytesReader, so a hostile or misconfigured client
	// cannot balloon the daemon before read-count limits even apply.
	MaxChunkBytes int64
	// MaxSpectrumBytes caps POST /v2/spectra upload bodies (<= 0
	// selects 1 GiB).
	MaxSpectrumBytes int64
	// SpectraDir is where uploaded spectrum stores land (empty disables
	// uploads with a clean 503).
	SpectraDir string
	// Workers is the per-request correction parallelism (the inter-request
	// parallelism is MaxInflight; <= 0 uses all cores per request).
	Workers int
	// ErrorRate parameterizes the uniform REDEEM error model.
	ErrorRate float64
	// D is Reptile's per-kmer Hamming budget (0 selects the default 1).
	D int
	// SpectrumPaths maps startup spectrum names to their backing store
	// files, so the quarantine probe can re-open and repair a spectrum
	// whose in-memory state failed verification. Names without a path
	// stay quarantined until re-uploaded or deleted.
	SpectrumPaths map[string]string
	// QuarantineBase and QuarantineMax bound the quarantine probe's
	// exponential backoff: the first re-verification attempt runs after
	// QuarantineBase, doubling per failure up to QuarantineMax
	// (defaults 1s and 30s).
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	// ShardEntries marks loaded spectra that are shards of a larger
	// sharded spectrum, keyed by their registry entry name (which must
	// also be a key of the startup spectra map). Marked entries are
	// advertised on GET /v2/shards for coordinator discovery and served
	// on POST /v2/query.
	ShardEntries map[string]remote.ShardInfo
	// RemoteSpectra registers coordinator entries: named spectra whose
	// columns live sharded across other nodes behind a RemoteSpectrum
	// backend. Correction requests against them fan spectrum queries out
	// to the owning nodes.
	RemoteSpectra map[string]*remote.RemoteSpectrum
}

// server is the HTTP correction service: a mutable, refcounted registry
// of named spectra, a semaphore bounding in-flight correction work, a
// bounded admission queue in front of it, and an instrument panel.
type server struct {
	reg *specRegistry
	sem chan struct{}
	// occupancy counts admission tokens held: requests executing plus
	// requests waiting for a slot. Admission compares it against
	// MaxInflight+MaxQueue — the shed decision is one atomic add.
	occupancy atomic.Int64
	// opts is the configuration with every default resolved (newServer).
	opts ServerOptions
	// global holds the /v2 service slots of spectrum-free engines
	// (SHREC): one shared corrector per engine, independent of any
	// loaded spectrum.
	global map[string]*serviceSlot
	m      *serverMetrics

	// ctx scopes the server's background goroutines (startup and upload
	// verifiers, quarantine probes); close cancels it and waits for wg so
	// a stopped server leaks nothing — tests run under -race depend on
	// this, and so does the drain path of the serve subcommand.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// requests counts the corrections answered 200; the reads and changed
	// reads beside it on /healthz and the exit line are m's counters.
	requests atomic.Int64
}

// resolveMaxInflight applies the -max-inflight default.
func resolveMaxInflight(n int) int {
	if n <= 0 {
		return 2 * runtime.GOMAXPROCS(0)
	}
	return n
}

// newServer builds the registry: a service slot per (spectrum, engine),
// with the Reptile slot resolved eagerly so the first request pays no
// index-build latency.
func newServer(specs map[string]*kspectrum.Spectrum, opts ServerOptions) (*server, error) {
	opts.MaxInflight = resolveMaxInflight(opts.MaxInflight)
	switch {
	case opts.MaxQueue == 0:
		opts.MaxQueue = 4 * opts.MaxInflight
	case opts.MaxQueue < 0:
		opts.MaxQueue = 0
	}
	if opts.MaxChunkBytes <= 0 {
		opts.MaxChunkBytes = 64 << 20
	}
	if opts.MaxSpectrumBytes <= 0 {
		opts.MaxSpectrumBytes = 1 << 30
	}
	if opts.ErrorRate <= 0 {
		opts.ErrorRate = 0.01
	}
	if opts.QuarantineBase <= 0 {
		opts.QuarantineBase = time.Second
	}
	if opts.QuarantineMax <= 0 {
		opts.QuarantineMax = 30 * time.Second
	}
	s := &server{
		reg:    &specRegistry{entries: make(map[string]*entry, len(specs))},
		sem:    make(chan struct{}, opts.MaxInflight),
		opts:   opts,
		global: make(map[string]*serviceSlot),
		m:      newServerMetrics(),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for _, engName := range engine.Names() {
		s.global[engName] = &serviceSlot{}
	}
	for name, spec := range specs {
		e := s.newEntry(name, spec)
		e.path = opts.SpectrumPaths[name]
		if si, ok := opts.ShardEntries[name]; ok {
			e.shard = &si
		}
		s.reg.put(e)
		// Surface latent file corruption without delaying startup: the
		// whole-file check runs in the background; a failure quarantines
		// the spectrum (clean 503s plus a repair probe) instead of
		// silently wrong corrections.
		s.verifyInBackground(e)
	}
	for name, rs := range opts.RemoteSpectra {
		// The fan-out backend reports every shard round trip into the
		// per-shard counter family, so /metrics shows cluster routing and
		// failures per shard.
		rs.SetOnQuery(func(shard int, outcome string) {
			s.m.shardRequests.With(name, strconv.Itoa(shard), outcome).Inc()
		})
		// A coordinator's slot: no columns; its eager Reptile service is
		// geometry only, no shard round trips.
		s.reg.put(s.initEntry(&entry{name: name, backend: rs, remote: rs}))
	}
	s.m.spectra.Set(int64(s.reg.size()))
	return s, nil
}

// close stops the server's background machinery — verifiers and
// quarantine probes — and waits for it to unwind. The HTTP listener and
// in-flight requests are the caller's to drain (http.Server.Shutdown);
// close concerns only the goroutines the server itself spawned.
func (s *server) close() {
	s.cancel()
	s.wg.Wait()
}

// verifyInBackground starts the whole-file integrity scan of a mapped
// entry. The verifier holds the entry like an in-flight request, so a
// hot-swap or delete that drains the other holds cannot unmap the file
// mid-scan; a verification failure quarantines the entry.
func (s *server) verifyInBackground(e *entry) {
	if e.spec == nil || !e.spec.Mapped() {
		return
	}
	e.acquire()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer e.release()
		if err := e.spec.Verify(); err != nil {
			s.quarantine(e, err)
		}
	}()
}

// quarantine moves an entry into the quarantined state: requests answer
// 503 from here on, and a single background probe (the CAS is the spawn
// dedup) retries the backing store until it verifies clean again. The
// gauge recounts on both CAS outcomes: a request that loses the CAS to the
// background verifier answers 503 next, and the gauge must count the entry
// by then, not once the winner has logged.
func (s *server) quarantine(e *entry, cause error) {
	won := e.quarantined.CompareAndSwap(false, true)
	s.updateQuarantineGauge()
	if !won {
		return
	}
	log.Printf("spectrum %q quarantined, refusing its requests: %v", e.name, cause)
	s.wg.Add(1)
	go s.probeQuarantined(e)
}

// probeQuarantined is the self-healing loop of one quarantined entry:
// exponential backoff between attempts to re-open and re-verify the
// backing store, restoring service atomically on the first clean pass.
// It exits when the entry is repaired, displaced (an upload or delete
// replaced the name — the operator's fix wins), or the server closes.
func (s *server) probeQuarantined(e *entry) {
	defer s.wg.Done()
	if e.path == "" {
		log.Printf("spectrum %q has no backing store path; quarantine is permanent until re-upload or delete", e.name)
		return
	}
	backoff := s.opts.QuarantineBase
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-timer.C:
		}
		if s.reg.current(e.name) != e {
			// Replaced or deleted while quarantined: the probe's work is
			// moot, the gauge only counts registered entries.
			s.updateQuarantineGauge()
			return
		}
		err := s.tryRestore(e)
		if err == nil {
			return
		}
		log.Printf("spectrum %q repair probe failed: %v (next attempt in %v)", e.name, err, backoff)
		if backoff *= 2; backoff > s.opts.QuarantineMax {
			backoff = s.opts.QuarantineMax
		}
		timer.Reset(backoff)
	}
}

// tryRestore attempts one repair of a quarantined entry: re-open the
// backing store, verify the whole file synchronously, and atomically
// swap a fresh entry into the registry. In-flight requests on the
// quarantined entry drain against their own holds, exactly like a hot
// swap.
func (s *server) tryRestore(e *entry) error {
	spec, err := engine.LoadSpectrumForK(e.path, 0)
	if err != nil {
		return err
	}
	if err := spec.Verify(); err != nil {
		spec.Close()
		return err
	}
	repaired := s.newEntry(e.name, spec)
	repaired.owned = true // the server opened it, the last release closes it
	repaired.path = e.path
	if !s.reg.replaceIf(e, repaired) {
		// A concurrent upload or delete displaced the quarantined entry
		// first; its resolution wins and the repair is discarded.
		repaired.release()
		s.updateQuarantineGauge()
		return nil
	}
	e.release() // old registry hold; unmaps once in-flight requests drain
	s.m.swaps.With("restore").Inc()
	s.updateQuarantineGauge()
	log.Printf("spectrum %q restored from %s, quarantine lifted", e.name, e.path)
	return nil
}

// updateQuarantineGauge recomputes repro_spectra_quarantined from the
// registry — transitions recount instead of pairing inc/dec, so the
// gauge cannot drift when a probe races an upload or delete.
func (s *server) updateQuarantineGauge() {
	s.m.quarantined.Set(int64(s.reg.countQuarantined()))
}

// NewHandler stands up the daemon's full HTTP handler over preloaded
// spectra — the embedding and benchmarking entry. The serve subcommand
// adds flags, signal handling and logging around the same construction.
// The caller keeps ownership of the passed spectra; uploaded ones are
// owned (and closed) by the handler.
func NewHandler(specs map[string]*kspectrum.Spectrum, opts ServerOptions) (http.Handler, error) {
	srv, err := newServer(specs, opts)
	if err != nil {
		return nil, err
	}
	return srv.mux(), nil
}

// serviceRun builds the engine.Run a /v2 service is resolved against:
// the entry's spectrum for engines that reuse spectra, plus the server's
// request-independent tuning.
func (s *server) serviceRun(eng engine.Engine, e *entry) *engine.Run {
	opts := []engine.Option{
		reptile.WithD(s.opts.D),
		redeem.WithErrorRate(s.opts.ErrorRate),
	}
	if eng.Capabilities().SpectrumReuse && e != nil {
		if e.remote != nil {
			opts = append(opts, engine.WithSpectrumBackend(e.remote))
		} else {
			opts = append(opts, engine.WithSpectrum(e.spec))
		}
	}
	return engine.NewRun(opts...)
}

// checkServable is the cheap capability gate, run before request
// admission: an engine declared impossible for the request (e.g. Reptile
// on a k=20 spectrum) fails fast with the declaration, not a
// construction error, and without burning a correction slot.
func (s *server) checkServable(eng engine.Engine, e *entry) error {
	caps := eng.Capabilities()
	if caps.SpectrumReuse && e != nil && e.remote != nil && !caps.RemoteSpectrum {
		return fmt.Errorf("engine %q needs its spectrum local and %q is sharded across the cluster",
			eng.Name(), e.name)
	}
	if caps.SpectrumReuse && !caps.ServesSpectrum(e.backend.K()) {
		return fmt.Errorf("engine %q cannot serve spectrum %q (k=%d exceeds max spectrum k %d)",
			eng.Name(), e.name, e.backend.K(), caps.MaxSpectrumK)
	}
	if _, ok := eng.(engine.Servicer); !ok {
		return fmt.Errorf("engine %q does not support request-independent serving", eng.Name())
	}
	return nil
}

// service resolves the chunk corrector for an engine, building it at
// most once. Construction can be expensive (REDEEM's EM fit, Reptile's
// neighbor index), so callers on the request path invoke it only while
// holding a semaphore slot — cold-start work stays inside the
// -max-inflight bound.
func (s *server) service(eng engine.Engine, e *entry) (engine.ChunkCorrector, error) {
	if err := s.checkServable(eng, e); err != nil {
		return nil, err
	}
	sv := eng.(engine.Servicer) // checked by checkServable
	// Spectrum-reusing engines amortize per spectrum entry; spectrum-free
	// engines share one server-wide slot. Both maps hold a slot for every
	// registered engine: engines register in init, before any server.
	slot := s.global[eng.Name()]
	if eng.Capabilities().SpectrumReuse && e != nil {
		slot = e.services[eng.Name()]
	}
	slot.once.Do(func() {
		slot.svc, slot.err = sv.NewService(s.serviceRun(eng, e))
	})
	return slot.svc, slot.err
}

// mux wires the endpoints. The correct paths run inside the metrics
// middleware; the metadata endpoints are uninstrumented.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v2/engines", s.handleEngines)
	mux.HandleFunc("/v2/correct", s.correction(s.handleCorrect))
	mux.HandleFunc("GET /v2/spectra", s.handleSpectra)
	mux.HandleFunc("POST /v2/spectra", s.handleSpectraUpload)
	mux.HandleFunc("DELETE /v2/spectra/{name}", s.handleSpectraDelete)
	mux.HandleFunc("GET /v2/shards", s.handleShards)
	mux.HandleFunc("POST /v2/query", s.handleQuery)
	mux.HandleFunc("GET /v2/cluster", s.handleCluster)
	mux.Handle("GET /metrics", s.m.registry)
	return mux
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"spectra":     s.reg.size(),
		"quarantined": s.reg.countQuarantined(),
		"engines":     engine.Names(),
		"requests":    s.requests.Load(),
		"reads":       s.m.reads.Value(),
		"changed":     s.m.changedReads.Value(),
		"inflight":    s.m.inflight.Value(),
		"shed":        s.m.shed.Value(),
	})
}

func (s *server) handleSpectra(w http.ResponseWriter, r *http.Request) {
	type specInfo struct {
		Name        string `json:"name"`
		K           int    `json:"k"`
		Kmers       int    `json:"kmers"`
		BothStrands bool   `json:"both_strands"`
		Quarantined bool   `json:"quarantined,omitempty"`
		Remote      bool   `json:"remote,omitempty"`
	}
	entries := s.reg.snapshot()
	out := make([]specInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, specInfo{
			Name: e.name, K: e.backend.K(), Kmers: e.backend.Len(),
			BothStrands: e.backend.BothStrands(), Quarantined: e.quarantined.Load(),
			Remote: e.remote != nil,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleEngines reports the registry: each engine's declared capabilities
// and which loaded spectra it can serve ("*" for engines that need none).
func (s *server) handleEngines(w http.ResponseWriter, r *http.Request) {
	type engineInfo struct {
		Name          string   `json:"name"`
		Streaming     bool     `json:"streaming"`
		SpectrumReuse bool     `json:"spectrum_reuse"`
		MaxSpectrumK  int      `json:"max_spectrum_k,omitempty"`
		Spectra       []string `json:"spectra"`
	}
	entries := s.reg.snapshot()
	out := make([]engineInfo, 0)
	for _, eng := range engine.Engines() {
		caps := eng.Capabilities()
		info := engineInfo{
			Name:          eng.Name(),
			Streaming:     caps.Streaming,
			SpectrumReuse: caps.SpectrumReuse,
			MaxSpectrumK:  caps.MaxSpectrumK,
		}
		if caps.SpectrumReuse {
			info.Spectra = make([]string, 0, len(entries))
			for _, e := range entries {
				if e.remote != nil && !caps.RemoteSpectrum {
					continue
				}
				if caps.ServesSpectrum(e.backend.K()) {
					info.Spectra = append(info.Spectra, e.name)
				}
			}
			sort.Strings(info.Spectra)
		} else {
			// No spectrum needed: servable against any request.
			info.Spectra = []string{"*"}
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCorrect is the serve path: any registered engine whose
// capabilities allow the request is servable, and unknown engine names
// report the registered ones (the same typed error every front end
// shares).
func (s *server) handleCorrect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.errorJSON(w, http.StatusMethodNotAllowed, errClassBadRequest, "POST a FASTQ chunk")
		return
	}
	name := r.URL.Query().Get("engine")
	if name == "" {
		name = reptile.EngineName
	}
	eng, err := engine.Lookup(name)
	if err != nil {
		// engine.Lookup's UnknownEngineError already lists the
		// registered names — exactly what an API client needs.
		s.errorJSON(w, http.StatusBadRequest, errClassUnknownEngine, "%v", err)
		return
	}
	setTrace(w, eng.Name(), "")
	var e *entry
	if eng.Capabilities().SpectrumReuse {
		var ok bool
		if e, ok = s.selectEntry(w, r); !ok {
			return
		}
		defer e.release()
	}
	if err := s.checkServable(eng, e); err != nil {
		s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "%v", err)
		return
	}
	s.correctWithEngine(w, r, eng, e)
}

// correctWithEngine is the tail of the serve path: apply the request
// deadline, admit the request (bounded queue + semaphore slot +
// body decode), resolve the engine's service slot — only while holding
// the slot, so cold-start construction (REDEEM's EM fit) stays inside
// the -max-inflight bound — and correct under the request context, so a
// dropped connection or an expired deadline aborts the work instead of
// finishing it for nobody. The caller holds e's refcount for the whole
// call, so a concurrent hot swap or delete cannot unmap the spectrum
// under the correction.
func (s *server) correctWithEngine(w http.ResponseWriter, r *http.Request, eng engine.Engine, e *entry) {
	specName := ""
	if e != nil {
		specName = e.name
	}
	setTrace(w, eng.Name(), specName)
	// A mapped spectrum that failed its deferred integrity checks (lazy
	// bucket validation or the background whole-file scan) answers every
	// query "absent" — correct for library callers but silently useless
	// corrections for a daemon client. Quarantine it — 503 with
	// Retry-After, because the repair probe may restore service — rather
	// than serving garbage or a misleading hard 500.
	if e != nil {
		if specErr := e.backend.Err(); specErr != nil && e.spec != nil {
			s.quarantine(e, specErr)
		}
		if e.quarantined.Load() {
			w.Header().Set("Retry-After", "5")
			s.errorJSON(w, http.StatusServiceUnavailable, errClassQuarantined,
				"spectrum %q is quarantined (unserviceable pending repair): %v", e.name, e.backend.Err())
			return
		}
	}
	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	reads, ok := s.admit(ctx, w, r)
	if !ok {
		return
	}
	defer s.releaseSlot()

	start := time.Now()
	var corrected []seq.Read
	svc, err := s.service(eng, e)
	if err == nil {
		corrected, err = svc.CorrectChunk(ctx, reads, s.opts.Workers)
	}
	s.respond(w, r, reads, corrected, err, specName, eng.Name(), start)
}

// admit runs the shared request admission. The shed decision is one
// atomic add against the occupancy bound (executing + queued), so
// sustained over-capacity load turns into immediate 429s instead of an
// unbounded queue of doomed requests; under the bound the request waits
// for a semaphore slot (deadline and client disconnect both abort the
// wait), then decodes the body under the size caps. On false the
// response has been written and all admission state released.
func (s *server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request) ([]seq.Read, bool) {
	// A declared-oversize body is refused before it costs anything — no
	// admission token, no slot, no read. MaxBytesReader below remains
	// the backstop for chunked uploads that never declare a length.
	if s.opts.MaxChunkBytes > 0 && r.ContentLength > s.opts.MaxChunkBytes {
		s.errorJSON(w, http.StatusRequestEntityTooLarge, errClassTooLarge,
			"request body %d bytes exceeds the %d-byte chunk cap", r.ContentLength, s.opts.MaxChunkBytes)
		return nil, false
	}
	if occ := s.occupancy.Add(1); occ > int64(s.opts.MaxInflight+s.opts.MaxQueue) {
		s.occupancy.Add(-1)
		s.m.shed.Inc()
		// The queue is full of requests that each hold a slot for a
		// correction's worth of time; one second is an honest lower
		// bound on when retrying could succeed.
		w.Header().Set("Retry-After", "1")
		s.errorJSON(w, http.StatusTooManyRequests, errClassShed,
			"server saturated: %d requests in flight and %d queued; retry later", s.opts.MaxInflight, s.opts.MaxQueue)
		return nil, false
	}
	s.m.occupancy.Set(s.occupancy.Load())
	// Bounded in-flight concurrency: wait for a slot, give up if the
	// client or the deadline does. Admission happens BEFORE the body is
	// decoded so at most max-inflight fully-parsed chunks exist at once;
	// the time a slow upload can then occupy a slot is bounded by the
	// server's ReadTimeout (-read-timeout), not by client goodwill.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.occupancy.Add(-1)
		s.m.occupancy.Set(s.occupancy.Load())
		if r.Context().Err() != nil {
			s.errorJSON(w, http.StatusServiceUnavailable, errClassClientGone, "client gave up waiting for a correction slot")
		} else {
			s.errorJSON(w, http.StatusGatewayTimeout, errClassDeadline,
				"request timed out after %v waiting for a correction slot", s.opts.RequestTimeout)
		}
		return nil, false
	}
	capped := http.MaxBytesReader(w, r.Body, s.opts.MaxChunkBytes)
	reads, err := fastq.DecodeChunk(capped, s.opts.MaxChunkReads)
	if err != nil {
		s.releaseSlot()
		var tooBig *http.MaxBytesError
		if errors.Is(err, fastq.ErrChunkTooLarge) || errors.As(err, &tooBig) {
			s.errorJSON(w, http.StatusRequestEntityTooLarge, errClassTooLarge, "%v", err)
		} else {
			s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "%v", err)
		}
		return nil, false
	}
	if len(reads) == 0 {
		s.releaseSlot()
		s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "empty chunk")
		return nil, false
	}
	return reads, true
}

// releaseSlot returns a semaphore slot and its admission token.
func (s *server) releaseSlot() {
	<-s.sem
	s.occupancy.Add(-1)
	s.m.occupancy.Set(s.occupancy.Load())
}

// replyPool holds reply buffers: a body is encoded into one and it goes back
// once w.Write has returned, which keeps no reference to it.
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// respond finishes a correction request: error mapping, stats, headers,
// body.
func (s *server) respond(w http.ResponseWriter, r *http.Request, reads, corrected []seq.Read, err error, spectrum, engineName string, start time.Time) {
	if err != nil {
		var sue *remote.ShardUnavailableError
		switch {
		case r.Context().Err() != nil:
			// The client is gone; the status is a formality.
			s.errorJSON(w, http.StatusServiceUnavailable, errClassClientGone, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			s.errorJSON(w, http.StatusGatewayTimeout, errClassDeadline,
				"correction exceeded the %v request deadline", s.opts.RequestTimeout)
		case errors.As(err, &sue):
			// A shard's node stayed unreachable through the fan-out retry
			// budget: the coordinator degrades requests touching that
			// keyspace slice to an honest retryable 503 — spectra on other
			// nodes keep serving.
			w.Header().Set("Retry-After", retryAfterSeconds(sue.RetryAfter))
			s.errorJSON(w, http.StatusServiceUnavailable, errClassShardUnavailable, "%v", err)
		default:
			s.errorJSON(w, http.StatusInternalServerError, errClassInternal, "%v", err)
		}
		return
	}
	buf := replyPool.Get().(*[]byte)
	defer replyPool.Put(buf)
	body, err := fastq.AppendChunk((*buf)[:0], corrected)
	*buf = body
	if err != nil {
		s.errorJSON(w, http.StatusInternalServerError, errClassInternal, "%v", err)
		return
	}

	changed := engine.CountChanged(reads, corrected)
	changedBases := engine.CountChangedBases(reads, corrected)
	s.requests.Add(1)
	s.m.reads.Add(uint64(len(reads)))
	s.m.changedReads.Add(uint64(changed))
	s.m.changedBases.Add(uint64(changedBases))

	h := w.Header()
	h.Set("Content-Type", "text/x-fastq")
	if spectrum != "" {
		h.Set("X-Kserve-Spectrum", spectrum)
	}
	h.Set("X-Kserve-Method", engineName)
	h.Set("X-Kserve-Reads", fmt.Sprint(len(reads)))
	h.Set("X-Kserve-Changed", fmt.Sprint(changed))
	h.Set("X-Kserve-Duration-Ms", fmt.Sprint(time.Since(start).Milliseconds()))
	w.WriteHeader(http.StatusOK)
	// A write failure means the client disconnected mid-response; the
	// work is already done and counted, nothing to clean up.
	_, _ = w.Write(body)
}

// selectEntry resolves the spectrum query parameter — an explicit name,
// or the sole loaded spectrum when the parameter is omitted — and
// acquires a hold on the entry; the caller must release it.
func (s *server) selectEntry(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	name := r.URL.Query().Get("spectrum")
	if name == "" {
		e, n := s.reg.sole()
		if e != nil {
			return e, true
		}
		if n == 0 {
			s.errorJSON(w, http.StatusBadRequest, errClassUnknownSpectrum, "no spectra loaded")
		} else {
			s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "spectrum parameter required (several spectra loaded)")
		}
		return nil, false
	}
	e := s.reg.get(name)
	if e == nil {
		s.errorJSON(w, http.StatusNotFound, errClassUnknownSpectrum,
			"unknown spectrum %q (loaded: %s)", name, strings.Join(s.reg.names(), ", "))
		return nil, false
	}
	return e, true
}

// Error classes label repro_request_errors_total so operators can tell
// client mistakes from shed load from real failures at a glance.
const (
	errClassBadRequest       = "bad_request"
	errClassTooLarge         = "too_large"
	errClassUnknownEngine    = "unknown_engine"
	errClassUnknownSpectrum  = "unknown_spectrum"
	errClassQuarantined      = "quarantined_spectrum"
	errClassDisabled         = "uploads_disabled"
	errClassShed             = "shed"
	errClassShardUnavailable = "shard_unavailable"
	errClassClientGone       = "client_gone"
	errClassDeadline         = "deadline"
	errClassInternal         = "internal"
	errClassPanic            = "panic"
)

// errorJSON is the single error-response path of the daemon: every 4xx
// and 5xx carries application/json {"error": "..."} and increments the
// per-class error counter, so clients parse one shape and operators see
// one taxonomy.
func (s *server) errorJSON(w http.ResponseWriter, status int, class, format string, args ...any) {
	if class != "" {
		s.m.errors.With(class).Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already out; an encode failure only means the
	// client went away.
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already out; an encode failure only means the
	// client went away.
	_ = json.NewEncoder(w).Encode(v)
}
