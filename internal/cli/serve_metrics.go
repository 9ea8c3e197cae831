package cli

import (
	"log"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// serverMetrics is the daemon's instrument panel: every server owns one
// registry (no process globals), exposed as GET /metrics in Prometheus
// text format. The hot-path updates are single atomic operations; the
// only per-request overhead beyond them is one child lookup per labeled
// family.
type serverMetrics struct {
	registry *metrics.Registry

	// requests counts every correction request by resolved engine,
	// spectrum and final HTTP status ("" engine/spectrum = the request
	// failed before routing).
	requests *metrics.CounterVec
	// errors counts non-200 outcomes by failure class (bad_request,
	// too_large, unknown_engine, unknown_spectrum, quarantined_spectrum,
	// shed, client_gone, deadline, internal, panic).
	errors *metrics.CounterVec
	// shed counts requests refused with 429 by the bounded admission
	// queue — the daemon's load-shedding signal.
	shed *metrics.Counter
	// inflight tracks correction requests currently inside a handler
	// (queued or executing); it returns to 0 when the daemon is drained.
	inflight *metrics.Gauge
	// occupancy mirrors the admission counter: executing + queued
	// requests currently holding an admission token.
	occupancy *metrics.Gauge
	// latency is the end-to-end request duration of successful
	// corrections, per engine and spectrum.
	latency *metrics.HistogramVec
	// reads / changedReads / changedBases tally correction throughput:
	// reads processed, reads altered, and individual bases rewritten.
	reads        *metrics.Counter
	changedReads *metrics.Counter
	changedBases *metrics.Counter
	// shardRequests counts shard query round trips by spectrum, shard
	// and outcome: on a coordinator these are the fan-out requests its
	// RemoteSpectrum backends issue ("ok", "unavailable", "error"); on a
	// node they are the /v2/query requests its shard entries answered.
	shardRequests *metrics.CounterVec
	// spectra is the number of spectra currently registered; quarantined
	// is how many of them are refusing requests pending repair; swaps
	// counts registry mutations by operation (upload, replace, delete,
	// restore).
	spectra     *metrics.Gauge
	quarantined *metrics.Gauge
	swaps       *metrics.CounterVec
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	return &serverMetrics{
		registry: reg,
		requests: reg.NewCounterVec("repro_requests_total",
			"Correction requests by engine, spectrum and HTTP status code.",
			"engine", "spectrum", "code"),
		errors: reg.NewCounterVec("repro_request_errors_total",
			"Failed correction requests by failure class.", "class"),
		shed: reg.NewCounter("repro_requests_shed_total",
			"Requests refused with 429 because the admission queue was full."),
		inflight: reg.NewGauge("repro_inflight_requests",
			"Correction requests currently queued or executing."),
		occupancy: reg.NewGauge("repro_admission_occupancy",
			"Admission tokens held: executing plus queued requests."),
		latency: reg.NewHistogramVec("repro_request_duration_seconds",
			"End-to-end latency of successful corrections.",
			metrics.DefLatencyBuckets, "engine", "spectrum"),
		reads: reg.NewCounter("repro_reads_total",
			"Reads corrected across all requests."),
		changedReads: reg.NewCounter("repro_changed_reads_total",
			"Reads whose sequence was altered by correction."),
		changedBases: reg.NewCounter("repro_changed_bases_total",
			"Individual bases rewritten by correction."),
		shardRequests: reg.NewCounterVec("repro_shard_requests_total",
			"Shard query round trips by spectrum, shard and outcome.",
			"spectrum", "shard", "outcome"),
		spectra: reg.NewGauge("repro_spectra_loaded",
			"Spectra currently registered and servable."),
		quarantined: reg.NewGauge("repro_spectra_quarantined",
			"Registered spectra currently quarantined (refusing requests pending repair)."),
		swaps: reg.NewCounterVec("repro_spectrum_swaps_total",
			"Spectrum registry mutations by operation.", "op"),
	}
}

// correctionTrace is the middleware's view of one correction request: it
// records the final status code and lets the inner handler report which
// engine and spectrum the request resolved to, so the tail of the
// middleware can label its series without re-parsing the request.
type correctionTrace struct {
	http.ResponseWriter
	code             int
	engine, spectrum string
}

func (t *correctionTrace) WriteHeader(code int) {
	if t.code == 0 {
		t.code = code
	}
	t.ResponseWriter.WriteHeader(code)
}

// setTrace reports the resolved routing labels of the request; a no-op
// outside the correction middleware (direct handler tests).
func setTrace(w http.ResponseWriter, engine, spectrum string) {
	if t, ok := w.(*correctionTrace); ok {
		t.engine, t.spectrum = engine, spectrum
	}
}

// correction is the request-path middleware wrapping the correct
// handler: panic recovery, in-flight accounting, per-engine/
// per-spectrum request counts, and the end-to-end latency histogram
// (successful requests only — sheds and refusals return in microseconds
// and would drown the distribution the histogram exists to show).
//
// The recovery path is the daemon's last line of self-defense: a bug in
// one request's handler (or an injected serve.request fault) answers
// that request with a JSON 500, increments the panic error class, logs
// the stack, and leaves the daemon serving — net/http would otherwise
// kill only the connection, but silently and without a client-readable
// body or a metric. http.ErrAbortHandler is re-raised: it is the
// sanctioned way to abort a response mid-write, not a bug.
func (s *server) correction(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := &correctionTrace{ResponseWriter: w}
		s.m.inflight.Inc()
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					s.m.inflight.Dec()
					panic(rec)
				}
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, buf)
				if t.code == 0 {
					s.errorJSON(t, http.StatusInternalServerError, errClassPanic,
						"internal error: the request handler panicked")
				} else {
					// The response is already under way; the connection is
					// lost, but the failure still counts.
					s.m.errors.With(errClassPanic).Inc()
				}
			}
			s.m.inflight.Dec()
			code := t.code
			if code == 0 {
				code = http.StatusOK
			}
			s.m.requests.With(t.engine, t.spectrum, strconv.Itoa(code)).Inc()
			if code == http.StatusOK && t.engine != "" {
				s.m.latency.With(t.engine, t.spectrum).Observe(time.Since(start).Seconds())
			}
		}()
		// The chaos harness's injectable crash point: REPRO_FAULTS
		// "serve.request:any:panic" (or an err rule) exercises the
		// recovery path above against a live daemon. Disabled, this is
		// one atomic load.
		if err := faultinject.Check(faultinject.SiteServeRequest, faultinject.OpAny); err != nil {
			panic(err)
		}
		h(t, r)
	}
}
