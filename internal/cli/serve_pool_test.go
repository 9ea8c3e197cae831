package cli

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/reptile"
	"repro/internal/seq"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// pooledReply is what a correct /v2/correct reply to a chunk holds: the body
// the in-process service corrects a private copy of the chunk to, and the
// X-Kserve-Changed count against the chunk.
type pooledReply struct {
	body    []byte
	changed string
}

func expectReply(t *testing.T, svc engine.ChunkCorrector, chunk []seq.Read) pooledReply {
	t.Helper()
	private := make([]seq.Read, len(chunk))
	for i, r := range chunk {
		private[i] = r.Clone()
	}
	want, err := svc.CorrectChunk(context.Background(), private, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := fastq.EncodeChunk(want)
	if err != nil {
		t.Fatal(err)
	}
	return pooledReply{body: body, changed: strconv.Itoa(engine.CountChanged(chunk, want))}
}

// serveBody posts body to /v2/correct through h under ctx.
func serveBody(h http.Handler, ctx context.Context, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/correct?engine=reptile&spectrum=main", body).WithContext(ctx)
	h.ServeHTTP(rec, req)
	return rec
}

func checkReply(rec *httptest.ResponseRecorder, want pooledReply) error {
	switch {
	case rec.Code != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
	case !bytes.Equal(rec.Body.Bytes(), want.body):
		return fmt.Errorf("reply differs from the service's correction of a private copy")
	case rec.Header().Get("X-Kserve-Changed") != want.changed:
		return fmt.Errorf("X-Kserve-Changed %q, want %q", rec.Header().Get("X-Kserve-Changed"), want.changed)
	}
	return nil
}

// midChunkCancel is a request context that reads as cancelled from its third
// Err call on. A request's first Err calls are its correction workers'
// first polls, so the workers start on the chunk and stop part-way through.
type midChunkCancel struct {
	context.Context
	polls atomic.Int32
}

func (c *midChunkCancel) Err() error {
	if c.polls.Add(1) > 2 {
		return context.Canceled
	}
	return nil
}

// TestServeRequestBufferOwnership: a /v2/correct request decodes into a
// pooled request buffer and corrects its reads there, so whatever a request
// leaves in a buffer must not reach the next one. Eight clients post distinct
// chunks concurrently (MaxInflight 4, Workers 2) over a local spectrum, and
// each reply must byte-equal the service's correction of a private copy, its
// X-Kserve-Changed engine.CountChanged. Then a request cancelled mid-chunk,
// every refusal after decoding began (malformed, too many reads, empty,
// oversize with and without a declared length) and a chunk larger than any
// buffer so far are each followed at once by a valid request, which must be
// answered as correctly. sync.Pool drops items at random under -race, so CI
// runs this five times there.
func TestServeRequestBufferOwnership(t *testing.T) {
	srv, reads, spec := testFixture(t, ServerOptions{
		Workers: 2, MaxInflight: 4, MaxChunkReads: 1500, MaxChunkBytes: 256 << 10,
	})
	defer srv.close()
	h := srv.mux()
	svc, err := reptile.NewService(spec, reptile.Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]seq.Read
	var wants []pooledReply
	off := 0
	for _, n := range []int{120, 250, 500, 333, 400, 180, 90, 700} {
		chunks = append(chunks, reads[off:off+n])
		wants = append(wants, expectReply(t, svc, reads[off:off+n]))
		off += n
	}
	bodies := make([][]byte, len(chunks))
	for i, c := range chunks {
		bodies[i] = encodeChunk(t, c)
	}

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 4 {
				i := (g + 3*round) % len(chunks)
				if err := checkReply(serveBody(h, context.Background(), bytes.NewReader(bodies[i])), wants[i]); err != nil {
					t.Errorf("client %d, round %d, chunk %d: %v", g, round, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	next := 0
	thenValid := func(t *testing.T) {
		t.Helper()
		i := next % len(chunks)
		next++
		if err := checkReply(serveBody(h, context.Background(), bytes.NewReader(bodies[i])), wants[i]); err != nil {
			t.Fatalf("the next request (chunk %d): %v", i, err)
		}
	}
	refused := func(t *testing.T, body io.Reader, status int) {
		t.Helper()
		if rec := serveBody(h, context.Background(), body); rec.Code != status {
			t.Fatalf("status %d, want %d: %.200s", rec.Code, status, rec.Body.Bytes())
		}
		thenValid(t)
	}
	// hidden keeps a body's length from the request, so only the cap on
	// what the decode reads stops it.
	hidden := func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) }

	t.Run("cancelled mid-chunk", func(t *testing.T) {
		ctx := &midChunkCancel{Context: context.Background()}
		rec := serveBody(h, ctx, bytes.NewReader(encodeChunk(t, reads[:1000])))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %.200s", rec.Code, rec.Body.Bytes())
		}
		if polls := ctx.polls.Load(); polls < 3 || polls > 12 {
			t.Fatalf("the workers polled %d times: the cancel did not land mid-chunk", polls)
		}
		thenValid(t)
	})
	t.Run("malformed", func(t *testing.T) {
		refused(t, io.MultiReader(bytes.NewReader(bodies[2]), strings.NewReader("@bad\nACGT\n+\n!!\n")), http.StatusBadRequest)
	})
	t.Run("too many reads", func(t *testing.T) {
		refused(t, bytes.NewReader(encodeChunk(t, reads[:1600])), http.StatusRequestEntityTooLarge)
	})
	t.Run("empty", func(t *testing.T) { refused(t, strings.NewReader(""), http.StatusBadRequest) })
	long := make([]seq.Read, 1000)
	for i, r := range reads[:len(long)] {
		r.ID += strings.Repeat("x", 300)
		long[i] = r
	}
	longBody := encodeChunk(t, long)
	t.Run("oversize, declared", func(t *testing.T) {
		refused(t, bytes.NewReader(longBody), http.StatusRequestEntityTooLarge)
	})
	t.Run("oversize, read past the cap", func(t *testing.T) {
		refused(t, hidden(longBody), http.StatusRequestEntityTooLarge)
	})
	t.Run("larger than any buffer so far", func(t *testing.T) {
		big := reads[1000:2400]
		if err := checkReply(serveBody(h, context.Background(), hidden(encodeChunk(t, big))), expectReply(t, svc, big)); err != nil {
			t.Fatal(err)
		}
		thenValid(t)
	})
}

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestServeRequestAllocs pins what a warmed local /v2/correct of a 500-read
// chunk allocates at Workers 1: under 32 KiB a request. The request and the
// response writer are made outside the measurement; the handler's own header
// values are inside it, a few hundred bytes. What is left is mostly the
// reads' ID strings and the per-chunk Corrector; the decoded reads, their
// bases, the tile table, the scratch and the reply are borrowed.
func TestServeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	srv, reads, _ := testFixture(t, ServerOptions{Workers: 1, MaxInflight: 1})
	defer srv.close()
	h := srv.mux()
	body := encodeChunk(t, reads[:500])
	const warm, laps = 3, 8
	reqs := make([]*http.Request, warm+laps)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v2/correct?engine=reptile&spectrum=main", bytes.NewReader(body))
	}
	w := &discardWriter{h: http.Header{}}
	// One P, so each request finds the pool items the last one put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, r := range reqs[:warm] {
		h.ServeHTTP(w, r)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs[warm:] {
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	if got := w.h.Get("X-Kserve-Reads"); got != "500" {
		t.Fatalf("X-Kserve-Reads %q: the requests were not answered", got)
	}
	perRequest := (after.TotalAlloc - before.TotalAlloc) / laps
	t.Logf("%d bytes, %d mallocs a request", perRequest, (after.Mallocs-before.Mallocs)/laps)
	if perRequest >= 32<<10 {
		t.Errorf("a warmed 500-read request allocates %d bytes, want < 32 KiB", perRequest)
	}
}

// TestRequestBufferBound: a request buffer that held a chunk past
// maxPooledRequest is dropped, not put back, so one large request is not
// pinned by the pool; a 500-read chunk's buffer stays well inside the bound.
func TestRequestBufferBound(t *testing.T) {
	fill := func(n int) *requestBuf {
		chunk := make([]seq.Read, n)
		for i := range chunk {
			bases := []byte("ACGTACGTTGCAACGTACGTTGCAACGTACGTTGCA")
			bases[i%len(bases)] = "ACGT"[i%4]
			chunk[i] = seq.Read{ID: fmt.Sprint("r", i), Seq: bases, Qual: bytes.Repeat([]byte{30}, len(bases))}
		}
		rb := new(requestBuf)
		reads, err := fastq.DecodeChunkInto(bytes.NewReader(encodeChunk(t, chunk)), 0, &rb.decode)
		if err != nil {
			t.Fatal(err)
		}
		rb.keepBases(reads)
		if rb.reply, err = fastq.AppendChunk(rb.reply[:0], reads); err != nil {
			t.Fatal(err)
		}
		return rb
	}
	if small := fill(500); small.kept() > maxPooledRequest/16 {
		t.Errorf("a 500-read request keeps %d bytes, a sixteenth of the bound is %d", small.kept(), maxPooledRequest/16)
	}
	big := fill(20000)
	if big.kept() <= maxPooledRequest {
		t.Fatalf("a 20 000-read request keeps %d bytes, inside the %d-byte bound", big.kept(), maxPooledRequest)
	}
	putRequest(big)
	for range 4 {
		if requestPool.Get() == big {
			t.Fatal("a buffer past the bound went back to the pool")
		}
	}
}

// TestServeOneNeighborIndex: on a local entry, the Reptile service behind
// /v2/correct and POST /v2/query at the service's radius ask the spectrum for
// the same (d, c), so they answer from one neighbor index, the spectrum's
// own; two entries over one spectrum share it too. That a service walks the
// index its spectrum hands out is reptile's TestChunkInPlaceMatchesCopy.
func TestServeOneNeighborIndex(t *testing.T) {
	srv, _, spec := testFixture(t, ServerOptions{})
	defer srv.close()
	rep, err := engine.Lookup(reptile.EngineName)
	if err != nil {
		t.Fatal(err)
	}
	var indexes []*kspectrum.NeighborIndex
	for _, name := range []string{"main", "alt"} {
		e := srv.reg.get(name)
		svc, err := srv.service(rep, e)
		e.release()
		if err != nil {
			t.Fatal(err)
		}
		p := svc.(*reptile.Service).Params()
		fromService, err := spec.ServingNeighborIndex(p.D, p.C)
		if err != nil {
			t.Fatal(err)
		}
		fromQuery, err := queryIndex(e.spec, p.D)
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, fromService, fromQuery)
	}
	for i, ni := range indexes {
		if ni != indexes[0] {
			t.Fatalf("index %d is %p, index 0 %p: the endpoints keep more than one", i, ni, indexes[0])
		}
	}
}
