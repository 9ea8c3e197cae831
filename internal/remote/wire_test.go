package remote_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/kspectrum"
	"repro/internal/remote"
	"repro/internal/seq"
)

// answering is a fake node's /v2/query: whatever radius it is asked, it
// answers with a's frame.
func answering(t *testing.T, a remote.Answer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		frame, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		d, _, err := remote.DecodeQuery(frame, 13)
		if err != nil {
			t.Errorf("the coordinator sent a frame its own node cannot read: %v", err)
		}
		w.Write(remote.AppendAnswer(nil, d, &a))
	}
}

// TestNodeAnswerOutsideKeyspace: a neighbor a node returns is held to the
// same 2k-bit range as a kmer a client sends. 4294967296 = 4^16 does not
// fit a 13-mer; handed on, correctTile would mutate reads towards it.
func TestNodeAnswerOutsideKeyspace(t *testing.T) {
	rs, node := fakeNode(t, 1, answering(t, remote.Answer{Flat: []seq.Kmer{5, 4294967296}, Ends: []int{2}}))
	hoods, err := rs.NeighborhoodMany(context.Background(), []seq.Kmer{5}, 1)
	if err == nil {
		t.Fatalf("accepted the answer: %v", hoods)
	}
	for _, want := range []string{"malformed answer", "shard 0", node, `"4294967296"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// fakeNode serves the of shards of a 13-mer spectrum "main", two kmers
// each, whose /v2/query answers come from query, and returns a
// RemoteSpectrum over it that retries up to three times.
func fakeNode(t *testing.T, of int, query http.HandlerFunc) (*remote.RemoteSpectrum, string) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/shards", func(w http.ResponseWriter, r *http.Request) {
		var listing remote.ShardsResponse
		for i := range of {
			listing.Shards = append(listing.Shards, remote.ShardInfo{
				Spectrum: "main", Shard: i, Of: of, Entry: kspectrum.ShardEntryName("main", i, of),
				K: 13, BothStrands: true, Kmers: 2,
			})
		}
		json.NewEncoder(w).Encode(listing)
	})
	mux.HandleFunc("/v2/query", query)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	maps, err := remote.Discover(context.Background(), nil, []string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := remote.New(maps["main"], remote.Options{
		Policy: client.Policy{MaxRetries: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs, ts.URL
}

// TestNodeAnswerWrongShape: an answer with the wrong number of indexes,
// counts or neighbor lists for the kmers asked fails the query with the
// malformed-answer error, which names the shard, its node, and what was
// wanted against what came back. So does an answer of the right shape
// that says what the shard cannot: a neighbor list out of order, a kmer
// another shard owns, an index outside the shard, or a count for an
// absent kmer.
func TestNodeAnswerWrongShape(t *testing.T) {
	ask := []seq.Kmer{5, 6}
	hoods := func(d int) func(*remote.RemoteSpectrum) error {
		return func(rs *remote.RemoteSpectrum) error {
			_, err := rs.NeighborhoodMany(context.Background(), ask, d)
			return err
		}
	}
	counts := func(rs *remote.RemoteSpectrum) error { return rs.CountMany(ask, make([]uint32, 2)) }
	short0 := remote.Answer{Indexes: []int{0}, Counts: []uint32{3}}
	short1 := remote.Answer{Flat: []seq.Kmer{5}, Ends: []int{1}}
	for _, tc := range []struct {
		name, want string
		of         int // shards the node serves
		answer     remote.Answer
		run        func(*remote.RemoteSpectrum) error
	}{
		{"d=0 neighborhoods", "want 2 indexes, got 1", 1, short0, hoods(0)},
		{"d=1 neighborhoods", "want 2 neighbor lists, got 1", 1, short1, hoods(1)},
		{"counts", "want 2 counts, got 1", 1, short0, counts},
		{"indexes and counts", "want 2 indexes and counts, got 1", 1, short0, func(rs *remote.RemoteSpectrum) error {
			return rs.IndexCountManyCtx(context.Background(), ask, make([]int, 2), make([]uint32, 2))
		}},
		{"list out of order", "neighbor list 0 is not strictly ascending at 5", 1,
			remote.Answer{Flat: []seq.Kmer{6, 5, 6}, Ends: []int{2, 3}}, hoods(1)},
		{"kmer of another shard", "kmer 33554437 belongs to shard 1, not 0", 2,
			remote.Answer{Flat: []seq.Kmer{1<<25 | 5, 1<<25 | 6}, Ends: []int{1, 2}}, hoods(1)},
		{"index outside the shard", "kmer 1: index 2 outside [-1, 2)", 1,
			remote.Answer{Indexes: []int{0, 2}, Counts: []uint32{3, 1}}, hoods(0)},
		{"count for an absent kmer", "kmer 0: count 4 for an absent kmer", 1,
			remote.Answer{Indexes: []int{-1, 0}, Counts: []uint32{4, 1}}, counts},
	} {
		rs, node := fakeNode(t, tc.of, answering(t, tc.answer))
		err := tc.run(rs)
		if err == nil {
			t.Errorf("%s: the answer was accepted", tc.name)
			continue
		}
		for _, want := range []string{"malformed answer", "shard 0", node, tc.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}

// TestNodeBadRequestFailsFast: a 400 is the node refusing the question,
// which no retry changes. It fails the query after one request, as an
// error rather than an unavailable shard, carrying at most the first 200
// bytes of the node's body.
func TestNodeBadRequestFailsFast(t *testing.T) {
	var requests atomic.Int64
	body := strings.Repeat("a", 200) + strings.Repeat("b", 800)
	rs, node := fakeNode(t, 1, func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, body, http.StatusBadRequest)
	})
	_, err := rs.NeighborhoodMany(context.Background(), []seq.Kmer{5}, 1)
	if err == nil {
		t.Fatal("a 400 answer was accepted")
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("the node was asked %d times for a question it refused", n)
	}
	var sue *remote.ShardUnavailableError
	if errors.As(err, &sue) {
		t.Errorf("a refusal reads as an unavailable shard: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"HTTP 400", "shard 0", node, strings.Repeat("a", 200)} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %.120q… does not carry %.20q", msg, want)
		}
	}
	if strings.Contains(msg, "ab") {
		t.Errorf("error carries more than 200 bytes of the body: %d bytes", len(msg))
	}
}

// TestQueryFixtures pins the committed one-kmer request frames (the
// cluster-smoke CI job's node-death probes: the all-T 13-mer, on the last
// of 4 shards, and the all-A one, on the first) to the encoder's bytes.
func TestQueryFixtures(t *testing.T) {
	for name, km := range map[string]seq.Kmer{"query_all_t_13mer.bin": 1<<26 - 1, "query_all_a_13mer.bin": 0} {
		got, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := queryFrame(0, []seq.Kmer{km}); !bytes.Equal(got, want) {
			t.Errorf("%s holds % x, the encoder writes % x", name, got, want)
		}
	}
}

// queryFrame is the request frame asking radius d for every kmer of kms.
func queryFrame(d int, kms []seq.Kmer) []byte {
	at := make([]int, len(kms))
	for i := range at {
		at[i] = i
	}
	return remote.AppendQuery(nil, d, kms, at)
}

// reseal rewrites a frame's CRC trailer, so an edited seed reaches the
// checks behind it.
func reseal(frame []byte) []byte {
	body := slices.Clone(frame[:len(frame)-4])
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// frameSeeds derives the fuzz seeds every frame decoder starts from: the
// empty input, the valid frame, its tail cut, one byte flipped, and the
// count at offset nAt raised past what the body holds (resealed).
func frameSeeds(valid []byte, nAt int) [][]byte {
	flipped := slices.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	grown := slices.Clone(valid)
	binary.LittleEndian.PutUint32(grown[nAt:], 1<<20)
	return [][]byte{{}, valid, valid[:len(valid)-3], flipped, reseal(grown)}
}

// inKeyspace fails t for a kmer outside the 2k-bit keyspace.
func inKeyspace(t *testing.T, km seq.Kmer, k int) {
	if k < seq.MaxK && uint64(km)>>uint(2*k) != 0 {
		t.Fatalf("accepted %d as a %d-mer", uint64(km), k)
	}
}

// FuzzQueryFrame: decoding any input as a request never panics; what it
// accepts holds the declared number of kmers, each inside the 2k-bit
// keyspace, and re-encodes to the same bytes.
func FuzzQueryFrame(f *testing.F) {
	for _, seed := range frameSeeds(queryFrame(1, []seq.Kmer{0, 5, 1<<26 - 1}), 4) {
		f.Add(seed, uint8(13))
	}
	f.Add(queryFrame(0, []seq.Kmer{1 << 26}), uint8(13)) // 4^13: outside a 13-mer's keyspace
	f.Add(queryFrame(2, []seq.Kmer{1<<64 - 1}), uint8(32))
	f.Fuzz(func(t *testing.T, frame []byte, kb uint8) {
		k := 1 + int(kb)%seq.MaxK
		d, kms, err := remote.DecodeQuery(frame, k)
		if err != nil {
			return
		}
		if n := binary.LittleEndian.Uint32(frame[4:]); uint32(len(kms)) != n {
			t.Fatalf("a frame declaring %d kmers decoded to %d", n, len(kms))
		}
		for _, km := range kms {
			inKeyspace(t, km, k)
		}
		if back := queryFrame(d, kms); !bytes.Equal(back, frame) {
			t.Fatalf("accepted % x, which re-encodes as % x", frame, back)
		}
	})
}

// FuzzAnswerFrame: decoding any input as an answer from one shard never
// panics; what it accepts has the declared number of entries and only
// says what that shard can — kmers in its slice of the keyspace,
// strictly ascending lists, indexes in [-1, size), no count for an
// absent kmer — and re-encodes to the same bytes.
func FuzzAnswerFrame(f *testing.F) {
	d0 := remote.AppendAnswer(nil, 0, &remote.Answer{Indexes: []int{-1, 0, 3}, Counts: []uint32{0, 7, 2}})
	d1 := remote.AppendAnswer(nil, 1, &remote.Answer{Flat: []seq.Kmer{1, 4, 5, 9}, Ends: []int{2, 2, 4}})
	for _, seed := range frameSeeds(d0, 0) {
		f.Add(seed, uint8(0), uint8(13), uint8(0), uint16(4))
	}
	for _, seed := range frameSeeds(d1, 0) {
		f.Add(seed, uint8(1), uint8(13), uint8(0), uint16(4))
	}
	f.Add(remote.AppendAnswer(nil, 2, &remote.Answer{Flat: []seq.Kmer{1 << 26}, Ends: []int{1}}), uint8(2), uint8(13), uint8(0), uint16(4))
	f.Add(d1, uint8(1), uint8(13), uint8(0x21), uint16(4)) // shard 1 of 4: every kmer belongs to shard 0
	f.Fuzz(func(t *testing.T, frame []byte, d, kb, at uint8, size uint16) {
		k := 1 + int(kb)%seq.MaxK
		part := kspectrum.PrefixPartition{K: k, Bits: uint(at>>4) % 3}
		shard := int(at&15) % part.Shards()
		a, err := remote.DecodeAnswer(frame, int(d), part, shard, int(size))
		if err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(frame))
		if d == 0 {
			if len(a.Indexes) != n || len(a.Counts) != n {
				t.Fatalf("a frame declaring %d answers decoded to %d indexes and %d counts", n, len(a.Indexes), len(a.Counts))
			}
			for i, idx := range a.Indexes {
				if idx < -1 || idx >= int(size) || idx < 0 && a.Counts[i] != 0 {
					t.Fatalf("accepted index %d, count %d from a shard of %d kmers", idx, a.Counts[i], size)
				}
			}
		} else {
			if len(a.Ends) != n || n > 0 && a.Ends[n-1] != len(a.Flat) {
				t.Fatalf("a frame declaring %d lists decoded to ends %v over %d kmers", n, a.Ends, len(a.Flat))
			}
			for i := range n {
				list := a.List(i)
				for j, km := range list {
					inKeyspace(t, km, k)
					if part.ShardOf(km) != shard || j > 0 && km <= list[j-1] {
						t.Fatalf("accepted list %v from shard %d of %d", list, shard, part.Shards())
					}
				}
			}
		}
		if back := remote.AppendAnswer(nil, int(d), &a); !bytes.Equal(back, frame) {
			t.Fatalf("accepted % x, which re-encodes as % x", frame, back)
		}
	})
}
