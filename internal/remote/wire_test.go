package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/remote"
	"repro/internal/seq"
)

// TestNodeAnswerOutsideKeyspace: a neighbor a node returns is held to the
// same 2k-bit range as a kmer a client sends. 4294967296 = 4^16 does not
// fit a 13-mer; handed on, correctTile would mutate reads towards it.
func TestNodeAnswerOutsideKeyspace(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/shards", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(remote.ShardsResponse{Shards: []remote.ShardInfo{{
			Spectrum: "main", Shard: 0, Of: 1, Entry: "main.s0of1", K: 13, BothStrands: true, Kmers: 2,
		}}})
	})
	mux.HandleFunc("/v2/query", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(remote.QueryResponse{Neighbors: [][]string{{"5", "4294967296"}}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	maps, err := remote.Discover(context.Background(), nil, []string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := remote.New(maps["main"], remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hoods, err := rs.NeighborhoodMany(context.Background(), []seq.Kmer{5}, 1)
	if err == nil {
		t.Fatalf("accepted the answer: %v", hoods)
	}
	for _, want := range []string{"malformed answer", "shard 0", ts.URL, `"4294967296"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// fakeNode serves a one-shard 13-mer spectrum "main" whose /v2/query
// answers come from query, and returns a RemoteSpectrum over it that
// retries up to three times.
func fakeNode(t *testing.T, query http.HandlerFunc) (*remote.RemoteSpectrum, string) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/shards", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(remote.ShardsResponse{Shards: []remote.ShardInfo{{
			Spectrum: "main", Shard: 0, Of: 1, Entry: "main.s0of1", K: 13, BothStrands: true, Kmers: 2,
		}}})
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
// wanted against what came back.
func TestNodeAnswerWrongShape(t *testing.T) {
	ask := []seq.Kmer{5, 6}
	short := remote.QueryResponse{Indexes: []int{0}, Counts: []uint32{3}, Neighbors: [][]string{{"5"}}}
	rs, node := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(short)
	})
	for _, tc := range []struct {
		name, want string
		run        func() error
	}{
		{"d=0 neighborhoods", "want 2 indexes, got 1", func() error {
			_, err := rs.NeighborhoodMany(context.Background(), ask, 0)
			return err
		}},
		{"d=1 neighborhoods", "want 2 neighbor lists, got 1", func() error {
			_, err := rs.NeighborhoodMany(context.Background(), ask, 1)
			return err
		}},
		{"counts", "want 2 counts, got 1", func() error {
			return rs.CountMany(ask, make([]uint32, 2))
		}},
		{"indexes and counts", "want 2 indexes and counts, got 1", func() error {
			return rs.IndexCountManyCtx(context.Background(), ask, make([]int, 2), make([]uint32, 2))
		}},
	} {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: a short answer was accepted", tc.name)
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
	rs, node := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
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

// FuzzDecodeKmers: decoding arbitrary wire strings never panics, every
// kmer it accepts lies inside the 2k-bit keyspace, and the codec is a
// bijection — what it accepts re-encodes to the same strings.
func FuzzDecodeKmers(f *testing.F) {
	f.Add("0,5,67108863", uint8(13))
	f.Add("4294967296", uint8(13)) // 4^16: outside a 13-mer's keyspace
	f.Add("18446744073709551615", uint8(32))
	f.Add("18446744073709551616", uint8(32))
	f.Add("007", uint8(4))
	f.Add("-1,+1, 1,0x1,1e3,", uint8(8))
	f.Fuzz(func(t *testing.T, joined string, kb uint8) {
		k := 1 + int(kb)%seq.MaxK
		strs := strings.Split(joined, ",")
		prefix := []seq.Kmer{42}
		kms, err := remote.DecodeKmers(prefix, strs, k)
		if err != nil {
			return
		}
		if len(kms) != 1+len(strs) || kms[0] != 42 {
			t.Fatalf("decoded %d strings into %v after the dst prefix", len(strs), kms)
		}
		for _, km := range kms[1:] {
			if k < seq.MaxK && uint64(km)>>uint(2*k) != 0 {
				t.Fatalf("accepted %d as a %d-mer", uint64(km), k)
			}
		}
		if back := remote.EncodeKmers(kms[1:]); !slices.Equal(back, strs) {
			t.Fatalf("accepted %q, which re-encodes as %q", strs, back)
		}
	})
}
