package remote_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

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
