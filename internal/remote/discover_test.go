package remote_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/remote"
	"repro/internal/seq"
)

// listings is an http.RoundTripper standing in for a set of nodes: GET
// http://<host>/v2/shards answers the body filed under <host>, so
// Discover runs over arbitrary listings without a socket.
type listings map[string]string

func (l listings) RoundTrip(req *http.Request) (*http.Response, error) {
	body, ok := l[req.URL.Host]
	if !ok || req.URL.Path != "/v2/shards" {
		return nil, fmt.Errorf("no node at %s", req.URL)
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Body: io.NopCloser(strings.NewReader(body)), Request: req,
	}, nil
}

// discover runs Discover over one listing body per node.
func discover(bodies ...string) (map[string]*remote.ShardMap, error) {
	l := make(listings)
	var nodes []string
	for i, body := range bodies {
		host := fmt.Sprintf("node%d", i)
		l[host] = body
		nodes = append(nodes, "http://"+host)
	}
	return remote.Discover(context.Background(), &http.Client{Transport: l}, nodes)
}

// listing renders shard entries as a GET /v2/shards body.
func listing(t testing.TB, shards ...remote.ShardInfo) string {
	t.Helper()
	body, err := json.Marshal(remote.ShardsResponse{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// checkShardMaps asserts what every map Discover accepts must satisfy
// before a RemoteSpectrum routes by it.
func checkShardMaps(t *testing.T, maps map[string]*remote.ShardMap) {
	t.Helper()
	for name, m := range maps {
		if m.Part.K < 1 || m.Part.K > seq.MaxK {
			t.Errorf("%q: accepted k=%d", name, m.Part.K)
		}
		if m.Part.Bits > uint(2*m.Part.K) {
			t.Errorf("%q: %d prefix bits on a %d-base keyspace", name, m.Part.Bits, m.Part.K)
		}
		if len(m.Shards) != m.Part.Shards() {
			t.Errorf("%q: %d shard slots for a %d-shard partition", name, len(m.Shards), m.Part.Shards())
		}
		for i, loc := range m.Shards {
			if loc.Node == "" {
				t.Errorf("%q: shard %d has no owner", name, i)
			}
			if loc.Kmers < 0 {
				t.Errorf("%q: shard %d holds %d kmers", name, i, loc.Kmers)
			}
		}
		rs, err := remote.New(m, remote.Options{})
		if err != nil {
			t.Errorf("%q: New refuses a discovered map: %v", name, err)
		} else if rs.Len() < 0 {
			t.Errorf("%q: %d kmers in total", name, rs.Len())
		}
	}
}

// malformedListings are single-node listings a coordinator must refuse:
// a shard count no listing could fill (a makeslice panic before the
// check), a partition finer than the keyspace (Shift wraps, every kmer
// routes to shard 0), a kmer length no Kmer can pack, and kmer counts
// that turn the global offsets negative.
func malformedListings(t testing.TB) map[string]string {
	entry := func(shard, of, k, kmers int) remote.ShardInfo {
		return remote.ShardInfo{Spectrum: "main", Shard: shard, Of: of, Entry: fmt.Sprint("e", shard), K: k, BothStrands: true, Kmers: kmers}
	}
	var sixteen []remote.ShardInfo
	for i := 0; i < 16; i++ {
		sixteen = append(sixteen, entry(i, 16, 1, 0))
	}
	return map[string]string{
		"of beyond the listings": listing(t, entry(0, 1<<40, 11, 1)),
		"of beyond 4^k":          listing(t, sixteen...),
		"k out of range":         listing(t, entry(0, 1, 33, 1)),
		"negative kmers":         listing(t, entry(0, 2, 11, -5), entry(1, 2, 11, 9)),
		"kmers overflow":         listing(t, entry(0, 2, 11, math.MaxInt), entry(1, 2, 11, math.MaxInt)),
	}
}

func validListings(t testing.TB) []string {
	a := remote.ShardInfo{Spectrum: "main", Of: 2, Entry: "main.s0of2", K: 11, BothStrands: true, Kmers: 10}
	b := a
	b.Shard, b.Entry, b.Kmers = 1, "main.s1of2", 0
	return []string{listing(t, a), listing(t, b)}
}

// TestDiscoverRejectsMalformedListings: each malformed listing is a
// discovery error, never a panic or a map that misroutes.
func TestDiscoverRejectsMalformedListings(t *testing.T) {
	for name, body := range malformedListings(t) {
		t.Run(name, func(t *testing.T) {
			maps, err := discover(body)
			if err == nil {
				t.Errorf("accepted: %+v", maps["main"])
			}
		})
	}
	maps, err := discover(validListings(t)...)
	if err != nil || maps["main"] == nil || len(maps["main"].Shards) != 2 {
		t.Fatalf("two nodes owning one shard each: %v, %v", maps, err)
	}
	checkShardMaps(t, maps)
}

// FuzzDiscover feeds arbitrary /v2/shards bodies to Discover: it must
// not panic or allocate by an advertised size, and whatever it accepts
// is a complete, routable map.
func FuzzDiscover(f *testing.F) {
	for _, body := range malformedListings(f) {
		f.Add(body)
	}
	f.Add(validListings(f)[0])
	f.Add(`{"shards":[{"spectrum":"s","shard":0,"of":1,"entry":"s.s0of1","k":32,"both_strands":false,"kmers":0}]}`)
	f.Add(`{"shards":null}`)
	f.Fuzz(func(t *testing.T, body string) {
		maps, err := discover(body)
		if err == nil {
			checkShardMaps(t, maps)
		}
	})
}
