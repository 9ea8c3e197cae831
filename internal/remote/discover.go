package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// ShardLoc is one shard's resolved location in a cluster: the node that
// owns it and the registry entry to query it under.
type ShardLoc struct {
	Node  string
	Entry string
	Kmers int
}

// ShardMap is one spectrum's complete distribution across a cluster: a
// prefix partition plus the owning node of every shard. Built by
// Discover, consumed by New.
type ShardMap struct {
	Spectrum    string
	Part        kspectrum.PrefixPartition
	BothStrands bool
	Shards      []ShardLoc
}

// Discover polls every node's GET /v2/shards and assembles per-spectrum
// shard maps. It is strict: every spectrum mentioned anywhere must have
// all of its shards owned by exactly one node each, with consistent k,
// shard count and strand closure — a partial or conflicting map would
// silently misroute queries, so it is a startup error instead. The
// listings are another process's word, so every entry is vetted (check)
// before anything is sized or routed by it. A nil httpc uses
// http.DefaultClient.
func Discover(ctx context.Context, httpc *http.Client, nodes []string) (map[string]*ShardMap, error) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	// All listings first: how many entries a spectrum has across them
	// bounds the shard count it can honestly advertise.
	listings := make([]*ShardsResponse, len(nodes))
	listed := make(map[string]int)
	for i, node := range nodes {
		sr, err := fetchShards(ctx, httpc, node)
		if err != nil {
			return nil, fmt.Errorf("remote: discovering %s: %w", node, err)
		}
		listings[i] = sr
		for _, si := range sr.Shards {
			listed[si.Spectrum]++
		}
	}
	maps := make(map[string]*ShardMap)
	for i, node := range nodes {
		for _, si := range listings[i].Shards {
			if err := si.check(listed[si.Spectrum]); err != nil {
				return nil, fmt.Errorf("remote: node %s: %w", node, err)
			}
			m := maps[si.Spectrum]
			if m == nil {
				m = &ShardMap{
					Spectrum:    si.Spectrum,
					Part:        kspectrum.PrefixPartition{K: si.K, Bits: uint(bits.TrailingZeros(uint(si.Of)))},
					BothStrands: si.BothStrands,
					Shards:      make([]ShardLoc, si.Of),
				}
				maps[si.Spectrum] = m
			}
			if si.K != m.Part.K || si.Of != len(m.Shards) || si.BothStrands != m.BothStrands {
				return nil, fmt.Errorf("remote: node %s: spectrum %q shard %d (k=%d, of=%d, both=%v) disagrees with the cluster (k=%d, of=%d, both=%v)",
					node, si.Spectrum, si.Shard, si.K, si.Of, si.BothStrands, m.Part.K, len(m.Shards), m.BothStrands)
			}
			if owner := m.Shards[si.Shard].Node; owner != "" {
				return nil, fmt.Errorf("remote: spectrum %q shard %d owned by both %s and %s", si.Spectrum, si.Shard, owner, node)
			}
			m.Shards[si.Shard] = ShardLoc{Node: node, Entry: si.Entry, Kmers: si.Kmers}
		}
	}
	names := make([]string, 0, len(maps))
	for name := range maps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := maps[name]
		for i, s := range m.Shards {
			if s.Node == "" {
				return nil, fmt.Errorf("remote: spectrum %q shard %d of %d has no owner among the configured nodes", name, i, len(m.Shards))
			}
		}
	}
	return maps, nil
}

// check vets one advertised shard entry. listed is the number of entries
// the nodes' listings hold for its spectrum: a shard count beyond it can
// never be completely owned, so it is refused before a map of that size
// is allocated. k and the shard count must describe a partition that
// exists — at most 2k prefix bits — or PrefixPartition.Shift wraps and
// every kmer routes to shard 0.
func (si ShardInfo) check(listed int) error {
	switch {
	case si.K < 1 || si.K > seq.MaxK:
		return fmt.Errorf("spectrum %q has k=%d outside [1, %d]", si.Spectrum, si.K, seq.MaxK)
	case si.Of < 1 || si.Of&(si.Of-1) != 0:
		return fmt.Errorf("spectrum %q has non-power-of-two shard count %d", si.Spectrum, si.Of)
	case bits.TrailingZeros(uint(si.Of)) > 2*si.K:
		return fmt.Errorf("spectrum %q has %d shards, more than the 4^%d kmers of its keyspace", si.Spectrum, si.Of, si.K)
	case si.Of > listed:
		return fmt.Errorf("spectrum %q advertises %d shards but the nodes list only %d", si.Spectrum, si.Of, listed)
	case si.Shard < 0 || si.Shard >= si.Of:
		return fmt.Errorf("spectrum %q shard %d out of range of %d", si.Spectrum, si.Shard, si.Of)
	case si.Kmers < 0 || si.Kmers > math.MaxInt/si.Of:
		// Either way the global offsets (prefix sums) would go negative.
		return fmt.Errorf("spectrum %q shard %d has kmer count %d outside [0, MaxInt/%d]", si.Spectrum, si.Shard, si.Kmers, si.Of)
	}
	return nil
}

// fetchShards GETs one node's shard listing.
func fetchShards(ctx context.Context, httpc *http.Client, node string) (*ShardsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v2/shards", nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v2/shards: %s", resp.Status)
	}
	var sr ShardsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("GET /v2/shards: decoding: %w", err)
	}
	return &sr, nil
}
