// Package remote implements the distributed spectrum backend: a
// coordinator-side kspectrum.SpectrumBackend that routes kmer queries to
// the daemon nodes owning each prefix shard, merges their answers, and
// surfaces node failures as errors rather than absent kmers. The wire
// protocol is two endpoints every node serves: GET /v2/shards lists the
// shard entries a node owns, POST /v2/query answers batched
// membership/count and d-neighborhood queries against one entry.
package remote

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/seq"
)

// Kmers cross the wire as decimal strings, not JSON numbers: a packed
// k=32 kmer occupies 64 bits and JSON numbers lose integer precision
// past 2^53. EncodeKmers and DecodeKmers are the only codec, for requests
// and answers alike, so the keyspace check guards both directions.

// EncodeKmers renders kmers as the wire's decimal strings.
func EncodeKmers(kms []seq.Kmer) []string {
	out := make([]string, len(kms))
	for i, km := range kms {
		out[i] = strconv.FormatUint(uint64(km), 10)
	}
	return out
}

// DecodeKmers appends the kmers of a k-base spectrum that strs spell to
// dst. A string that is not a decimal uint64 as EncodeKmers writes it (no
// sign, no leading zeros), or whose value lies outside the 2k-bit
// keyspace, is an error naming its position: past this point a kmer
// indexes prefix buckets and shard tables, and a value >= 4^k from a
// hostile client or a corrupt node would index them out of range.
func DecodeKmers(dst []seq.Kmer, strs []string, k int) ([]seq.Kmer, error) {
	dst = slices.Grow(dst, len(strs))
	kbits := uint(2 * k)
	for i, str := range strs {
		v, err := strconv.ParseUint(str, 10, 64)
		if err != nil || len(str) > 1 && str[0] == '0' {
			return dst, fmt.Errorf("kmer %d: bad value %q", i, str)
		}
		if kbits < 64 && v>>kbits != 0 {
			return dst, fmt.Errorf("kmer %d: value %q does not fit a packed %d-mer", i, str, k)
		}
		dst = append(dst, seq.Kmer(v))
	}
	return dst, nil
}

// ShardInfo describes one shard entry a node serves, as listed by
// GET /v2/shards.
type ShardInfo struct {
	// Spectrum is the base spectrum name the shard belongs to.
	Spectrum string `json:"spectrum"`
	// Shard and Of locate this shard in the prefix partition (0-based
	// shard number of a power-of-two total).
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// Entry is the node's registry name for the shard
	// (kspectrum.ShardEntryName), the value /v2/query?spectrum= takes.
	Entry string `json:"entry"`
	// K and BothStrands echo the shard store's metadata.
	K           int  `json:"k"`
	BothStrands bool `json:"both_strands"`
	// Kmers is the number of distinct kmers in this shard.
	Kmers int `json:"kmers"`
}

// ShardsResponse is the GET /v2/shards payload.
type ShardsResponse struct {
	Shards []ShardInfo `json:"shards"`
}

// QueryRequest is the POST /v2/query body: a batch of kmers (decimal
// strings) and a neighborhood radius. D == 0 asks membership: the
// response carries per-kmer shard-local indexes (-1 absent) and counts.
// D > 0 asks d-neighborhoods: the response carries, per input kmer, the
// shard's spectrum kmers within Hamming distance D, ascending.
type QueryRequest struct {
	Kmers []string `json:"kmers"`
	D     int      `json:"d,omitempty"`
}

// QueryResponse is the POST /v2/query answer.
type QueryResponse struct {
	// Indexes[i] is the shard-local position of Kmers[i] (-1 when
	// absent); the coordinator adds the shard's global offset. Present
	// for D == 0 queries.
	Indexes []int `json:"indexes,omitempty"`
	// Counts[i] is the occurrence count of Kmers[i] (0 when absent).
	// Present for D == 0 queries.
	Counts []uint32 `json:"counts,omitempty"`
	// Neighbors[i] lists the shard kmers within distance D of Kmers[i],
	// ascending, as decimal strings. Present for D > 0 queries.
	Neighbors [][]string `json:"neighbors,omitempty"`
}

// ShardUnavailableError reports that a shard's owning node could not
// answer within the retry budget — the coordinator's signal to degrade
// that shard's keyspace to 503-with-Retry-After while the rest of the
// spectrum keeps serving. It is an availability error, never a wrong
// answer: correction requests touching the shard fail explicitly.
type ShardUnavailableError struct {
	// Spectrum and Shard identify the unreachable keyspace slice.
	Spectrum string
	Shard    int
	// Node is the owning node's base URL.
	Node string
	// RetryAfter is the node's own recovery estimate in seconds (0 when
	// it sent none); the coordinator forwards it to its clients.
	RetryAfter int
	// Err is the final attempt's failure.
	Err error
}

func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("remote: shard %d of spectrum %q unavailable at %s: %v",
		e.Shard, e.Spectrum, e.Node, e.Err)
}

func (e *ShardUnavailableError) Unwrap() error { return e.Err }
