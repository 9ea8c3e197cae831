// Package remote implements the distributed spectrum backend: a
// coordinator-side kspectrum.SpectrumBackend that routes kmer queries to
// the daemon nodes owning each prefix shard, merges their answers, and
// surfaces node failures as errors rather than absent kmers. The wire
// protocol is two endpoints every node serves: GET /v2/shards lists the
// shard entries a node owns, POST /v2/query answers batched
// membership/count and d-neighborhood queries against one entry.
package remote

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// POST /v2/query speaks one binary frame format in both directions. All
// integers are little-endian, and every frame ends in the CRC-32C
// (Castagnoli, as the spectrum stores use) of the bytes before it:
//
//	request:      u32 d | u32 n | n × u64 kmer | u32 crc
//	d = 0 answer: u32 n | n × i64 shard-local index (-1 absent) | n × u32 count | u32 crc
//	d > 0 answer: u32 n | n × u32 list length | Σ × u64 kmer | u32 crc
//
// The decoders refuse a kmer outside the 2k-bit keyspace in both
// directions: past them a kmer indexes prefix buckets and shard tables.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Answer is a decoded /v2/query answer. A d = 0 answer fills Indexes
// and Counts; a d > 0 answer fills Flat and Ends, list i being
// Flat[Ends[i-1]:Ends[i]] — the kmers within distance d of the i-th
// kmer asked, ascending.
type Answer struct {
	Indexes []int
	Counts  []uint32
	Flat    []seq.Kmer
	Ends    []int
}

// List returns the i-th neighbor list of a d > 0 answer.
func (a *Answer) List(i int) []seq.Kmer {
	from := 0
	if i > 0 {
		from = a.Ends[i-1]
	}
	return a.Flat[from:a.Ends[i]]
}

// AppendQuery appends to dst the request frame asking radius d for
// kms[p] of each p in at, in at order.
func AppendQuery(dst []byte, d int, kms []seq.Kmer, at []int) []byte {
	dst = binary.LittleEndian.AppendUint32(slices.Grow(dst, 12+8*len(at)), uint32(d))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(at)))
	for _, p := range at {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(kms[p]))
	}
	return seal(dst)
}

// DecodeQuery decodes a request frame for a k-base spectrum.
func DecodeQuery(frame []byte, k int) (d int, kms []seq.Kmer, err error) {
	body, n, err := open(frame, 8, 8, true)
	if err == nil {
		kms, err = appendKmers(nil, body[8:], n, k)
	}
	if err != nil {
		return 0, nil, err
	}
	return int(binary.LittleEndian.Uint32(body)), kms, nil
}

// AppendAnswer appends a's frame to dst: the d = 0 form when d == 0.
func AppendAnswer(dst []byte, d int, a *Answer) []byte {
	if d == 0 {
		dst = binary.LittleEndian.AppendUint32(slices.Grow(dst, 8+12*len(a.Indexes)), uint32(len(a.Indexes)))
		for _, idx := range a.Indexes {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(idx))
		}
		for _, c := range a.Counts {
			dst = binary.LittleEndian.AppendUint32(dst, c)
		}
		return seal(dst)
	}
	dst = binary.LittleEndian.AppendUint32(slices.Grow(dst, 8+4*len(a.Ends)+8*len(a.Flat)), uint32(len(a.Ends)))
	for i := range a.Ends {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.List(i))))
	}
	for _, km := range a.Flat {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(km))
	}
	return seal(dst)
}

// DecodeAnswer decodes frame, the answer to a radius-d query, holding it
// to what shard of part, with size kmers, can say (a whole spectrum is
// shard 0 of the zero-bit partition): kmers in its slice of the keyspace,
// strictly ascending lists, indexes in [-1, size), and no count for an
// absent kmer.
func DecodeAnswer(frame []byte, d int, part kspectrum.PrefixPartition, shard, size int) (a Answer, err error) {
	if d == 0 {
		body, n, err := open(frame, 4, 12, true)
		if err != nil {
			return a, err
		}
		for i := range n {
			idx := int(int64(binary.LittleEndian.Uint64(body[4+8*i:])))
			count := binary.LittleEndian.Uint32(body[4+8*n+4*i:])
			if idx < -1 || idx >= size {
				return a, fmt.Errorf("kmer %d: index %d outside [-1, %d)", i, idx, size)
			}
			if idx < 0 && count != 0 {
				return a, fmt.Errorf("kmer %d: count %d for an absent kmer", i, count)
			}
			a.Indexes, a.Counts = append(a.Indexes, idx), append(a.Counts, count)
		}
		return a, nil
	}
	body, n, err := open(frame, 4, 4, false)
	if err != nil {
		return a, err
	}
	total := uint64(0)
	for i := range n {
		total += uint64(binary.LittleEndian.Uint32(body[4+4*i:]))
		a.Ends = append(a.Ends, int(total))
	}
	if rest := uint64(len(body) - 4 - 4*n); rest%8 != 0 || rest/8 != total {
		return a, fmt.Errorf("frame of %d bytes does not hold its %d neighbor lists of %d kmers", len(frame), n, total)
	}
	if a.Flat, err = appendKmers(nil, body[4+4*n:], int(total), part.K); err != nil {
		return a, err
	}
	for i := range n {
		list := a.List(i)
		for j, km := range list {
			if s := part.ShardOf(km); s != shard {
				return a, fmt.Errorf("kmer %d belongs to shard %d, not %d", uint64(km), s, shard)
			}
			if j > 0 && km <= list[j-1] {
				return a, fmt.Errorf("neighbor list %d is not strictly ascending at %d", i, uint64(km))
			}
		}
	}
	return a, nil
}

// seal appends the CRC trailer to a frame body.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// open checks frame's CRC trailer and returns its body and the count n at
// head-4, refusing a body short of n entries of per bytes (or, if exact, longer).
func open(frame []byte, head, per int, exact bool) (body []byte, n int, err error) {
	if len(frame) < head+4 {
		return nil, 0, fmt.Errorf("frame of %d bytes is truncated", len(frame))
	}
	body = frame[:len(frame)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(frame[len(body):]) {
		return nil, 0, fmt.Errorf("frame of %d bytes fails its CRC", len(frame))
	}
	n = int(binary.LittleEndian.Uint32(body[head-4:]))
	if rest, need := uint64(len(body)-head), uint64(n)*uint64(per); rest < need || exact && rest != need {
		return nil, 0, fmt.Errorf("frame of %d bytes cannot hold its %d entries", len(frame), n)
	}
	return body, n, nil
}

// appendKmers appends the n kmers packed at the start of b to dst,
// refusing a value outside the 2k-bit keyspace.
func appendKmers(dst []seq.Kmer, b []byte, n, k int) ([]seq.Kmer, error) {
	dst = slices.Grow(dst, n)
	for i := range n {
		v := binary.LittleEndian.Uint64(b[8*i:])
		if k < seq.MaxK && v>>uint(2*k) != 0 {
			return dst, fmt.Errorf("kmer %d: value \"%d\" does not fit a packed %d-mer", i, v, k)
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
