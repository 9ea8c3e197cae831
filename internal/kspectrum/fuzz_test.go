package kspectrum

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// FuzzCounter replays an arbitrary Inc/Get sequence against the
// open-addressing Counter and a map[uint64]uint32 oracle: every
// intermediate Get, the final Len, and the sorted extraction must agree.
// Each 9-byte record of the input is one operation (8-byte key, 1-byte
// delta; delta 0 exercises the documented no-op).
func FuzzCounter(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 9))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x02" +
		"\x01\x00\x00\x00\x00\x00\x00\x00\x03" +
		"\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	// 80 distinct keys spread over every byte, so mutations of this seed
	// drive all six radix passes of the extraction.
	var many []byte
	for i := uint64(1); i <= 80; i++ {
		many = binary.LittleEndian.AppendUint64(many, i*0x0123_4567_89AB_CDEF)
		many = append(many, byte(i))
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCounter(0)
		oracle := map[uint64]uint32{}
		for len(data) >= 9 {
			key := binary.LittleEndian.Uint64(data[:8])
			delta := uint32(data[8])
			data = data[9:]
			c.Inc(seq.Kmer(key), delta)
			if delta > 0 {
				oracle[key] += delta
			}
			if got, want := c.Get(seq.Kmer(key)), oracle[key]; got != want {
				t.Fatalf("Get(%#x) = %d, oracle %d", key, got, want)
			}
		}
		if c.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle %d", c.Len(), len(oracle))
		}
		kmers, counts := c.AppendSortedInto(nil, nil, new(sortScratch))
		if len(kmers) != len(oracle) {
			t.Fatalf("extracted %d entries, oracle %d", len(kmers), len(oracle))
		}
		for i, km := range kmers {
			if i > 0 && kmers[i-1] >= km {
				t.Fatalf("extraction not strictly sorted at %d", i)
			}
			if counts[i] != oracle[uint64(km)] {
				t.Fatalf("count[%#x] = %d, oracle %d", uint64(km), counts[i], oracle[uint64(km)])
			}
		}
	})
}

// FuzzTileSetRun counts arbitrary reads into a TileSet, freezes it, and
// requires Get and Run to agree with the unfrozen counts. The first three
// bytes pick k (1..16), the overlap (< k) and (Workers, Shards); every
// other byte is a base of ACGTN, and 0xFF ends a read.
func FuzzTileSetRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x00\x02ACGTACGTTTGACCA\xffGGATCCANNACGTAC"))
	f.Add([]byte("\x0b\x05\x01" + "ACGGTCATTGACCATGGATCCAGTTACAGGTACAGT\xff" + "CCATGGATCCAGTTACAGGTACAGTTTTGACCATGA"))
	f.Add([]byte("\x0f\x00\x03" + "TTGACCATGGATCCAGTTACAGGTACAGTACGGTCA"))
	options := []BuildOptions{{Workers: 1}, {Workers: 2, Shards: 4}, {Workers: 4, Shards: 1024}, {Workers: 3, Shards: 7}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k := 1 + int(data[0])%16
		overlap, opts := int(data[1])%k, options[int(data[2])%len(options)]
		reads := fuzzReads(data[3:])
		ts, err := CountTiles(reads, k, overlap, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		before, absent := unfrozenCounts(ts, 50, rand.New(rand.NewSource(int64(len(data)))))
		ts.Freeze()
		frozenAgrees(t, ts, before, absent, fmt.Sprintf("k=%d l=%d %+v", k, overlap, opts))
	})
}

// fuzzReads turns fuzz bytes into reads: 0xFF ends a read, any other byte b
// is base "ACGTN"[b%5] with quality b/6.
func fuzzReads(data []byte) []seq.Read {
	var reads []seq.Read
	var r seq.Read
	for _, b := range data {
		if b == 0xFF {
			reads = append(reads, r)
			r = seq.Read{}
			continue
		}
		r.Seq = append(r.Seq, "ACGTN"[b%5])
		r.Qual = append(r.Qual, b/6)
	}
	return append(reads, r)
}

// FuzzTileSetReuse counts two read sets one after the other through one
// worker, the second in the table the first released: each must count what a
// fresh unpooled set counts, frozen Get and Run included. 0xFE splits the
// input into the two sets (see fuzzReads for the rest).
func FuzzTileSetReuse(f *testing.F) {
	f.Add([]byte("\x05\x01ACGTACGTTTGACCA\xffGGATCCANNACGTAC\xfeCCATGGATCCAGTTACAGG"))
	f.Add([]byte("\x0b\x05" + "ACGGTCATTGACCATGGATCCAGTTACAGGTACAGT\xff" + "CCATGGATCCAGTTACAGGTACAGTTTTGACCATGA\xfe" + "TTGA"))
	f.Add([]byte("\x03\x00TTGACC\xfeTTGACCATGGATCCAGTTACAGGTACAGTACGGTCA\xffACGGTCATTGACCATGGATCCAG"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%16
		overlap := int(data[1]) % k
		first, second, _ := bytes.Cut(data[2:], []byte{0xFE})
		for i, part := range [][]byte{first, second} {
			reads := fuzzReads(part)
			fresh, err := CountTiles(reads, k, overlap, 20, BuildOptions{Workers: 2, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			before, absent := unfrozenCounts(fresh, 50, rand.New(rand.NewSource(int64(len(data)))))
			ts, err := CountTiles(reads, k, overlap, 20, BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ts.Size() != len(before) {
				t.Fatalf("set %d, k=%d l=%d: %d tiles through a released table, %d fresh", i, k, overlap, ts.Size(), len(before))
			}
			ts.Freeze()
			frozenAgrees(t, ts, before, absent, fmt.Sprintf("set %d, k=%d l=%d", i, k, overlap))
			ts.Release()
		}
	})
}
