package kspectrum

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
		pairs := c.sortedPairs(new(sortScratch))
		if len(pairs) != len(oracle) {
			t.Fatalf("extracted %d entries, oracle %d", len(pairs), len(oracle))
		}
		for i, p := range pairs {
			if i > 0 && pairs[i-1].km >= p.km {
				t.Fatalf("extraction not strictly sorted at %d", i)
			}
			if p.c != oracle[uint64(p.km)] {
				t.Fatalf("count[%#x] = %d, oracle %d", uint64(p.km), p.c, oracle[uint64(p.km)])
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

// FuzzReadManifest resumes a checkpoint whose manifest carries a fuzzed JSON
// payload, framed with a valid magic, version, length and CRC so that inputs
// reach the payload checks and adoptManifest rather than the checksum. It is
// seeded from a real two-run checkpoint, whose run files every input finds
// both in the checkpoint directory and beside it. Refusing a manifest is
// always allowed; an accepted one must adopt each run once and only from
// inside the directory, and the resumed build, spilling new runs beside the
// adopted ones, must succeed.
func FuzzReadManifest(f *testing.F) {
	reads := randomReads(f, 600)
	seed := filepath.Join(f.TempDir(), "ckpt")
	st, err := NewStreamBuilder(13, true, StreamOptions{Build: BuildOptions{Workers: 2, Shards: 2}, CheckpointDir: seed})
	if err != nil {
		f.Fatal(err)
	}
	st.Add(reads[:300])
	if err := st.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	st.Close()
	m, err := readManifestFile(seed)
	if err != nil || m == nil || len(m.Runs) != 2 {
		f.Fatalf("seed checkpoint: %+v, %v", m, err)
	}
	runs := map[string][]byte{}
	for _, r := range m.Runs {
		if runs[r.File], err = os.ReadFile(filepath.Join(seed, r.File)); err != nil {
			f.Fatal(err)
		}
	}
	// The real manifest, then one adopting a run from outside the directory,
	// one whose next spill writes over a listed run, one listing a run twice.
	outside, below, twice := *m, *m, *m
	outside.Runs = slices.Clone(m.Runs)
	outside.Runs[0].File = "../" + m.Runs[0].File
	below.NextRun = 1
	twice.Runs = append(slices.Clone(m.Runs), m.Runs[0])
	for _, seed := range []*manifest{m, &outside, &below, &twice} {
		payload, _ := json.Marshal(seed) // plain fields: it cannot fail
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "ckpt")
		framed := binary.LittleEndian.AppendUint32(manifestMagic[:], manifestVersion) // len == cap: a copy
		framed = binary.LittleEndian.AppendUint64(framed, uint64(len(payload)))
		framed = append(framed, payload...)
		framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(framed, crcTable))
		err := errors.Join(os.Mkdir(dir, 0o755), os.WriteFile(filepath.Join(dir, ManifestName), framed, 0o644))
		for name, b := range runs {
			err = errors.Join(err, os.WriteFile(filepath.Join(dir, name), b, 0o644), os.WriteFile(filepath.Join(root, name), b, 0o644))
		}
		if err != nil {
			t.Fatal(err)
		}

		st, err := NewStreamBuilder(13, true, StreamOptions{Build: BuildOptions{Workers: 2}, CheckpointDir: dir, Resume: true})
		if err != nil {
			return
		}
		defer st.Close()
		adopted := map[string]bool{}
		for _, shard := range st.runs {
			for _, ri := range shard {
				if filepath.Dir(ri.path) != dir || adopted[ri.path] {
					t.Fatalf("adopted %s twice or from outside %s", ri.path, dir)
				}
				adopted[ri.path] = true
			}
		}
		st.Add(reads)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Build(); err != nil {
			t.Fatalf("a build resumed from an accepted manifest failed: %v", err)
		}
	})
}

// FuzzOpenRun writes a run, damages the file and drains it through openRun,
// the one reader of the run format: a run the damage changed must fail with
// ErrCheckpoint, one it left intact must give back exactly the records
// written. pairs is read as 8-byte (kmer gap, count) records, so the kmers
// written are sorted and unique; the byte at offset flip is inverted, then
// cut bytes are dropped from the end.
func FuzzOpenRun(f *testing.F) {
	f.Add([]byte{}, uint32(1<<20), uint32(0))
	f.Add([]byte("\x00\x00\x00\x00\x05\x00\x00\x00\x07\x00\x00\x00\x01\x00\x00\x00"), uint32(40), uint32(0))
	f.Add([]byte("\x03\x00\x00\x00\x05\x00\x00\x00"), uint32(1<<20), uint32(2))
	// One record past a block, so the damage can land behind a full block.
	f.Add(bytes.Repeat([]byte("\x00\x00\x00\x00\x01\x00\x00\x00"), runBlockBytes/runEntryBytes+1), uint32(runBlockBytes+100), uint32(0))
	f.Fuzz(func(t *testing.T, pairs []byte, flip, cut uint32) {
		var want []kmerCount
		var km uint64
		for ; len(pairs) >= 8; pairs = pairs[8:] {
			km += 1 + uint64(binary.LittleEndian.Uint32(pairs))
			want = append(want, kmerCount{seq.Kmer(km), binary.LittleEndian.Uint32(pairs[4:])})
		}
		path := filepath.Join(t.TempDir(), runFileName(1))
		h := runHeader{k: 13, bothStrands: true, shard: 1, count: int64(len(want))}
		sum, err := writeRun(path, h, want, false)
		if err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damaged := slices.Clone(written)
		if int(flip) < len(damaged) {
			damaged[flip] ^= 0xFF
		}
		damaged = damaged[:len(damaged)-min(len(damaged), int(cut))]
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := drainRun(runInfo{path: path, shard: 1, entries: h.count, crc: sum}, 13, true)
		if bytes.Equal(damaged, written) {
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("intact run of %d records: read back %d, %v", len(want), len(got), err)
			}
		} else if !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("run of %d bytes, byte %d flipped, %d cut: %v, want ErrCheckpoint", len(written), flip, cut, err)
		}
	})
}

// drainRun reads every record of a run through openRun.
func drainRun(ri runInfo, k int, bothStrands bool) ([]kmerCount, error) {
	rs, err := openRun(ri, k, bothStrands)
	if err != nil {
		return nil, err
	}
	defer rs.close()
	var got []kmerCount
	for {
		p, ok, err := rs.next()
		if err != nil || !ok {
			return got, err
		}
		got = append(got, p)
	}
}

// FuzzBuildBothStrands builds the spectrum of arbitrary reads in memory and
// out of core, counting both strands and one, and requires both to equal the
// map reference, which counts every window's reverse complement itself. The
// first byte picks k (1..32), the second (Workers, Shards) and whether the
// out-of-core build has no budget or the floor (a run per 96 entries); every
// other byte is a base of ACGTN, and 0xFF ends a read (see fuzzReads).
func FuzzBuildBothStrands(f *testing.F) {
	// seed is the input for k, option byte opt and reads given as letters.
	seed := func(k, opt byte, reads ...string) []byte {
		data := []byte{k - 1, opt}
		for i, r := range reads {
			if i > 0 {
				data = append(data, 0xFF)
			}
			for _, c := range []byte(r) {
				data = append(data, byte(strings.IndexByte("ACGTN", c)))
			}
		}
		return data
	}
	periodic := "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"
	rng := rand.New(rand.NewSource(5))
	random := make([]byte, 800)
	for i := range random {
		random[i] = "ACGT"[rng.Intn(4)]
	}
	f.Add([]byte{})
	f.Add(seed(2, 1, "ACGTTGCANNAC", "TTTT"))
	f.Add(seed(12, 3, periodic, periodic[1:30], "ACGGTCATTGACCATGGATCCAGTTACAGGTACAGT"))
	f.Add(seed(13, 2, "CCATGGATCCAGTTACAGGTACAGTTTTGACCATGA", "TTGACCATGGATCCAGTTACAGGTACAGTACGGTCA"))
	f.Add(seed(32, 0, periodic))
	// Even k at the budget floor over enough distinct kmers to spill runs
	// that hold palindromes.
	f.Add(seed(12, 0x81, periodic, periodic[1:], string(random)))
	options := []BuildOptions{{Workers: 1}, {Workers: 2, Shards: 4}, {Workers: 4, Shards: 1024}, {Workers: 3, Shards: 7}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%32
		opts := options[int(data[1])%len(options)]
		var budget int64
		if data[1]&0x80 != 0 {
			budget = 1
		}
		reads := fuzzReads(data[2:])
		for _, bothStrands := range []bool{true, false} {
			label := fmt.Sprintf("k=%d %+v budget=%d both=%v", k, opts, budget, bothStrands)
			want := mapReferenceSpectrum(reads, k, bothStrands)
			got, err := BuildParallel(reads, k, bothStrands, opts)
			if err != nil {
				t.Fatal(err)
			}
			spectraEqual(t, want, got, label+" in memory")
			got, _, err = BuildOutOfCore(reads, k, bothStrands, StreamOptions{Build: opts, MemoryBudget: budget, TempDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			spectraEqual(t, want, got, label+" out of core")
		}
	})
}
