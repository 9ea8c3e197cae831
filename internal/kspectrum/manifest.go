package kspectrum

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/faultinject"
)

// Crash-safe checkpointing for the out-of-core builder (DESIGN.md §10):
// when StreamOptions.CheckpointDir is set, every spilled run file carries
// a versioned header and a CRC-32C trailer, and the builder periodically
// writes a manifest — atomically, via temp+rename+dir-fsync — recording
// the read cursor and the exact run files that cover it. A build killed
// at any point (SIGKILL, power cut) resumes from the newest manifest:
// surviving runs are revalidated (header + full CRC), runs the manifest
// does not list are deleted (they count reads past the cursor and would
// double-count on resume), and counting restarts at the cursor. The
// merged spectrum is byte-identical to an uninterrupted run because
// merge sums are order-independent and the manifest's runs plus the
// re-counted tail partition the input exactly.

// ManifestName is the checkpoint manifest's file name inside a
// checkpoint directory.
const ManifestName = "MANIFEST.kman"

// manifestMagic identifies a checkpoint manifest file.
var manifestMagic = [4]byte{'K', 'M', 'A', 'N'}

// manifestVersion is the current manifest format version.
const manifestVersion = 1

// manifest is the JSON payload of a checkpoint: the builder geometry
// (which must match on resume), the read cursor the listed runs cover,
// and each run's identity and checksum.
type manifest struct {
	K           int           `json:"k"`
	BothStrands bool          `json:"both_strands"`
	Shards      int           `json:"shards"`
	Reads       int64         `json:"reads"`
	NextRun     int64         `json:"next_run"`
	Runs        []manifestRun `json:"runs"`
}

// manifestRun records one durable run file. File is the base name (the
// directory may move); CRC covers the whole file except its own trailer.
type manifestRun struct {
	File    string `json:"file"`
	Shard   int    `json:"shard"`
	Entries int64  `json:"entries"`
	Bytes   int64  `json:"bytes"`
	CRC     uint32 `json:"crc"`
}

// ErrCheckpoint wraps every structural failure of a checkpoint directory
// — a corrupt manifest, a run failing its CRC, mismatched geometry — so
// callers can distinguish "this checkpoint is unusable, delete it and
// rebuild" from I/O errors.
var ErrCheckpoint = errors.New("kspectrum: invalid checkpoint")

func checkpointErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCheckpoint, fmt.Sprintf(format, args...))
}

// writeManifestFile atomically publishes m as dir's manifest:
// temp+rename in the same directory, fsync of file and directory, so
// after a crash either the previous manifest or this one is intact —
// never a torn mixture.
func writeManifestFile(dir string, m *manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("kspectrum: checkpoint manifest: %w", err)
	}
	buf := make([]byte, 16, 16+len(payload)+4)
	copy(buf[0:4], manifestMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], manifestVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(payload)))
	buf = append(buf, payload...)
	sum := crc32.Checksum(buf, crcTable)
	buf = binary.LittleEndian.AppendUint32(buf, sum)

	tmpPath := filepath.Join(dir, "."+ManifestName+".tmp")
	wrap := func(err error) error {
		os.Remove(tmpPath)
		return fmt.Errorf("kspectrum: checkpoint manifest: %w", err)
	}
	f, err := faultinject.Create(faultinject.SiteManifest, tmpPath)
	if err != nil {
		return fmt.Errorf("kspectrum: checkpoint manifest: %w", err)
	}
	if n, err := f.Write(buf); err != nil {
		f.Close()
		return wrap(err)
	} else if n != len(buf) {
		f.Close()
		return wrap(io.ErrShortWrite)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return wrap(err)
	}
	if err := f.Close(); err != nil {
		return wrap(err)
	}
	if err := faultinject.Rename(faultinject.SiteManifest, tmpPath, filepath.Join(dir, ManifestName)); err != nil {
		return wrap(err)
	}
	if err := syncDir(faultinject.SiteManifestDir, dir); err != nil {
		return fmt.Errorf("kspectrum: checkpoint manifest: %w", err)
	}
	return nil
}

// readManifestFile loads and validates dir's manifest. A missing file
// returns (nil, nil): the build crashed before its first checkpoint and
// resume degenerates to a fresh build.
func readManifestFile(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	if len(data) < 20 {
		return nil, checkpointErr("manifest truncated (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != manifestMagic {
		return nil, checkpointErr("manifest bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != manifestVersion {
		return nil, checkpointErr("manifest unsupported version %d (want %d)", v, manifestVersion)
	}
	plen := binary.LittleEndian.Uint64(data[8:16])
	if plen != uint64(len(data)-20) {
		return nil, checkpointErr("manifest payload length %d does not match file size", plen)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, crcTable); got != want {
		return nil, checkpointErr("manifest checksum mismatch (file %#x, computed %#x)", got, want)
	}
	var m manifest
	if err := json.Unmarshal(body[16:], &m); err != nil {
		return nil, checkpointErr("manifest payload: %v", err)
	}
	if m.Shards < 1 || m.Reads < 0 || m.NextRun < 0 {
		return nil, checkpointErr("manifest geometry: shards=%d reads=%d next_run=%d", m.Shards, m.Reads, m.NextRun)
	}
	return &m, nil
}

// The run-file format shared by plain spills and durable checkpoints:
//
//	offset  size  field
//	0       4     magic "KRUN"
//	4       4     version (2: entries are canonical kmers when flags has
//	              both strands; version 1 runs held both strands' kmers)
//	8       4     k
//	12      4     flags (bit 0: both strands)
//	16      4     shard index
//	20      4     reserved (0)
//	24      8     entry count
//	32      12*n  (kmer uint64, count uint32) records, little-endian,
//	              sorted strictly ascending within the run
//	…       4     CRC-32C of every preceding byte

var runMagic = [4]byte{'K', 'R', 'U', 'N'}

const (
	runVersion   = 2
	runHeaderLen = 32
)

// runHeader is the decoded fixed header of a run file.
type runHeader struct {
	k           int
	bothStrands bool
	shard       int
	count       int64
}

func (h runHeader) encode() [runHeaderLen]byte {
	var hdr [runHeaderLen]byte
	copy(hdr[0:4], runMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], runVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(h.k))
	var flags uint32
	if h.bothStrands {
		flags |= storeFlagBothStrands
	}
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(h.shard))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(h.count))
	return hdr
}

// runHeaderFields are the header's fields after the magic, for mismatch
// messages: name, offset, width.
var runHeaderFields = [...]struct {
	name      string
	off, size int
}{{"version", 4, 4}, {"k", 8, 4}, {"flags", 12, 4}, {"shard", 16, 4}, {"reserved", 20, 4}, {"count", 24, 8}}

// mismatch names the first field in which got, a run's header, differs
// from want, the header expected of it; "" if none does.
func (want runHeader) mismatch(got []byte) string {
	w := want.encode()
	if !bytes.Equal(got[:4], w[:4]) {
		return fmt.Sprintf("magic %q, want %q", got[:4], w[:4])
	}
	le := func(b []byte) uint64 {
		var x [8]byte
		copy(x[:], b)
		return binary.LittleEndian.Uint64(x[:])
	}
	for _, f := range runHeaderFields {
		if g, x := le(got[f.off:f.off+f.size]), le(w[f.off:f.off+f.size]); g != x {
			return fmt.Sprintf("%s %d, want %d", f.name, g, x)
		}
	}
	return ""
}

// runSize is the exact on-disk size of a run holding entries records.
func runSize(entries int64) int64 {
	return runHeaderLen + entries*runEntryBytes + 4
}

// runFileName names the n-th run file a builder spills.
func runFileName(n int64) string { return fmt.Sprintf("run%06d.bin", n) }

// validateRun re-reads a surviving run end to end, exactly as the merge
// will: the header against the manifest's record and the builder geometry,
// the full CRC against both the trailer and the manifest, and the exact file
// length. A run that fails is grounds to refuse the whole checkpoint before
// any read is counted.
func validateRun(ri runInfo, k int, bothStrands bool) error {
	rs, err := openRun(ri, k, bothStrands)
	if err != nil {
		return err
	}
	defer rs.close()
	for err == nil && rs.left > 0 {
		err = rs.fill()
	}
	return err
}

// syncDir fsyncs a directory so a preceding rename (or create) in it is
// durable: on ext4-ordered mounts the rename itself can otherwise be
// lost by a crash even though the file's bytes survived. Filesystems
// that reject directory fsync (EINVAL) are treated as success — there
// is nothing more this process can do.
func syncDir(site faultinject.Site, dir string) error {
	if err := faultinject.Check(site, faultinject.OpSync); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}
