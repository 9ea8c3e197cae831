package kspectrum

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/seq"
)

// The persistent spectrum store: a versioned binary on-disk format for a
// built Spectrum, so the expensive Phase-1 counting runs once and its
// product is reused across processes (the -save-spectrum/-load-spectrum
// CLI flags and the repro serve daemon registry).
//
// Layout, all little-endian, fixed width (DESIGN.md §6):
//
//	offset  size       field
//	0       4          magic "KSPC"
//	4       4          format version (currently 1)
//	8       4          k (kmer length, 1..32)
//	12      4          flags (bit 0: built from both strands)
//	16      8          count (number of distinct kmers)
//	24      8*count    Kmers column, sorted strictly ascending
//	…       4*count    Counts column, parallel to Kmers
//	…       4          CRC-32C (Castagnoli) of every preceding byte
//
// Both directions stream in fixed slabs, so encoding and decoding use O(1)
// memory beyond the spectrum itself, and a truncated, bit-flipped,
// wrong-version or out-of-order file is rejected with a clean error —
// never a panic, never a silently wrong spectrum.

// storeMagic identifies a spectrum store file.
var storeMagic = [4]byte{'K', 'S', 'P', 'C'}

// StoreVersion is the current on-disk format version.
const StoreVersion = 1

// storeFlagBothStrands marks a spectrum whose build counted reverse
// complements (Spectrum.BothStrands).
const storeFlagBothStrands = 1 << 0

// storeHeaderLen is the fixed byte length of the header (through count).
const storeHeaderLen = 24

// ErrSpectrumStore is wrapped by every structural decode failure —
// truncation, corruption, bad magic, unsupported version, out-of-order
// kmers — so callers can distinguish "this is not a valid spectrum file"
// from I/O errors with errors.Is.
var ErrSpectrumStore = errors.New("kspectrum: invalid spectrum file")

func storeErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpectrumStore, fmt.Sprintf(format, args...))
}

// storeSlabEntries is the streaming granularity of both directions: 64Ki
// entries, a 512 KiB kmer slab — large enough to amortize syscalls, small
// enough that decode memory stays flat while a truncated count field
// cannot trigger a giant up-front allocation.
const storeSlabEntries = 64 << 10

// crcTable is the Castagnoli polynomial table shared by both directions.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteSpectrum encodes s to w in the versioned store format. It streams:
// beyond a fixed slab buffer it allocates nothing, regardless of spectrum
// size. The writer is buffered internally; callers pass a raw os.File or
// network stream.
func WriteSpectrum(w io.Writer, s *Spectrum) error {
	if s.K < 1 || s.K > seq.MaxK {
		return errInvalidK(s.K)
	}
	if len(s.Kmers) != len(s.Counts) {
		return fmt.Errorf("kspectrum: spectrum has %d kmers but %d counts", len(s.Kmers), len(s.Counts))
	}
	// Re-encoding is a full scan: a memory-mapped source must pass the
	// deferred whole-file check first, or corrupt bytes would be laundered
	// into a fresh file with a valid checksum. Built/copied spectra (and
	// a closed one, which errors here) resolve this without any scan.
	if err := s.Verify(); err != nil {
		return err
	}
	crc := crc32.New(crcTable)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var hdr [storeHeaderLen]byte
	copy(hdr[0:4], storeMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], StoreVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(s.K))
	var flags uint32
	if s.BothStrands {
		flags |= storeFlagBothStrands
	}
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(s.Kmers)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("kspectrum: write spectrum: %w", err)
	}

	var rec [8]byte
	for _, km := range s.Kmers {
		binary.LittleEndian.PutUint64(rec[:], uint64(km))
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("kspectrum: write spectrum: %w", err)
		}
	}
	for _, c := range s.Counts {
		binary.LittleEndian.PutUint32(rec[:4], c)
		if _, err := bw.Write(rec[:4]); err != nil {
			return fmt.Errorf("kspectrum: write spectrum: %w", err)
		}
	}
	// The trailer covers everything before it, so it must leave the
	// buffered/CRC path: flush first, then append the sum to w directly.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kspectrum: write spectrum: %w", err)
	}
	binary.LittleEndian.PutUint32(rec[:4], crc.Sum32())
	// This write bypasses bufio (which maps short writes itself), so the
	// io.Writer contract violation a fake or broken sink can commit —
	// n < len with a nil error — must be caught here or the trailer is
	// silently truncated.
	if n, err := w.Write(rec[:4]); err != nil {
		return fmt.Errorf("kspectrum: write spectrum: %w", err)
	} else if n != 4 {
		return fmt.Errorf("kspectrum: write spectrum: %w", io.ErrShortWrite)
	}
	return nil
}

// ReadSpectrum decodes a spectrum from r, verifying magic, version,
// geometry, strict kmer ordering and the trailing checksum, and freezes
// the O(1) query index before returning — the result is query-ready,
// indistinguishable from a fresh Build. Structural failures wrap
// ErrSpectrumStore. The stream must end at the trailer; trailing garbage
// is rejected.
func ReadSpectrum(r io.Reader) (*Spectrum, error) {
	return readSpectrum(r, storeSlabEntries)
}

// readSpectrum is ReadSpectrum with the columns' up-front capacity bounded
// by maxEntries, the most the caller knows the source can hold.
func readSpectrum(r io.Reader, maxEntries int) (*Spectrum, error) {
	crc := crc32.New(crcTable)
	br := &crcReader{r: bufio.NewReaderSize(r, 1<<16), crc: crc}

	var hdr [storeHeaderLen]byte
	if err := br.readFull(hdr[:], "header"); err != nil {
		return nil, err
	}
	if [4]byte(hdr[0:4]) != storeMagic {
		return nil, storeErr("bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != StoreVersion {
		return nil, storeErr("unsupported version %d (want %d)", v, StoreVersion)
	}
	k := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if k < 1 || k > seq.MaxK {
		return nil, storeErr("invalid k=%d", k)
	}
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	if flags&^storeFlagBothStrands != 0 {
		return nil, storeErr("unknown flags %#x", flags)
	}
	count64 := binary.LittleEndian.Uint64(hdr[16:24])
	if k < seq.MaxK && count64 > 1<<(2*uint(k)) {
		return nil, storeErr("count %d exceeds 4^%d distinct kmers", count64, k)
	}
	if count64 > (1<<31)-1 {
		// The frozen index addresses entries with int32 offsets.
		return nil, storeErr("count %d exceeds the index limit", count64)
	}
	count := int(count64)

	// Capacity never comes from the untrusted count alone: it is capped by
	// what the source is known to hold — one slab for a stream, growing by
	// append with the bytes actually read; the file's size for a file — so
	// a forged header cannot trigger a giant up-front allocation; it hits
	// "truncated kmer column" instead.
	s := &Spectrum{
		K:           k,
		BothStrands: flags&storeFlagBothStrands != 0,
		Kmers:       make([]seq.Kmer, 0, min(count, maxEntries)),
		Counts:      make([]uint32, 0, min(count, maxEntries)),
	}
	kmax := ^uint64(0) >> (64 - 2*uint(k)) // largest kmer representable in 2k bits
	slab := make([]byte, storeSlabEntries*8)
	var prev uint64
	for done := 0; done < count; {
		n := min(storeSlabEntries, count-done)
		buf := slab[:n*8]
		if err := br.readFull(buf, "kmer column"); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			km := binary.LittleEndian.Uint64(buf[i*8:])
			if km > kmax {
				return nil, storeErr("kmer %#x out of range for k=%d", km, k)
			}
			if done+i > 0 && km <= prev {
				return nil, storeErr("kmers not strictly ascending at entry %d", done+i)
			}
			prev = km
			s.Kmers = append(s.Kmers, seq.Kmer(km))
		}
		done += n
	}
	for done := 0; done < count; {
		n := min(storeSlabEntries, count-done)
		buf := slab[:n*4]
		if err := br.readFull(buf, "count column"); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			s.Counts = append(s.Counts, binary.LittleEndian.Uint32(buf[i*4:]))
		}
		done += n
	}

	// The trailer is read outside the CRC accumulation.
	want := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br.r, tail[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, storeErr("truncated checksum")
		}
		return nil, fmt.Errorf("kspectrum: read spectrum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, storeErr("checksum mismatch (file %#x, computed %#x)", got, want)
	}
	if _, err := br.r.ReadByte(); err != io.EOF {
		return nil, storeErr("trailing data after checksum")
	}
	s.freezeIndex()
	return s, nil
}

// crcReader feeds every consumed byte through the running checksum.
type crcReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

// readFull fills buf, mapping any premature end of stream to a clean
// truncation error naming the section.
func (cr *crcReader) readFull(buf []byte, section string) error {
	if _, err := io.ReadFull(cr.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return storeErr("truncated %s", section)
		}
		return fmt.Errorf("kspectrum: read spectrum: %w", err)
	}
	cr.crc.Write(buf)
	return nil
}

// WriteSpectrumFile writes s to path atomically: the bytes land in a
// temporary sibling first and rename into place only after a successful
// synced close, so readers never observe a half-written store. Every
// failure path closes and removes the temporary file and wraps the
// destination path, so a daemon log names the offending store. All I/O
// runs behind the "kspc" fault-injection site.
func WriteSpectrumFile(path string, s *Spectrum) error {
	wrap := func(err error) error {
		return fmt.Errorf("kspectrum: write spectrum %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".kspc-*")
	if err != nil {
		return wrap(err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := WriteSpectrum(faultinject.Writer(faultinject.SiteKSPC, tmp), s); err != nil {
		tmp.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	// CreateTemp's private 0600 would survive the rename; widen to the
	// conventional output mode so other users (a daemon running under a
	// service account) can read the store.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return wrap(err)
	}
	// Flush to stable storage before the rename: without it a crash
	// after rename but before writeback replaces a previously good store
	// with a zero-length or partial file — the CRC would catch it on
	// load, but the good data would already be gone.
	if err := faultinject.Check(faultinject.SiteKSPC, faultinject.OpSync); err != nil {
		tmp.Close()
		return wrap(err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return wrap(err)
	}
	if err := tmp.Close(); err != nil {
		return wrap(err)
	}
	if err := faultinject.Rename(faultinject.SiteKSPC, tmp.Name(), path); err != nil {
		return wrap(err)
	}
	// The rename itself is a directory mutation: fsync the parent so a
	// crash immediately after this return cannot roll the directory back
	// to an entry-less (or old-entry) state while the caller already
	// reported success.
	if err := syncDir(faultinject.SiteKSPCDir, filepath.Dir(path)); err != nil {
		return wrap(err)
	}
	return nil
}

// ReadSpectrumFile loads the spectrum stored at path. The file's size bounds
// what it can hold, so the columns are allocated once at their final size.
func ReadSpectrumFile(path string) (*Spectrum, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s, err := readSpectrum(f, int(max(info.Size()-storeHeaderLen-4, 0)/(8+4)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
