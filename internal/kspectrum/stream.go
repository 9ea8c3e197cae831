package kspectrum

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/seq"
)

// StreamOptions tunes the out-of-core spectrum engine. The zero value never
// spills and is equivalent to the in-memory SpectrumBuilder.
type StreamOptions struct {
	// Build configures the underlying sharded parallel engine.
	Build BuildOptions
	// MemoryBudget caps the resident bytes of the counting accumulators
	// across all shards; <= 0 means unlimited — nothing is ever spilled.
	// Each shard gets an equal slice of the budget, and its Counter's
	// actual table footprint (Counter.ResidentBytes) never exceeds it: a
	// full table doubles only while the doubled table still fits the
	// slice, and is otherwise spilled and refilled in place.
	MemoryBudget int64
	// TempDir is where spilled run files live; "" uses os.TempDir(). A
	// fresh subdirectory is created per builder and removed by Build/Close.
	// Ignored when CheckpointDir is set: durable runs live there instead.
	TempDir string
	// CheckpointDir, when non-empty, makes the build crash-safe: run files
	// carry headers and CRC-32C trailers, are fsynced, and live in this
	// directory alongside a periodically rewritten manifest recording the
	// read cursor they cover. The directory survives failures and
	// cancellation (that is its purpose) and is removed only by a
	// successful Build. Checkpointed Adds are serialized internally, and
	// resume is only correct when the caller streams the same reads in
	// the same order as the interrupted build.
	CheckpointDir string
	// Resume adopts the manifest already in CheckpointDir: surviving runs
	// are revalidated (header + full CRC), unlisted runs are deleted, and
	// Add skips the leading reads the manifest covers. Without a manifest
	// (a build killed before its first checkpoint) resume degenerates to
	// a fresh build. A corrupt manifest or run is a hard ErrCheckpoint —
	// delete the directory to rebuild from scratch.
	Resume bool
	// CheckpointEvery is the number of reads between automatic
	// checkpoints in durable mode; <= 0 means the default (262144).
	CheckpointEvery int64
	// Context, when non-nil, cancels the out-of-core machinery: once it
	// is done, spills stop writing and Build aborts its merge loops at
	// the next batch boundary, returning ctx.Err(). nil is never
	// cancelled (context.Background()).
	Context context.Context
}

// minSpillEntries floors the per-shard spill threshold so pathological
// budgets degrade into many small runs rather than a run per flush.
const minSpillEntries = 64

// defaultCheckpointEvery is the read interval between automatic durable
// checkpoints when StreamOptions.CheckpointEvery is unset.
const defaultCheckpointEvery = 1 << 18

// StreamStats describes a builder's spill activity.
type StreamStats struct {
	// SpilledRuns is the number of sorted run files written.
	SpilledRuns int64
	// SpilledEntries is the total entries across all runs: distinct within
	// a run, though the same kmer may recur in later runs of the same
	// shard. A both-strands build spills canonical kmers only, so an entry
	// stands for a kmer and its reverse complement.
	SpilledEntries int64
	// SpilledBytes is the total on-disk size of all runs.
	SpilledBytes int64
}

// runInfo identifies one written run file and its integrity metadata —
// what the manifest records and resume revalidates.
type runInfo struct {
	path    string
	shard   int
	entries int64
	bytes   int64
	crc     uint32
}

// StreamBuilder is the out-of-core variant of SpectrumBuilder (§2.3's
// divide-and-merge taken past memory): counting workers scatter kmers into
// high-bit prefix shards exactly as the in-memory engine does, but a shard
// whose table is full and cannot double within its slice of the MemoryBudget
// is spilled to a sorted run file in a temp directory and emptied. Build merges each
// shard's runs with its in-memory residue and hands the merged shards to the
// in-memory engine's tail, so the Spectrum is byte-identical to the
// in-memory path. Unlike SpectrumBuilder, Build is one-shot: it consumes the
// spilled runs and closes the builder.
//
// With StreamOptions.CheckpointDir set the builder is additionally
// crash-safe; see the manifest machinery in manifest.go.
type StreamBuilder struct {
	sb *SpectrumBuilder
	// ctx cancels spill and merge work; never nil.
	ctx context.Context
	// spillBytes is the per-shard bound on Counter.ResidentBytes (0 = none):
	// a table that is full and cannot double within it spills.
	spillBytes int64
	dir        string
	// durable marks a checkpointing builder: runs are fsynced, dir is the
	// caller's CheckpointDir and survives everything but a successful
	// Build.
	durable   bool
	ckptEvery int64
	// runs[s] lists shard s's spilled run files, in spill order; guarded
	// by shard s's stripe lock (only flushers of s append).
	runs [][]runInfo
	// runSeq names run files uniquely across shards.
	runSeq atomic.Int64

	// addMu serializes Add/Checkpoint in durable mode, making the read
	// cursor well-defined.
	addMu sync.Mutex
	// seen counts reads streamed through Add (including skipped ones);
	// cursor is the resume skip threshold; lastCkpt the cursor at the
	// newest manifest. All guarded by addMu.
	seen, cursor, lastCkpt int64
	resumedFrom            int64

	stats struct {
		runs, entries, bytes atomic.Int64
	}

	// errMu guards err, the first spill/checkpoint failure; surfaced by
	// Build.
	errMu  sync.Mutex
	err    error
	closed bool
}

// NewStreamBuilder validates k and prepares an out-of-core accumulator.
func NewStreamBuilder(k int, bothStrands bool, opts StreamOptions) (*StreamBuilder, error) {
	var m *manifest
	if opts.CheckpointDir != "" {
		if opts.Resume {
			var err error
			if m, err = readManifestFile(opts.CheckpointDir); err != nil {
				return nil, err
			}
			if m != nil {
				if m.K != k || m.BothStrands != bothStrands {
					return nil, checkpointErr("manifest built with k=%d bothStrands=%v, resuming with k=%d bothStrands=%v",
						m.K, m.BothStrands, k, bothStrands)
				}
				// The run partition is only valid under the manifest's
				// shard geometry; adopt it over the caller's.
				opts.Build.Shards = m.Shards
			}
		} else if _, err := os.Stat(filepath.Join(opts.CheckpointDir, ManifestName)); err == nil {
			return nil, checkpointErr("directory %s already holds a manifest; resume it or delete the directory",
				opts.CheckpointDir)
		}
	}
	sb, err := NewSpectrumBuilder(k, bothStrands, opts.Build)
	if err != nil {
		return nil, err
	}
	st := &StreamBuilder{sb: sb, ctx: opts.Context, durable: opts.CheckpointDir != ""}
	if st.ctx == nil {
		st.ctx = context.Background()
	}
	if opts.MemoryBudget > 0 {
		// Floor each shard's slice at the footprint of a table holding
		// minSpillEntries, so pathological budgets degrade into many small
		// runs rather than a run per flush.
		st.spillBytes = max(opts.MemoryBudget/int64(len(sb.shards)),
			ApproxAccumulatorBytes(minSpillEntries))
	}
	switch {
	case st.durable:
		st.dir = opts.CheckpointDir
		if err := os.MkdirAll(st.dir, 0o755); err != nil {
			return nil, fmt.Errorf("kspectrum: checkpoint dir: %w", err)
		}
		st.ckptEvery = opts.CheckpointEvery
		if st.ckptEvery <= 0 {
			st.ckptEvery = defaultCheckpointEvery
		}
	case st.spillBytes > 0:
		st.dir, err = os.MkdirTemp(opts.TempDir, "kspectrum-spill-*")
		if err != nil {
			return nil, fmt.Errorf("kspectrum: spill dir: %w", err)
		}
	}
	st.runs = make([][]runInfo, len(sb.shards))
	if st.spillBytes > 0 {
		sb.full = st.makeRoom
	}
	if st.durable {
		if m != nil {
			if len(sb.shards) != m.Shards {
				return nil, checkpointErr("manifest shards=%d resolved to %d; geometry caps changed", m.Shards, len(sb.shards))
			}
			if err := st.adoptManifest(m); err != nil {
				return nil, err
			}
		} else if err := st.removeStrayRuns(nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// adoptManifest loads a validated manifest's state into the builder:
// every listed run is revalidated end to end, unlisted run files are
// deleted (they cover reads past the cursor, which will be counted
// again), and the read cursor arms Add's skip logic.
func (st *StreamBuilder) adoptManifest(m *manifest) error {
	keep := make(map[string]bool, len(m.Runs))
	for _, mr := range m.Runs {
		// Only a name this builder gives its runs: a path would be joined
		// onto the directory as it stands, and a number past NextRun is a
		// file the next spill would write over.
		var n int64
		switch _, err := fmt.Sscanf(mr.File, "run%d.bin", &n); {
		case err != nil || runFileName(n) != mr.File:
			return checkpointErr("run %q is not a run file name", mr.File)
		case n > m.NextRun:
			return checkpointErr("run %s is numbered past next_run %d", mr.File, m.NextRun)
		case keep[mr.File]:
			return checkpointErr("run %s is listed twice", mr.File)
		case mr.Shard < 0 || mr.Shard >= len(st.runs):
			return checkpointErr("run %s: shard %d out of range [0,%d)", mr.File, mr.Shard, len(st.runs))
		}
		ri := runInfo{
			path:    filepath.Join(st.dir, mr.File),
			shard:   mr.Shard,
			entries: mr.Entries,
			bytes:   mr.Bytes,
			crc:     mr.CRC,
		}
		if ri.entries < 0 || ri.bytes != runSize(ri.entries) {
			return checkpointErr("run %s: %d entries cannot occupy %d bytes", mr.File, ri.entries, ri.bytes)
		}
		if err := validateRun(ri, st.sb.k, st.sb.bothStrands); err != nil {
			return err
		}
		st.runs[mr.Shard] = append(st.runs[mr.Shard], ri)
		st.stats.runs.Add(1)
		st.stats.entries.Add(ri.entries)
		st.stats.bytes.Add(ri.bytes)
		keep[mr.File] = true
	}
	if err := st.removeStrayRuns(keep); err != nil {
		return err
	}
	st.runSeq.Store(m.NextRun)
	st.cursor = m.Reads
	st.resumedFrom = m.Reads
	st.lastCkpt = m.Reads
	return nil
}

// removeStrayRuns deletes run files the manifest does not list: they
// were spilled after the newest manifest (or belong to a build killed
// before its first checkpoint) and cover reads the resume will count
// again — merging them would double-count.
func (st *StreamBuilder) removeStrayRuns(keep map[string]bool) error {
	matches, err := filepath.Glob(filepath.Join(st.dir, "run*.bin"))
	if err != nil {
		return err
	}
	for _, p := range matches {
		if keep[filepath.Base(p)] {
			continue
		}
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("kspectrum: checkpoint: removing stray run: %w", err)
		}
	}
	return nil
}

// Add merges one chunk of reads into the accumulator; safe for concurrent
// use, exactly like SpectrumBuilder.Add. In durable mode Adds serialize
// internally, leading reads up to the resumed cursor are skipped (their
// counts already live in the adopted runs), and an automatic checkpoint
// fires every CheckpointEvery reads.
func (st *StreamBuilder) Add(reads []seq.Read) {
	if !st.durable {
		st.sb.Add(reads)
		return
	}
	st.addMu.Lock()
	defer st.addMu.Unlock()
	batch := reads
	if skip := st.cursor - st.seen; skip > 0 {
		if skip >= int64(len(reads)) {
			st.seen += int64(len(reads))
			return
		}
		batch = reads[skip:]
	}
	st.sb.Add(batch)
	st.seen += int64(len(reads))
	if st.seen-st.lastCkpt >= st.ckptEvery {
		if err := st.checkpointLocked(); err != nil {
			st.fail(err)
		}
	}
}

// Checkpoint forces a durable checkpoint covering every read Added so
// far: all accumulators flush to fsynced runs and the manifest is
// atomically rewritten. Only valid on a builder with a CheckpointDir.
func (st *StreamBuilder) Checkpoint() error {
	if !st.durable {
		return fmt.Errorf("kspectrum: Checkpoint on a builder without a CheckpointDir")
	}
	st.addMu.Lock()
	defer st.addMu.Unlock()
	if st.closed {
		return fmt.Errorf("kspectrum: StreamBuilder used after Build/Close")
	}
	return st.checkpointLocked()
}

// Resumed reports the read cursor adopted from a manifest at
// construction — the number of leading reads Add skips. Zero for a
// fresh build.
func (st *StreamBuilder) Resumed() int64 { return st.resumedFrom }

// checkpointLocked (addMu held) drains every shard's accumulator to a
// durable run, then publishes a manifest covering st.seen reads. On
// failure the manifest is not advanced: the previous checkpoint stays
// authoritative and any runs written here are strays a resume deletes.
func (st *StreamBuilder) checkpointLocked() error {
	// A failed build has emptied full tables without writing them (makeRoom):
	// st.seen covers reads whose counts are gone, so nothing is published.
	if err := st.failed(); err != nil {
		return err
	}
	ws := st.sb.takeWorkers()
	defer st.sb.releaseWorkers(ws)
	for s := range st.sb.shards {
		shard := &st.sb.shards[s]
		shard.mu.Lock()
		var err error
		if shard.counts.Len() > 0 {
			if err = st.spillShard(s, &ws[0]); err == nil {
				shard.counts.Reset()
			}
		}
		shard.mu.Unlock()
		if err != nil {
			return err
		}
	}
	m := &manifest{
		K:           st.sb.k,
		BothStrands: st.sb.bothStrands,
		Shards:      len(st.sb.shards),
		Reads:       st.seen,
		NextRun:     st.runSeq.Load(),
	}
	for s := range st.runs {
		for _, ri := range st.runs[s] {
			m.Runs = append(m.Runs, manifestRun{
				File:    filepath.Base(ri.path),
				Shard:   s,
				Entries: ri.entries,
				Bytes:   ri.bytes,
				CRC:     ri.crc,
			})
		}
	}
	if err := writeManifestFile(st.dir, m); err != nil {
		return err
	}
	st.lastCkpt = st.seen
	return nil
}

// fail records the first spill/checkpoint failure for Build to surface.
func (st *StreamBuilder) fail(err error) {
	st.errMu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.errMu.Unlock()
}

// failed reports why the build is lost: the recorded failure, else the
// context's error; nil while it is still sound.
func (st *StreamBuilder) failed() error {
	st.errMu.Lock()
	err := st.err
	st.errMu.Unlock()
	if err == nil {
		err = st.ctx.Err()
	}
	return err
}

// Stats reports the spill activity so far.
func (st *StreamBuilder) Stats() StreamStats {
	return StreamStats{
		SpilledRuns:    st.stats.runs.Load(),
		SpilledEntries: st.stats.entries.Load(),
		SpilledBytes:   st.stats.bytes.Load(),
	}
}

// makeRoom runs under shard s's stripe lock when a flush finds its table
// full. The table doubles while the doubled table still fits the shard's
// slice of the budget; past that it is drained to a sorted run file and
// emptied in place, so every spill cycle reuses the same arrays and no table
// ever outgrows its slice. An I/O error or a cancelled context is recorded
// once and surfaced by Build; from then on the build is lost, so full tables
// are emptied without being written rather than left to grow, and
// checkpointLocked publishes nothing further.
func (st *StreamBuilder) makeRoom(s int, w *countWorker) {
	counts := st.sb.shards[s].counts
	if 2*counts.ResidentBytes() <= st.spillBytes {
		counts.rehash()
		return
	}
	err := st.failed()
	if err == nil {
		err = st.spillShard(s, w)
	}
	if err != nil {
		st.fail(err)
	}
	counts.Reset()
}

// spillShard (stripe lock held) writes shard s's table as one sorted run,
// extracting through w's scratch, and records the run. The table is left
// for the caller to empty.
func (st *StreamBuilder) spillShard(s int, w *countWorker) error {
	pairs := st.sb.shards[s].counts.sortedPairs(&w.sort)
	path := filepath.Join(st.dir, runFileName(st.runSeq.Add(1)))
	h := runHeader{k: st.sb.k, bothStrands: st.sb.bothStrands, shard: s, count: int64(len(pairs))}
	sum, err := writeRun(path, h, pairs, st.durable)
	if err != nil {
		return err
	}
	ri := runInfo{path: path, shard: s, entries: h.count, bytes: runSize(h.count), crc: sum}
	st.runs[s] = append(st.runs[s], ri)
	st.stats.runs.Add(1)
	st.stats.entries.Add(ri.entries)
	st.stats.bytes.Add(ri.bytes)
	return nil
}

// runEntryBytes is the fixed on-disk size of one (kmer, count) record.
const runEntryBytes = 12

// runBlockBytes is the I/O unit of run files in both directions: 64 KiB
// rounded down to whole records.
const runBlockBytes = (64 << 10) / runEntryBytes * runEntryBytes

// writeRun writes one sorted run: header, fixed-width little-endian
// (kmer uint64, count uint32) records, CRC-32C trailer, encoded and written
// a block at a time. durable additionally fsyncs — a manifest must never
// reference a run whose bytes could still be lost by a crash. Every failure
// path removes the partial file: durable directories outlive the builder,
// so a leaked partial would linger forever and a resume must never find a
// torn run.
func writeRun(path string, h runHeader, pairs []kmerCount, durable bool) (uint32, error) {
	f, err := faultinject.Create(faultinject.SiteSpill, path)
	if err != nil {
		return 0, fmt.Errorf("kspectrum: spill: %w", err)
	}
	fail := func(err error) (uint32, error) {
		f.Close()
		os.Remove(path)
		return 0, fmt.Errorf("kspectrum: spill: %w", err)
	}
	// flush writes the block out, behind the last one the trailer: the sum
	// of everything before it. The writes go straight to the file, so the
	// n < len, nil-error contract violation of a lying sink is caught here.
	var sum uint32
	hdr := h.encode()
	block := append(make([]byte, 0, runBlockBytes+4), hdr[:]...)
	flush := func(last bool) error {
		if sum = crc32.Update(sum, crcTable, block); last {
			block = binary.LittleEndian.AppendUint32(block, sum)
		}
		n, err := f.Write(block)
		if err == nil && n != len(block) {
			err = io.ErrShortWrite
		}
		block = block[:0]
		return err
	}
	for _, p := range pairs {
		if len(block)+runEntryBytes > runBlockBytes {
			if err := flush(false); err != nil {
				return fail(err)
			}
		}
		block = binary.LittleEndian.AppendUint64(block, uint64(p.km))
		block = binary.LittleEndian.AppendUint32(block, p.c)
	}
	if err := flush(true); err != nil {
		return fail(err)
	}
	if durable {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return 0, fmt.Errorf("kspectrum: spill: %w", err)
	}
	return sum, nil
}

// Build merges every shard's spilled runs with its in-memory residue and
// returns the finished spectrum, written from the merged shards by the tail
// SpectrumBuilder.Build ends in. Shard s holds exactly the kmers whose high
// bits equal s — in every run and in the residue — so a merged shard is what
// the in-memory engine would have extracted from it, preserving
// byte-identity with that engine (see DESIGN.md §4).
// Build consumes the builder: the spill directory is removed — including a
// durable checkpoint directory, whose job ends with a successful build —
// and further use is an error. On failure a checkpoint directory is kept
// for resumption.
func (st *StreamBuilder) Build() (*Spectrum, error) {
	if st.closed {
		return nil, fmt.Errorf("kspectrum: StreamBuilder used after Build/Close")
	}
	st.closed = true
	if err := st.failed(); err != nil {
		st.cleanup()
		return nil, err
	}
	ws := st.sb.takeWorkers() // the extraction scratch the spills grew
	defer st.sb.releaseWorkers(ws)
	spec, err := st.sb.build(ws, st.mergeShard)
	if err != nil {
		st.cleanup()
		return nil, err
	}
	st.removeDir()
	return spec, nil
}

// Close abandons the builder. Plain spill directories are removed; a
// durable checkpoint directory is kept — it is exactly the artifact a
// later resume needs after a failure or cancellation. It is safe to call
// after Build (a no-op then).
func (st *StreamBuilder) Close() error {
	st.closed = true
	return st.cleanup()
}

// cleanup removes the spill directory unless it is a durable checkpoint
// directory, which survives everything except a successful Build.
func (st *StreamBuilder) cleanup() error {
	if st.durable {
		return nil
	}
	return st.removeDir()
}

func (st *StreamBuilder) removeDir() error {
	if st.dir == "" {
		return nil
	}
	dir := st.dir
	st.dir = ""
	return os.RemoveAll(dir)
}

// mergeShard produces shard s's entries for build: the in-memory residue
// sorted, then k-way merged with the shard's sorted runs, summing counts of
// kmers that appear in several sources.
func (st *StreamBuilder) mergeShard(s int, w *countWorker) ([]kmerCount, error) {
	shard := &st.sb.shards[s]
	shard.mu.Lock()
	runs, residue := st.runs[s], shard.counts.sortedPairs(&w.sort)
	shard.mu.Unlock()
	if len(runs) == 0 {
		return slices.Clone(residue), nil
	}

	streams := make([]runStream, 0, len(runs)+1)
	defer func() {
		for i := range streams {
			streams[i].close()
		}
	}()
	// The output is at most every source entry, and at most every kmer the
	// shard's range holds.
	total := int64(len(residue))
	for _, ri := range runs {
		rs, err := openRun(ri, st.sb.k, st.sb.bothStrands)
		if err != nil {
			return nil, err
		}
		streams = append(streams, rs)
		total += ri.entries
	}
	streams = append(streams, runStream{mem: residue})
	if shift := st.sb.part.Shift(); shift < 62 {
		total = min(total, 1<<shift)
	}

	h := make(runHeap, 0, len(streams))
	for i := range streams {
		p, ok, err := streams[i].next()
		if err != nil {
			return nil, err
		}
		if ok {
			h = append(h, runHead{p, i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	out := make([]kmerCount, 0, total)
	for n := 0; len(h) > 0; n++ {
		// The merge is the long tail of an out-of-core build; poll the
		// context every batch so cancellation aborts it promptly without
		// a per-record overhead.
		if n&8191 == 0 {
			if err := st.ctx.Err(); err != nil {
				return nil, err
			}
		}
		head := h[0]
		if last := len(out) - 1; last >= 0 && out[last].km == head.km {
			out[last].c = saturatingAdd(out[last].c, head.c)
		} else {
			out = append(out, head.kmerCount)
		}
		p, ok, err := streams[head.src].next()
		if err != nil {
			return nil, err
		}
		if ok {
			h[0].kmerCount = p
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return out, nil
}

// runStream iterates one sorted source of a shard merge: the in-memory
// residue, or a run file read and decoded a block at a time. It is the one
// reader of the run format — a resume revalidates its runs by draining it —
// and holds a run to everything known about it since it was written: its
// header, its record count, the CRC-32C in its trailer and in the runInfo
// (the builder's, or a manifest's), and its exact length. A run damaged
// between spill and merge therefore fails the build with ErrCheckpoint
// instead of corrupting the spectrum. The check completes as the last block
// is read, before any of its records is merged.
type runStream struct {
	mem []kmerCount // the residue; a file source otherwise
	pos int         // next entry of mem, or next undecoded byte of buf

	f    *os.File
	r    io.Reader // f behind the merge fault site
	name string
	buf  []byte // the current block
	left int64  // records not yet read from f
	crc  uint32 // of every byte read so far
	want uint32 // the sum recorded when the run was written
}

// next returns the source's next entry, or false at its end.
//
//repro:noalloc
func (rs *runStream) next() (kmerCount, bool, error) {
	if rs.f == nil {
		if rs.pos == len(rs.mem) {
			return kmerCount{}, false, nil
		}
		rs.pos++
		return rs.mem[rs.pos-1], true, nil
	}
	if rs.pos == len(rs.buf) {
		if rs.left == 0 {
			return kmerCount{}, false, nil
		}
		if err := rs.fill(); err != nil {
			return kmerCount{}, false, err
		}
	}
	rec := rs.buf[rs.pos : rs.pos+runEntryBytes]
	rs.pos += runEntryBytes
	return kmerCount{seq.Kmer(binary.LittleEndian.Uint64(rec)), binary.LittleEndian.Uint32(rec[8:])}, true, nil
}

// openRun opens ri's file as a stream. Its header must be byte for byte the
// one a builder of this geometry writes for ri — a mismatch names the first
// field that differs — and the first block is read.
func openRun(ri runInfo, k int, bothStrands bool) (runStream, error) {
	f, err := os.Open(ri.path)
	if err != nil {
		return runStream{}, fmt.Errorf("kspectrum: run: %w", err)
	}
	rs := runStream{
		f: f, r: faultinject.Reader(faultinject.SiteMerge, f), name: filepath.Base(ri.path),
		left: ri.entries, want: ri.crc, buf: make([]byte, 0, runBlockBytes+5),
	}
	want := runHeader{k: k, bothStrands: bothStrands, shard: ri.shard, count: ri.entries}
	if err = rs.read(runHeaderLen, "header"); err == nil {
		if diff := want.mismatch(rs.buf); diff != "" {
			err = checkpointErr("run %s: %s", rs.name, diff)
		}
	}
	if err == nil {
		err = rs.fill()
	}
	if err != nil {
		f.Close()
		return runStream{}, err
	}
	return rs, nil
}

// fill reads the next block of records; behind the last one the file must
// end with the trailer, and the trailer must hold both the sum of the bytes
// read and the sum recorded at spill.
func (rs *runStream) fill() error {
	n := int(min(rs.left, runBlockBytes/runEntryBytes))
	rs.left -= int64(n)
	if err := rs.read(n*runEntryBytes, "records"); err != nil || rs.left > 0 {
		return err
	}
	tail := rs.buf[len(rs.buf) : len(rs.buf)+5]
	m, err := io.ReadFull(rs.r, tail)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("kspectrum: run %s: %w", rs.name, err)
	}
	if m != 4 {
		return checkpointErr("run %s: does not end with its 4-byte checksum", rs.name)
	}
	if got := binary.LittleEndian.Uint32(tail); got != rs.crc || got != rs.want {
		return checkpointErr("run %s: checksum mismatch (file %#x, computed %#x, recorded %#x)", rs.name, got, rs.crc, rs.want)
	}
	return nil
}

// read makes the next n bytes of the file the current block and folds them
// into the running checksum; a file that ends first is a truncated run.
func (rs *runStream) read(n int, what string) error {
	rs.buf, rs.pos = rs.buf[:n], 0
	if _, err := io.ReadFull(rs.r, rs.buf); err == io.EOF || err == io.ErrUnexpectedEOF {
		return checkpointErr("run %s: truncated %s", rs.name, what)
	} else if err != nil {
		return fmt.Errorf("kspectrum: run %s: %w", rs.name, err)
	}
	rs.crc = crc32.Update(rs.crc, crcTable, rs.buf)
	return nil
}

func (rs *runStream) close() {
	if rs.f != nil {
		rs.f.Close()
	}
}

// runHead is one source's current minimum in the shard merge heap.
type runHead struct {
	kmerCount
	src int
}

// runHeap is a binary min-heap of run heads by kmer.
type runHeap []runHead

// down sifts h[i] down to its place.
//
//repro:noalloc
func (h runHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].km < h[c].km {
			c++
		}
		if h[i].km <= h[c].km {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// BuildOutOfCore constructs the spectrum from an in-memory read set through
// the out-of-core engine, returning the spill statistics alongside. It is
// the one-shot convenience over NewStreamBuilder/Add/Build for tests and
// benchmarks.
func BuildOutOfCore(reads []seq.Read, k int, bothStrands bool, opts StreamOptions) (*Spectrum, StreamStats, error) {
	st, err := NewStreamBuilder(k, bothStrands, opts)
	if err != nil {
		return nil, StreamStats{}, err
	}
	st.Add(reads)
	spec, err := st.Build()
	return spec, st.Stats(), err
}
