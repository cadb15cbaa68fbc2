package experiment

// stream.go implements the sharded files of format v2 — one stream type,
// used three times: counter events of PIC 0 (hwc0.ev2) and PIC 1
// (hwc1.ev2), and allocation-site provenance (prov.pv2). Records are
// appended in fixed-size shards — length-prefixed chunks, each carrying
// its own record count and cycle range in a binary header, each
// independently gob-decodable. The collector appends shards as records
// are produced (and flushes the partial tail shard on cancellation),
// and the analyzer's sharded reduction reads disjoint shards in
// parallel without ever materializing the whole stream.
//
// File layout (every stream):
//
//	magic (8 bytes): "dsprofe2" for counter events, "dsprofp2" for provenance
//	shard*:
//	  header (24 bytes, little-endian):
//	    uint32 payload length in bytes
//	    uint32 record count
//	    uint64 min cycle in the shard
//	    uint64 max cycle in the shard
//	  payload: a fresh gob stream encoding []HWCEvent or []machine.ProvRecord
//
// A counter event spans its delivery cycle; a provenance record spans
// its lifetime, Birth .. max(Birth, Death), so windowed reduction can
// skip shards wholesale. The file ends at EOF after the last shard; a
// truncated tail (crash mid-append) is detected by the length prefix
// and reported as a corruption error, never a panic.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dsprof/internal/faultfs"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

const (
	shardMagic = "dsprofe2" // begins every counter-event file
	provMagic  = "dsprofp2" // begins every provenance file
)

// ProvFileName is the provenance shard file inside an experiment dir.
const ProvFileName = "prov.pv2"

// provPIC is the pseudo-PIC stored in provenance Shard descriptors; it
// only distinguishes them in logs, nothing indexes by it.
const provPIC = -1

// DefaultShardEvents is the fixed shard size: how many records one
// shard holds (the tail shard of a file may hold fewer). It balances
// decode granularity for the parallel reduction against per-shard
// header and gob-stream overhead.
const DefaultShardEvents = 4096

// shardHeaderBytes is the size of the binary per-shard header.
const shardHeaderBytes = 24

// maxShardPayload bounds a single shard's payload so a corrupted length
// prefix cannot drive a multi-gigabyte allocation.
const maxShardPayload = 1 << 28

// Shard describes one chunk of a stream: its record count and cycle
// range (from the shard header), and where its payload lives. Shards
// are the unit of the analyzer's parallel reduction and of profd's
// per-shard memoization.
type Shard struct {
	PIC       int
	Index     int
	Count     int
	MinCycles uint64
	MaxCycles uint64

	offset int64 // payload offset in the shard file (0 for in-memory shards)
	length int64 // payload length in bytes (0 for in-memory shards)

	// Manifest-sourced payload checksum. When hasCRC is set, reads
	// verify the raw payload bytes against crc before decoding, so a
	// bit flip inside a shard is reported as a checksum mismatch rather
	// than a gob decode error (or worse, silently wrong records).
	crc    uint32
	hasCRC bool
}

// Stream ids index Experiment.streams, streamFiles and the manifest's
// shard sums: one per PIC, then provenance.
const (
	provStream = NumPICs
	numStreams = NumPICs + 1
)

// streamFile is the record-type-independent half of a stream's
// description: where it lives and how its file starts.
type streamFile struct {
	name  string // file name inside an experiment directory
	magic string
	pic   int // Shard.PIC tag
}

var streamFiles = [numStreams]streamFile{
	{hwcEv2_0, shardMagic, 0},
	{hwcEv2_1, shardMagic, 1},
	{ProvFileName, provMagic, provPIC},
}

// kind describes one stream and the records it carries: its file plus
// the cycle span of one record.
type kind[T any] struct {
	streamFile
	span func(T) (lo, hi uint64)
}

var (
	eventKinds = [NumPICs]kind[HWCEvent]{{streamFiles[0], eventSpan}, {streamFiles[1], eventSpan}}
	provKind   = kind[machine.ProvRecord]{streamFiles[provStream], provSpan}
)

func eventSpan(ev HWCEvent) (uint64, uint64) { return ev.Cycles, ev.Cycles }

func provSpan(rec machine.ProvRecord) (uint64, uint64) { return rec.Birth, max(rec.Birth, rec.Death) }

// frame describes recs (non-empty) as shard i of the stream: record
// count and cycle span. Offsets are the caller's.
func (k kind[T]) frame(i int, recs []T) Shard {
	sh := Shard{PIC: k.pic, Index: i, Count: len(recs)}
	sh.MinCycles, sh.MaxCycles = k.span(recs[0])
	for _, r := range recs[1:] {
		lo, hi := k.span(r)
		sh.MinCycles = min(sh.MinCycles, lo)
		sh.MaxCycles = max(sh.MaxCycles, hi)
	}
	return sh
}

// stream is the backing state of one of an experiment's streams. path
// is non-empty when the records live in a shard file rather than in
// memory (Experiment.HWC or Prov); shards is the shard index (real
// offsets for file-backed streams, synthetic descriptors otherwise).
type stream struct {
	path   string
	shards []Shard
	count  int
	owned  bool // a spooled file Save may rename away
}

// fileStream is the state of a stream backed by the shard file at path.
func fileStream(path string, shards []Shard, owned bool) stream {
	n := 0
	for _, sh := range shards {
		n += sh.Count
	}
	return stream{path: path, shards: shards, count: n, owned: owned}
}

// shardWriter appends records to a stream's shard file, flushing a
// shard every DefaultShardEvents records. It is the collector's sink:
// records stream to disk as they are produced, so collection memory
// does not grow with run length, and Flush writes the partial tail
// shard so a cancelled run still leaves a readable experiment.
type shardWriter[T any] struct {
	f      faultfs.File
	kind   kind[T]
	limit  int
	buf    []T
	shards []Shard
	count  int
	off    int64
	err    error
	// payload is the encode buffer, reused by every flush.
	payload bytes.Buffer
}

// create creates (truncating) the stream's shard file at path.
func (k kind[T]) create(fsys faultfs.FS, path string) (*shardWriter[T], error) {
	f, err := faultfs.Or(fsys).Create(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: shard file: %w", err)
	}
	if _, err := f.Write([]byte(k.magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: shard file: %w", err)
	}
	return &shardWriter[T]{
		f:     f,
		kind:  k,
		limit: DefaultShardEvents,
		buf:   make([]T, 0, DefaultShardEvents),
		off:   int64(len(k.magic)),
	}, nil
}

// SetShardEvents overrides the shard size for subsequently flushed
// shards. The fault soak uses small shards so a short collect still
// crosses many shard boundaries; n <= 0 keeps the current size.
func (w *shardWriter[T]) SetShardEvents(n int) {
	if n > 0 {
		w.limit = n
	}
}

// Append buffers one record, writing a full shard to disk whenever the
// fixed shard size is reached.
func (w *shardWriter[T]) Append(rec T) error {
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, rec)
	if len(w.buf) >= w.limit {
		return w.Flush()
	}
	return nil
}

// Flush writes the buffered (possibly partial) shard. It is called on
// run completion and on cancellation, so interrupted collections keep
// every record delivered before the cut.
func (w *shardWriter[T]) Flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	payload := &w.payload
	payload.Reset()
	if err := gob.NewEncoder(payload).Encode(w.buf); err != nil {
		w.err = fmt.Errorf("experiment: encoding %s shard: %w", w.kind.name, err)
		return w.err
	}
	sh := w.kind.frame(len(w.shards), w.buf)
	sh.offset = w.off + shardHeaderBytes
	sh.length = int64(payload.Len())
	var hdr [shardHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(sh.Count))
	binary.LittleEndian.PutUint64(hdr[8:], sh.MinCycles)
	binary.LittleEndian.PutUint64(hdr[16:], sh.MaxCycles)
	if _, err := w.f.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("experiment: writing %s shard header: %w", w.kind.name, err)
		return w.err
	}
	if _, err := w.f.Write(payload.Bytes()); err != nil {
		w.err = fmt.Errorf("experiment: writing %s shard payload: %w", w.kind.name, err)
		return w.err
	}
	w.shards = append(w.shards, sh)
	w.count += sh.Count
	w.off += shardHeaderBytes + int64(payload.Len())
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the tail shard and closes the file.
func (w *shardWriter[T]) Close() error {
	flushErr := w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Shards returns the shard table written so far.
func (w *shardWriter[T]) Shards() []Shard { return w.shards }

// Count returns the number of records written (flushed) so far.
func (w *shardWriter[T]) Count() int { return w.count }

// synthetic slices in-memory records into fixed-size shard descriptors,
// so experiments that never touched disk (or were loaded eagerly)
// expose the same sharded view the parallel reduction consumes.
func (k kind[T]) synthetic(recs []T) []Shard {
	var shards []Shard
	for lo := 0; lo < len(recs); lo += DefaultShardEvents {
		shards = append(shards, k.frame(len(shards), recs[lo:min(lo+DefaultShardEvents, len(recs))]))
	}
	return shards
}

// shards returns the stream's shard table: the file's for a file-backed
// stream, synthetic fixed-size slices of mem otherwise.
func (k kind[T]) shards(s *stream, mem []T) []Shard {
	if s.path == "" && s.shards == nil && len(mem) > 0 {
		s.shards = k.synthetic(mem)
	}
	return s.shards
}

// read returns shard i's records. File-backed reads decode just that
// shard with their own file handle (safe from concurrent workers);
// in-memory reads return a subslice of mem, which callers must not
// modify.
func (k kind[T]) read(s *stream, mem []T, i int) ([]T, error) {
	shards := k.shards(s, mem)
	if i < 0 || i >= len(shards) {
		return nil, fmt.Errorf("experiment: %s: shard %d/%d out of range", k.name, i, len(shards))
	}
	if s.path == "" {
		lo := i * DefaultShardEvents
		hi := lo + shards[i].Count
		return mem[lo:hi:hi], nil
	}
	return decodeShard[T](s.path, shards[i])
}

// total returns the number of records in the stream without decoding
// a file-backed one; memLen is the length of its in-memory records.
func (s *stream) total(memLen int) int {
	if s.path != "" {
		return s.count
	}
	return memLen
}

// materialize decodes a file-backed stream into *mem through read (the
// public, validating reader) and drops the file backing.
func materialize[T any](s *stream, mem *[]T, read func(int) ([]T, error)) error {
	if s.path == "" {
		return nil
	}
	recs := make([]T, 0, s.count)
	for i := range s.shards {
		part, err := read(i)
		if err != nil {
			return err
		}
		recs = append(recs, part...)
	}
	*mem, *s = recs, stream{}
	return nil
}

// forEach streams every record of n shards, read one at a time, to fn.
// fn returning an error stops the iteration with that error.
func forEach[T any](n int, read func(int) ([]T, error), fn func(T) error) error {
	for i := 0; i < n; i++ {
		recs, err := read(i)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// save writes the stream into dir. A file-backed stream whose file
// already lives at the target path is left in place; one spooled
// elsewhere is renamed in (falling back to a copy across filesystems);
// one opened from another experiment directory is copied, so the
// source stays readable. An in-memory stream is sharded into a new
// file; an empty one writes no file and removes a stale one from a
// previous Save into the same directory.
func (k kind[T]) save(fsys faultfs.FS, dir string, s *stream, mem []T) error {
	target := filepath.Join(dir, k.name)
	if s.path == "" {
		if len(mem) == 0 {
			if _, err := os.Stat(target); err == nil {
				fsys.Remove(target)
			}
			return nil
		}
		w, err := k.create(fsys, target)
		if err != nil {
			return err
		}
		for _, rec := range mem {
			if err := w.Append(rec); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	}
	if same, err := samePath(s.path, target); err == nil && same {
		return nil
	}
	if !s.owned {
		if err := copyFile(fsys, s.path, target); err != nil {
			return fmt.Errorf("experiment: copying %s: %w", k.name, err)
		}
	} else if err := fsys.Rename(s.path, target); err != nil {
		if err := copyFile(fsys, s.path, target); err != nil {
			return fmt.Errorf("experiment: moving spooled %s: %w", k.name, err)
		}
		fsys.Remove(s.path)
	}
	s.path = target
	return nil
}

// scan reads a shard file's headers (seeking over the payloads). It
// returns as many structurally valid shards as the file holds and,
// instead of failing on a damaged tail, the good prefix plus a typed
// loss describing the cut — ErrTruncatedHeader for a short or
// implausible header (including a missing/short magic), ErrTornShard
// for a payload cut off mid-write. A missing file is zero shards and no
// loss. The prefix is structural only; checksum validation against the
// manifest is the caller's job.
func (sf streamFile) scan(path string) (shards []Shard, loss error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %v", path, ErrTornShard, err)
	}
	defer f.Close()
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	magic := make([]byte, len(sf.magic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != sf.magic {
		return nil, fmt.Errorf("%s: %w: bad or short magic", path, ErrTruncatedHeader)
	}
	off := int64(len(sf.magic))
	for off < size {
		if size-off < shardHeaderBytes {
			return shards, fmt.Errorf("%s: shard %d: %w: %d trailing bytes",
				path, len(shards), ErrTruncatedHeader, size-off)
		}
		var hdr [shardHeaderBytes]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return shards, fmt.Errorf("%s: shard %d: %w", path, len(shards), ErrTruncatedHeader)
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:]))
		count := int(binary.LittleEndian.Uint32(hdr[4:]))
		if length <= 0 || length > maxShardPayload || count <= 0 {
			return shards, fmt.Errorf("%s: shard %d: %w: implausible header (len %d, count %d)",
				path, len(shards), ErrTruncatedHeader, length, count)
		}
		if size-off-shardHeaderBytes < length {
			return shards, fmt.Errorf("%s: shard %d: %w: payload %d bytes, %d on disk",
				path, len(shards), ErrTornShard, length, size-off-shardHeaderBytes)
		}
		sh := Shard{
			PIC:       sf.pic,
			Index:     len(shards),
			Count:     count,
			MinCycles: binary.LittleEndian.Uint64(hdr[8:]),
			MaxCycles: binary.LittleEndian.Uint64(hdr[16:]),
			offset:    off + shardHeaderBytes,
			length:    length,
		}
		if _, err := f.Seek(length, io.SeekCurrent); err != nil {
			return shards, fmt.Errorf("%s: shard %d: %w: %v", path, len(shards), ErrTornShard, err)
		}
		off = sh.offset + length
		shards = append(shards, sh)
	}
	return shards, nil
}

// index is the strict scan of an intact file: any loss is an error.
func (sf streamFile) index(path string) ([]Shard, error) {
	shards, loss := sf.scan(path)
	if loss != nil {
		return nil, fmt.Errorf("corrupted %w", loss)
	}
	return shards, nil
}

// decodeShard reads one shard's payload: CRC verification against the
// manifest when the shard carries a checksum, panic-safe gob decode,
// record-count cross-check against the header.
func decodeShard[T any](path string, sh Shard) (recs []T, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer func() {
		if r := recover(); r != nil {
			recs, err = nil, fmt.Errorf("corrupted %s: shard %d: %v", path, sh.Index, r)
		}
	}()
	var payload io.Reader = io.NewSectionReader(f, sh.offset, sh.length)
	if sh.hasCRC {
		raw := make([]byte, sh.length)
		if _, err := io.ReadFull(payload, raw); err != nil {
			return nil, fmt.Errorf("corrupted %s: shard %d: truncated payload", path, sh.Index)
		}
		if got := crc32.ChecksumIEEE(raw); got != sh.crc {
			return nil, fmt.Errorf("corrupted %s: shard %d: %w (crc %08x, manifest says %08x)",
				path, sh.Index, ErrChecksumMismatch, got, sh.crc)
		}
		payload = bytes.NewReader(raw)
	}
	if err := gob.NewDecoder(payload).Decode(&recs); err != nil {
		return nil, fmt.Errorf("corrupted %s: shard %d: %w", path, sh.Index, err)
	}
	if len(recs) != sh.Count {
		return nil, fmt.Errorf("corrupted %s: shard %d: %d records, header says %d",
			path, sh.Index, len(recs), sh.Count)
	}
	return recs, nil
}

// Spool streams a collect's records into shard files in a directory as
// they are produced: one writer per armed PIC and, when provenance is
// collected, one for provenance records.
type Spool struct {
	fsys faultfs.FS
	dir  string
	hwc  [NumPICs]*shardWriter[HWCEvent]
	prov *shardWriter[machine.ProvRecord]
}

// OpenSpool creates the shard files in dir for every PIC armed in
// counters, plus prov.pv2 when prov is set. shardEvents overrides the
// shard size (0 keeps DefaultShardEvents).
func OpenSpool(fsys faultfs.FS, dir string, counters []CounterSpec, prov bool, shardEvents int) (*Spool, error) {
	s := &Spool{fsys: faultfs.Or(fsys), dir: dir}
	var err error
	for pic, cs := range counters {
		if cs.Event != hwc.EvNone && err == nil {
			s.hwc[pic], err = openWriter(s, eventKinds[pic], shardEvents)
		}
	}
	if prov && err == nil {
		s.prov, err = openWriter(s, provKind, shardEvents)
	}
	if err != nil {
		s.Close(&Experiment{}) // releases and removes the files already created
		return nil, err
	}
	return s, nil
}

func openWriter[T any](s *Spool, k kind[T], shardEvents int) (*shardWriter[T], error) {
	w, err := k.create(s.fsys, filepath.Join(s.dir, k.name))
	if err != nil {
		return nil, err
	}
	w.SetShardEvents(shardEvents)
	return w, nil
}

// AppendEvent spools one counter event; its PIC must be armed.
func (s *Spool) AppendEvent(ev HWCEvent) error { return s.hwc[ev.PIC].Append(ev) }

// AppendProv spools one provenance record; the spool must have been
// opened with prov set.
func (s *Spool) AppendProv(rec machine.ProvRecord) error { return s.prov.Append(rec) }

// Close flushes and closes every writer — on every exit path of a run,
// including cancellation, so the partial tail shard reaches disk — and
// attaches each non-empty file to e as the stream's backing (e keeps
// HWC/Prov empty; Save moves the file into the experiment directory).
// A stream that recorded nothing has its file removed. Close returns
// the first error.
func (s *Spool) Close(e *Experiment) error {
	var first error
	for pic, w := range s.hwc {
		if err := closeInto(s, w, &e.streams[pic]); err != nil && first == nil {
			first = err
		}
	}
	if err := closeInto(s, s.prov, &e.streams[provStream]); err != nil && first == nil {
		first = err
	}
	return first
}

func closeInto[T any](s *Spool, w *shardWriter[T], st *stream) error {
	if w == nil {
		return nil
	}
	path := filepath.Join(s.dir, w.kind.name)
	err := w.Close()
	if w.Count() == 0 {
		s.fsys.Remove(path)
	} else {
		*st = fileStream(path, w.Shards(), true)
	}
	return err
}
