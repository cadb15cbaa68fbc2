package experiment

// shard.go implements the format-v2 counter-event files: instead of one
// monolithic gob blob per PIC (format v1), events are appended in
// fixed-size shards — length-prefixed chunks, each carrying its own
// event count and cycle range in a binary header, each independently
// gob-decodable. The collector appends shards as events are produced
// (and flushes the partial tail shard on cancellation), and the
// analyzer's sharded reduction reads disjoint shards in parallel
// without ever materializing the whole event stream.
//
// File layout (hwc0.ev2 / hwc1.ev2):
//
//	magic "dsprofe2" (8 bytes)
//	shard*:
//	  header (24 bytes, little-endian):
//	    uint32 payload length in bytes
//	    uint32 event count
//	    uint64 min Cycles in the shard
//	    uint64 max Cycles in the shard
//	  payload: a fresh gob stream encoding []HWCEvent
//
// The file ends at EOF after the last shard; a truncated tail (crash
// mid-append) is detected by the length prefix and reported as a
// corruption error, never a panic.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"dsprof/internal/faultfs"
)

// shardMagic begins every v2 counter-event file.
const shardMagic = "dsprofe2"

// DefaultShardEvents is the fixed shard size: how many counter events
// one shard holds (the tail shard of a file may hold fewer). It
// balances decode granularity for the parallel reduction against
// per-shard header and gob-stream overhead.
const DefaultShardEvents = 4096

// shardHeaderBytes is the size of the binary per-shard header.
const shardHeaderBytes = 24

// maxShardPayload bounds a single shard's payload so a corrupted length
// prefix cannot drive a multi-gigabyte allocation.
const maxShardPayload = 1 << 28

// Shard describes one chunk of a counter-event stream: its event count
// and cycle range (from the shard header), and where its payload lives.
// Shards are the unit of the analyzer's parallel reduction and of
// profd's per-shard memoization.
type Shard struct {
	PIC       int
	Index     int
	Count     int
	MinCycles uint64
	MaxCycles uint64

	offset int64 // payload offset in the shard file (0 for in-memory shards)
	length int64 // payload length in bytes (0 for in-memory shards)

	// Manifest-sourced payload checksum. When hasCRC is set, ReadShard
	// verifies the raw payload bytes against crc before decoding, so a
	// bit flip inside a shard is reported as a checksum mismatch rather
	// than a gob decode error (or worse, silently wrong events).
	crc    uint32
	hasCRC bool
}

// ShardWriter appends counter events to a v2 shard file, flushing a
// shard every DefaultShardEvents events. It is the collector's sink:
// events stream to disk as they are produced, so collection memory does
// not grow with run length, and Flush writes the partial tail shard so
// a cancelled run still leaves a readable experiment.
type ShardWriter struct {
	f      faultfs.File
	pic    int
	limit  int
	buf    []HWCEvent
	shards []Shard
	count  int
	off    int64
	err    error
	// payload is the encode buffer, reused by every flush.
	payload bytes.Buffer
}

// NewShardWriter creates (truncating) the shard file at path for the
// given PIC on the real filesystem.
func NewShardWriter(path string, pic int) (*ShardWriter, error) {
	return NewShardWriterFS(faultfs.OS, path, pic)
}

// NewShardWriterFS is NewShardWriter through a pluggable filesystem, the
// collector's spool seam for fault injection and crash-trace recording.
func NewShardWriterFS(fsys faultfs.FS, path string, pic int) (*ShardWriter, error) {
	f, err := faultfs.Or(fsys).Create(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: shard file: %w", err)
	}
	if _, err := f.Write([]byte(shardMagic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: shard file: %w", err)
	}
	return &ShardWriter{
		f:     f,
		pic:   pic,
		limit: DefaultShardEvents,
		buf:   make([]HWCEvent, 0, DefaultShardEvents),
		off:   int64(len(shardMagic)),
	}, nil
}

// SetShardEvents overrides the shard size for subsequently flushed
// shards. The fault soak uses small shards so a short collect still
// crosses many shard boundaries; n <= 0 keeps the current size.
func (w *ShardWriter) SetShardEvents(n int) {
	if n > 0 {
		w.limit = n
	}
}

// Append buffers one event, writing a full shard to disk whenever the
// fixed shard size is reached.
func (w *ShardWriter) Append(ev HWCEvent) error {
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, ev)
	if len(w.buf) >= w.limit {
		return w.Flush()
	}
	return nil
}

// Flush writes the buffered (possibly partial) shard. It is called on
// run completion and on cancellation, so interrupted collections keep
// every event delivered before the cut.
func (w *ShardWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	payload := &w.payload
	payload.Reset()
	if err := gob.NewEncoder(payload).Encode(w.buf); err != nil {
		w.err = fmt.Errorf("experiment: encoding shard: %w", err)
		return w.err
	}
	sh := Shard{
		PIC:       w.pic,
		Index:     len(w.shards),
		Count:     len(w.buf),
		MinCycles: w.buf[0].Cycles,
		MaxCycles: w.buf[0].Cycles,
		offset:    w.off + shardHeaderBytes,
		length:    int64(payload.Len()),
	}
	for _, ev := range w.buf {
		if ev.Cycles < sh.MinCycles {
			sh.MinCycles = ev.Cycles
		}
		if ev.Cycles > sh.MaxCycles {
			sh.MaxCycles = ev.Cycles
		}
	}
	var hdr [shardHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(sh.Count))
	binary.LittleEndian.PutUint64(hdr[8:], sh.MinCycles)
	binary.LittleEndian.PutUint64(hdr[16:], sh.MaxCycles)
	if _, err := w.f.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("experiment: writing shard header: %w", err)
		return w.err
	}
	if _, err := w.f.Write(payload.Bytes()); err != nil {
		w.err = fmt.Errorf("experiment: writing shard payload: %w", err)
		return w.err
	}
	w.shards = append(w.shards, sh)
	w.count += sh.Count
	w.off += shardHeaderBytes + int64(payload.Len())
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the tail shard and closes the file.
func (w *ShardWriter) Close() error {
	flushErr := w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Shards returns the shard table written so far.
func (w *ShardWriter) Shards() []Shard { return w.shards }

// Count returns the number of events written (flushed) so far.
func (w *ShardWriter) Count() int { return w.count }

// readShardIndex scans a v2 shard file's headers (seeking over the
// payloads) and returns the shard table. A missing file means zero
// events (a PIC with no armed counter writes no file).
func readShardIndex(path string, pic int) ([]Shard, error) {
	return readShardIndexMagic(path, shardMagic, pic)
}

// readShardIndexMagic is readShardIndex for any shard-kind magic; the
// header layout is shared between counter-event and provenance files.
func readShardIndexMagic(path, wantMagic string, pic int) ([]Shard, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic := make([]byte, len(wantMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, fmt.Errorf("corrupted %s: short magic", path)
	}
	if string(magic) != wantMagic {
		return nil, fmt.Errorf("corrupted %s: bad magic %q", path, magic)
	}
	var shards []Shard
	off := int64(len(wantMagic))
	for {
		var hdr [shardHeaderBytes]byte
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return shards, nil
		}
		if err != nil {
			return nil, fmt.Errorf("corrupted %s: truncated shard header", path)
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:]))
		count := int(binary.LittleEndian.Uint32(hdr[4:]))
		if length <= 0 || length > maxShardPayload || count <= 0 {
			return nil, fmt.Errorf("corrupted %s: shard %d: implausible header (len %d, count %d)",
				path, len(shards), length, count)
		}
		sh := Shard{
			PIC:       pic,
			Index:     len(shards),
			Count:     count,
			MinCycles: binary.LittleEndian.Uint64(hdr[8:]),
			MaxCycles: binary.LittleEndian.Uint64(hdr[16:]),
			offset:    off + shardHeaderBytes,
			length:    length,
		}
		if _, err := f.Seek(length, io.SeekCurrent); err != nil {
			return nil, fmt.Errorf("corrupted %s: shard %d: %v", path, len(shards), err)
		}
		// Seek past EOF succeeds silently; verify the payload is really
		// there by checking the next read position against file size.
		pos, _ := f.Seek(0, io.SeekCurrent)
		if st, err := f.Stat(); err == nil && pos > st.Size() {
			return nil, fmt.Errorf("corrupted %s: shard %d: truncated payload", path, len(shards))
		}
		off = sh.offset + length
		shards = append(shards, sh)
	}
}

// readShardFile decodes one shard's payload from a v2 shard file,
// first verifying the payload checksum when the shard carries one (from
// the experiment manifest). Decoding never panics even on corrupted
// payload bytes.
func readShardFile(path string, sh Shard) ([]HWCEvent, error) {
	return decodeShardPayload[HWCEvent](path, sh)
}

// decodeShardPayload is the shard-kind-independent payload reader: CRC
// verification against the manifest when present, panic-safe gob decode,
// record-count cross-check against the header.
func decodeShardPayload[T any](path string, sh Shard) (recs []T, err error) {
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
		if _, err := io.ReadFull(payload.(*io.SectionReader), raw); err != nil {
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

// writeShardFile writes one PIC's in-memory events as a v2 shard file
// and returns the shard table. No file is written when evs is empty.
func writeShardFile(fsys faultfs.FS, path string, pic int, evs []HWCEvent) ([]Shard, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	w, err := NewShardWriterFS(fsys, path, pic)
	if err != nil {
		return nil, err
	}
	for _, ev := range evs {
		if err := w.Append(ev); err != nil {
			w.Close()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return w.Shards(), nil
}

// scanShardPrefix is the recovery-path variant of readShardIndex: it
// scans as many structurally valid shards as the file holds and, instead
// of failing on a damaged tail, returns the good prefix plus a typed
// loss describing the cut — ErrTruncatedHeader for a short or
// implausible header (including a missing/short magic), ErrTornShard for
// a payload cut off mid-write. A missing file is zero shards and no
// loss. The returned prefix is structural only; checksum validation
// against the manifest is the caller's job.
func scanShardPrefix(path string, pic int) (shards []Shard, loss error) {
	return scanShardPrefixMagic(path, shardMagic, pic)
}

// scanShardPrefixMagic is scanShardPrefix for any shard-kind magic.
func scanShardPrefixMagic(path, wantMagic string, pic int) (shards []Shard, loss error) {
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
	magic := make([]byte, len(wantMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != wantMagic {
		return nil, fmt.Errorf("%s: %w: bad or short magic", path, ErrTruncatedHeader)
	}
	off := int64(len(wantMagic))
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
			PIC:       pic,
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

// syntheticShards slices an in-memory event stream into fixed-size
// shard descriptors, so experiments that never touched disk (or were
// loaded eagerly) expose the same sharded view the parallel reduction
// consumes.
func syntheticShards(pic int, evs []HWCEvent) []Shard {
	if len(evs) == 0 {
		return nil
	}
	n := (len(evs) + DefaultShardEvents - 1) / DefaultShardEvents
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		lo := i * DefaultShardEvents
		hi := lo + DefaultShardEvents
		if hi > len(evs) {
			hi = len(evs)
		}
		sh := Shard{PIC: pic, Index: i, Count: hi - lo, MinCycles: evs[lo].Cycles, MaxCycles: evs[lo].Cycles}
		for _, ev := range evs[lo:hi] {
			if ev.Cycles < sh.MinCycles {
				sh.MinCycles = ev.Cycles
			}
			if ev.Cycles > sh.MaxCycles {
				sh.MaxCycles = ev.Cycles
			}
		}
		shards = append(shards, sh)
	}
	return shards
}
