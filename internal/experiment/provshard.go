package experiment

// provshard.go is the object-provenance shard kind of format v2: the
// allocation-site records the VM emits (see machine.ProvRecord) stream
// into prov.pv2 exactly like counter events stream into hwc*.ev2 — the
// same 24-byte per-shard header, length-prefixed gob payloads, CRC'd in
// the manifest, spooled incrementally by the collector, salvageable by
// Recover, and replicated through cluster archives. The header's cycle
// range covers the records' lifetimes (min Birth .. max(Birth, Death)),
// so windowed/phase reduction can skip shards wholesale later.
//
// File layout (prov.pv2): magic "dsprofp2", then shards with the shared
// header layout; see shard.go for the header fields.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"dsprof/internal/faultfs"
	"dsprof/internal/machine"
)

// provMagic begins every v2 provenance shard file.
const provMagic = "dsprofp2"

// ProvFileName is the provenance shard file inside an experiment dir.
const ProvFileName = "prov.pv2"

// provPIC is the pseudo-PIC stored in provenance Shard descriptors; it
// only distinguishes them in logs, nothing indexes by it.
const provPIC = -1

// ProvWriter appends provenance records to a prov.pv2 shard file,
// flushing a shard every DefaultShardEvents records. It is the
// collector's provenance sink, the ShardWriter analogue for the
// provenance shard kind.
type ProvWriter struct {
	f      faultfs.File
	limit  int
	buf    []machine.ProvRecord
	shards []Shard
	count  int
	off    int64
	err    error
	// payload is the encode buffer, reused by every flush.
	payload bytes.Buffer
}

// NewProvWriterFS creates (truncating) the provenance shard file at
// path through a pluggable filesystem.
func NewProvWriterFS(fsys faultfs.FS, path string) (*ProvWriter, error) {
	f, err := faultfs.Or(fsys).Create(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: prov shard file: %w", err)
	}
	if _, err := f.Write([]byte(provMagic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiment: prov shard file: %w", err)
	}
	return &ProvWriter{
		f:     f,
		limit: DefaultShardEvents,
		buf:   make([]machine.ProvRecord, 0, DefaultShardEvents),
		off:   int64(len(provMagic)),
	}, nil
}

// SetShardEvents overrides the shard size for subsequently flushed
// shards; n <= 0 keeps the current size.
func (w *ProvWriter) SetShardEvents(n int) {
	if n > 0 {
		w.limit = n
	}
}

// Append buffers one record, writing a full shard to disk whenever the
// fixed shard size is reached.
func (w *ProvWriter) Append(rec machine.ProvRecord) error {
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, rec)
	if len(w.buf) >= w.limit {
		return w.Flush()
	}
	return nil
}

// Flush writes the buffered (possibly partial) shard.
func (w *ProvWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	payload := &w.payload
	payload.Reset()
	if err := gob.NewEncoder(payload).Encode(w.buf); err != nil {
		w.err = fmt.Errorf("experiment: encoding prov shard: %w", err)
		return w.err
	}
	sh := Shard{
		PIC:       provPIC,
		Index:     len(w.shards),
		Count:     len(w.buf),
		MinCycles: w.buf[0].Birth,
		MaxCycles: w.buf[0].Birth,
		offset:    w.off + shardHeaderBytes,
		length:    int64(payload.Len()),
	}
	for _, rec := range w.buf {
		if rec.Birth < sh.MinCycles {
			sh.MinCycles = rec.Birth
		}
		if rec.Birth > sh.MaxCycles {
			sh.MaxCycles = rec.Birth
		}
		if rec.Death > sh.MaxCycles {
			sh.MaxCycles = rec.Death
		}
	}
	var hdr [shardHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(sh.Count))
	binary.LittleEndian.PutUint64(hdr[8:], sh.MinCycles)
	binary.LittleEndian.PutUint64(hdr[16:], sh.MaxCycles)
	if _, err := w.f.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("experiment: writing prov shard header: %w", err)
		return w.err
	}
	if _, err := w.f.Write(payload.Bytes()); err != nil {
		w.err = fmt.Errorf("experiment: writing prov shard payload: %w", err)
		return w.err
	}
	w.shards = append(w.shards, sh)
	w.count += sh.Count
	w.off += shardHeaderBytes + int64(payload.Len())
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the tail shard and closes the file.
func (w *ProvWriter) Close() error {
	flushErr := w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Shards returns the shard table written so far.
func (w *ProvWriter) Shards() []Shard { return w.shards }

// Count returns the number of records written (flushed) so far.
func (w *ProvWriter) Count() int { return w.count }

// readProvIndex scans prov.pv2's shard headers. A missing file means a
// provenance-free experiment.
func readProvIndex(path string) ([]Shard, error) {
	return readShardIndexMagic(path, provMagic, provPIC)
}

// readProvShardFile decodes one provenance shard's payload, verifying
// the manifest checksum when present.
func readProvShardFile(path string, sh Shard) ([]machine.ProvRecord, error) {
	return decodeShardPayload[machine.ProvRecord](path, sh)
}

// syntheticProvShards slices in-memory provenance records into
// fixed-size shard descriptors, the provenance analogue of
// syntheticShards.
func syntheticProvShards(recs []machine.ProvRecord) []Shard {
	if len(recs) == 0 {
		return nil
	}
	n := (len(recs) + DefaultShardEvents - 1) / DefaultShardEvents
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		lo := i * DefaultShardEvents
		hi := lo + DefaultShardEvents
		if hi > len(recs) {
			hi = len(recs)
		}
		sh := Shard{PIC: provPIC, Index: i, Count: hi - lo, MinCycles: recs[lo].Birth, MaxCycles: recs[lo].Birth}
		for _, rec := range recs[lo:hi] {
			if rec.Birth < sh.MinCycles {
				sh.MinCycles = rec.Birth
			}
			if rec.Birth > sh.MaxCycles {
				sh.MaxCycles = rec.Birth
			}
			if rec.Death > sh.MaxCycles {
				sh.MaxCycles = rec.Death
			}
		}
		shards = append(shards, sh)
	}
	return shards
}

// writeProvFile writes in-memory provenance records as a prov.pv2 file
// and returns the shard table. No file is written when recs is empty.
func writeProvFile(fsys faultfs.FS, path string, recs []machine.ProvRecord) ([]Shard, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	w, err := NewProvWriterFS(fsys, path)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			w.Close()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return w.Shards(), nil
}
