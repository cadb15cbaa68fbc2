// Package experiment defines the on-disk experiment format produced by
// the collector and consumed by the analyzer — the equivalent of the
// paper's experiment directories: a log file, the load-object
// description, and one data file per kind of profile data, plus a copy of
// the profiled program (text and symbol tables).
//
// Crucially, the experiment carries no ground truth about which
// instruction actually triggered each counter overflow: exactly like the
// real hardware, only the delivered PC, the collector's candidate trigger
// PC from apropos backtracking, and the recovered effective address are
// recorded.
//
// Two format versions exist. Version 1 stored each PIC's events as one
// monolithic gob blob (hwc0.gob/hwc1.gob); version 2 stores them, and
// provenance records, as sharded streams (hwc0.ev2/hwc1.ev2/prov.pv2,
// see stream.go) so records stream to disk as collected and analysis
// can read disjoint shards in parallel.
// Load and Open negotiate the version from the meta header: v1
// experiments remain fully readable through a compatibility decoder.
package experiment

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dsprof/internal/asm"
	"dsprof/internal/faultfs"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// NumPICs is the number of hardware counter registers (the chip has
// two); Meta.Counters and Experiment.HWC are indexed by PIC.
const NumPICs = 2

// CounterSpec is one armed hardware counter, as given to collect -h.
type CounterSpec struct {
	Event     hwc.Event
	Interval  uint64
	Backtrack bool // "+" prefix: apropos backtracking requested
}

// String renders the spec in collect syntax, e.g. "+ecstall,on".
func (c CounterSpec) String() string {
	s := ""
	if c.Backtrack {
		s = "+"
	}
	return fmt.Sprintf("%s%v,%d", s, c.Event, c.Interval)
}

// HWCEvent is one counter-overflow profile record.
type HWCEvent struct {
	PIC         int
	DeliveredPC uint64
	CandidatePC uint64 // candidate trigger PC from backtracking; 0 if none
	EA          uint64 // recovered effective address
	HasEA       bool
	Callstack   []uint64
	Cycles      uint64 // machine time of delivery
}

// ClockEvent is one clock-profiling tick record.
type ClockEvent struct {
	PC        uint64
	Callstack []uint64
	Cycles    uint64
}

// FormatVersion is the current on-disk experiment format version,
// written into Meta by Save. Load still reads version 1 (monolithic gob
// event blobs) through a compatibility decoder; any other version — a
// truncated meta file (version 0) or a future format — is rejected so
// it never decodes into silently wrong data.
const FormatVersion = 2

// oldestReadableVersion is the oldest format Load still understands.
const oldestReadableVersion = 1

// Meta is the experiment header (the log/loadobjects information).
type Meta struct {
	FormatVersion   int
	ProgName        string
	Command         string
	When            time.Time
	ClockHz         uint64
	ClockProfiling  bool
	ClockTickCycles uint64
	Counters        []CounterSpec // indexed by PIC
	Stats           machine.Stats
	HeapPageSize    uint64
	DCacheLine      int // D$ line size of the machine profiled on
	ECacheLine      int // E$ line size
	ExitStatus      string
	Label           string  // caller-supplied provenance tag (e.g. "baseline", "reorder:arc")
	Output          []int64 // the program's output longs, for transform validation

	// Degraded is empty for intact experiments. Recover sets it to a
	// human-readable summary of what a crash or corruption cost (e.g.
	// "recovered: pic0 lost 1 shard (312 events)"), and the analyzer
	// annotates reports built from such experiments.
	Degraded string
}

// Experiment is an experiment, in memory. Eagerly loaded (or freshly
// collected) experiments hold every counter event in HWC; experiments
// opened for streaming (Open, format v2) leave HWC empty and read
// shards from disk on demand. Either way, Shards/ReadShard/Events/
// EventCount present the same sharded view, so the analyzer does not
// care which path produced the experiment.
type Experiment struct {
	Meta   Meta
	Clock  []ClockEvent
	HWC    [NumPICs][]HWCEvent
	Allocs []machine.Alloc
	Prov   []machine.ProvRecord // allocation-site provenance (empty unless collected)
	Prog   *asm.Program

	// Sharded backing of HWC[0], HWC[1] and Prov, indexed by stream id.
	streams [numStreams]stream
}

// Interval returns the overflow interval for the counter on PIC pic.
func (e *Experiment) Interval(pic int) uint64 {
	if pic < 0 || pic >= len(e.Meta.Counters) {
		return 0
	}
	return e.Meta.Counters[pic].Interval
}

const (
	logFile    = "log.txt"
	metaFile   = "meta.gob"
	clockFile  = "clock.gob"
	hwcFile0   = "hwc0.gob" // format v1
	hwcFile1   = "hwc1.gob" // format v1
	hwcEv2_0   = "hwc0.ev2" // format v2 (sharded)
	hwcEv2_1   = "hwc1.ev2" // format v2 (sharded)
	allocsFile = "allocs.gob"
	progFile   = "program.obj"
)

// ShardFileName returns the name of the v2 shard file for a PIC inside
// an experiment directory ("hwc0.ev2"/"hwc1.ev2").
func ShardFileName(pic int) string { return streamFiles[pic].name }

// writeFileAtomic writes dir/name via a same-directory temp file and a
// rename, so a crash at any point leaves either the old complete file or
// the new complete file — never a truncated one. (The temp name ends in
// ".tmp"; Recover sweeps strays left by a crash between write and
// rename.)
func writeFileAtomic(fsys faultfs.FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := faultfs.WriteFile(fsys, tmp, data); err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, name))
}

// init pins the process-global gob type IDs of every experiment wire
// type in a canonical order. gob allocates stream type IDs from one
// global counter on first encode, so without this the byte encoding of
// a data file would depend on which file a run happened to encode first
// — e.g. a provenance-enabled collect spools ProvRecord payloads before
// Save writes clock.gob, shifting ClockEvent's ID and breaking
// cross-process byte-identity of otherwise identical files.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{
		&Meta{},
		[]ClockEvent{{}},
		[]HWCEvent{{}},
		[]machine.Alloc{{}},
		[]machine.ProvRecord{{}},
	} {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
}

func writeGob(fsys faultfs.FS, dir, name string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	return writeFileAtomic(fsys, dir, name, buf.Bytes())
}

// readGob decodes one data file. Decoding never panics even on
// truncated or corrupted input: gob's decoder can panic on some
// malformed streams, so the recover turns that into a plain error.
func readGob(dir, name string, v any) (err error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupted %s: %v", name, r)
		}
	}()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("corrupted %s: %w", name, err)
	}
	return nil
}

// ProvCount returns the number of provenance records recorded, without
// decoding file-backed streams. Zero means provenance was not collected.
func (e *Experiment) ProvCount() int { return e.streams[provStream].total(len(e.Prov)) }

// ProvShards returns the provenance shard table: real file-backed shards
// for streamed experiments, synthetic fixed-size slices of Prov
// otherwise.
func (e *Experiment) ProvShards() []Shard { return provKind.shards(&e.streams[provStream], e.Prov) }

// ReadProvShard returns one provenance shard's records. Like ReadShard,
// file-backed reads use their own file handle (safe from concurrent
// workers) and in-memory reads return a subslice callers must not
// modify.
func (e *Experiment) ReadProvShard(i int) ([]machine.ProvRecord, error) {
	return provKind.read(&e.streams[provStream], e.Prov, i)
}

// ProvRecords streams every provenance record to fn in collection order
// without materializing file-backed streams. fn returning an error stops
// the iteration and ProvRecords returns that error.
func (e *Experiment) ProvRecords(fn func(machine.ProvRecord) error) error {
	return forEach(len(e.ProvShards()), e.ReadProvShard, fn)
}

// EventCount returns the number of counter events recorded for a PIC,
// without decoding file-backed streams.
func (e *Experiment) EventCount(pic int) int {
	if pic < 0 || pic >= NumPICs {
		return 0
	}
	return e.streams[pic].total(len(e.HWC[pic]))
}

// Shards returns the shard table for a PIC: real file-backed shards for
// streamed experiments, synthetic fixed-size slices of HWC otherwise.
// The table is the unit of the analyzer's parallel reduction.
func (e *Experiment) Shards(pic int) []Shard {
	if pic < 0 || pic >= NumPICs {
		return nil
	}
	return eventKinds[pic].shards(&e.streams[pic], e.HWC[pic])
}

// ReadShard returns one shard's events. For file-backed experiments it
// opens the shard file and decodes just that shard (safe to call from
// concurrent workers: every call uses its own file handle); for
// in-memory experiments it returns a subslice of HWC, which callers
// must not modify. Events from file-backed shards are validated the
// same way Load validates eager streams.
func (e *Experiment) ReadShard(pic, i int) ([]HWCEvent, error) {
	if pic < 0 || pic >= NumPICs {
		return nil, fmt.Errorf("experiment: ReadShard: PIC %d out of range", pic)
	}
	s := &e.streams[pic]
	evs, err := eventKinds[pic].read(s, e.HWC[pic], i)
	if err != nil || s.path == "" {
		return evs, err
	}
	if err := validateEvents(pic, evs, e.Meta.Counters); err != nil {
		return nil, fmt.Errorf("%s: shard %d: %w", s.path, i, err)
	}
	return evs, nil
}

// Events streams every counter event of the experiment to fn, PIC 0
// first then PIC 1, each in collection order, without materializing
// file-backed streams in memory. fn returning an error stops the
// iteration and Events returns that error.
func (e *Experiment) Events(fn func(HWCEvent) error) error {
	for pic := 0; pic < NumPICs; pic++ {
		read := func(i int) ([]HWCEvent, error) { return e.ReadShard(pic, i) }
		if err := forEach(len(e.Shards(pic)), read, fn); err != nil {
			return err
		}
	}
	return nil
}

// validateEvents checks decoded counter events against the experiment
// header before they reach the analyzer: every event's PIC must match
// the stream it was read from (and hence lie in [0,NumPICs)), and a
// stream may only contain events if its counter is actually armed. A
// corrupted or hand-edited file yields a descriptive error here instead
// of an out-of-range index downstream.
func validateEvents(pic int, evs []HWCEvent, counters []CounterSpec) error {
	if len(evs) == 0 {
		return nil
	}
	if pic >= len(counters) || counters[pic].Event == hwc.EvNone {
		return fmt.Errorf("%d events recorded for PIC %d, but no counter is armed on it", len(evs), pic)
	}
	for i, ev := range evs {
		if ev.PIC != pic {
			return fmt.Errorf("event %d: PIC %d, want %d (stream/event mismatch)", i, ev.PIC, pic)
		}
	}
	return nil
}

// Save writes the experiment as a directory in the current format,
// stamping the format version into the meta header. Counter events held
// in memory are sharded into v2 files; file-backed events (spooled
// during collection or opened from another directory) are moved or
// copied without re-encoding.
//
// Save is crash-safe: every data file is written via temp-and-rename,
// the integrity manifest is written last (its presence certifies the
// directory complete), and the directory is fsynced so a committed
// experiment survives power loss. A crash mid-Save leaves either the
// previous complete file or a recoverable partial state, never a
// silently truncated experiment.
func (e *Experiment) Save(dir string) error {
	return e.SaveFS(faultfs.OS, dir)
}

// SaveFS is Save through a pluggable filesystem — the fault-injection
// and crash-trace-recording seam.
func (e *Experiment) SaveFS(fsys faultfs.FS, dir string) error {
	fsys = faultfs.Or(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	e.Meta.FormatVersion = FormatVersion
	if err := writeGob(fsys, dir, metaFile, &e.Meta); err != nil {
		return err
	}
	if err := writeGob(fsys, dir, clockFile, e.Clock); err != nil {
		return err
	}
	for pic := 0; pic < NumPICs; pic++ {
		if err := eventKinds[pic].save(fsys, dir, &e.streams[pic], e.HWC[pic]); err != nil {
			return err
		}
	}
	if err := writeGob(fsys, dir, allocsFile, e.Allocs); err != nil {
		return err
	}
	if err := provKind.save(fsys, dir, &e.streams[provStream], e.Prov); err != nil {
		return err
	}
	if e.Prog != nil {
		var buf bytes.Buffer
		if err := e.Prog.Save(&buf); err != nil {
			return err
		}
		if err := writeFileAtomic(fsys, dir, progFile, buf.Bytes()); err != nil {
			return err
		}
	}
	if err := e.writeLog(fsys, dir); err != nil {
		return err
	}
	if err := WriteManifest(fsys, dir); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// samePath reports whether two paths name the same file.
func samePath(a, b string) (bool, error) {
	sa, err := os.Stat(a)
	if err != nil {
		return false, err
	}
	sb, err := os.Stat(b)
	if err != nil {
		return false, err
	}
	return os.SameFile(sa, sb), nil
}

// copyFile copies src (read from the real filesystem) to dst through
// fsys — sources are always readable experiment data; only the write
// side goes through the pluggable seam.
func copyFile(fsys faultfs.FS, src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := fsys.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeLog writes the human-readable log.txt.
func (e *Experiment) writeLog(fsys faultfs.FS, dir string) error {
	f := &bytes.Buffer{}
	fmt.Fprintf(f, "experiment: %s\n", e.Meta.Command)
	fmt.Fprintf(f, "target: %s\n", e.Meta.ProgName)
	fmt.Fprintf(f, "when: %s\n", e.Meta.When.Format(time.RFC3339))
	if e.Meta.Label != "" {
		fmt.Fprintf(f, "label: %s\n", e.Meta.Label)
	}
	fmt.Fprintf(f, "clock: %d Hz\n", e.Meta.ClockHz)
	if e.Meta.ClockProfiling {
		fmt.Fprintf(f, "clock-profiling: every %d cycles, %d ticks\n",
			e.Meta.ClockTickCycles, len(e.Clock))
	}
	for pic, c := range e.Meta.Counters {
		if c.Event != hwc.EvNone {
			fmt.Fprintf(f, "counter %d: %s, %d overflow events\n", pic, c, e.EventCount(pic))
		}
	}
	if n := e.ProvCount(); n > 0 {
		fmt.Fprintf(f, "provenance: %d records\n", n)
	}
	fmt.Fprintf(f, "instructions: %d\ncycles: %d\n", e.Meta.Stats.Instrs, e.Meta.Stats.Cycles)
	fmt.Fprintf(f, "exit: %s\n", e.Meta.ExitStatus)
	if e.Meta.Degraded != "" {
		fmt.Fprintf(f, "degraded: %s\n", e.Meta.Degraded)
	}
	return writeFileAtomic(fsys, dir, logFile, f.Bytes())
}

// Load reads an experiment directory written by Save, eagerly: every
// counter event is decoded into HWC. It reads both the current format
// and version 1 via the compatibility decoder, and it never panics: a
// missing directory, a missing or truncated data file, a format version
// mismatch, an internally inconsistent meta header, or event records
// inconsistent with the armed counters all produce a descriptive error.
func Load(dir string) (*Experiment, error) {
	e, err := open(dir)
	if err != nil {
		return nil, err
	}
	// Materialize file-backed streams.
	for pic := 0; pic < NumPICs; pic++ {
		read := func(i int) ([]HWCEvent, error) { return e.ReadShard(pic, i) }
		if err := materialize(&e.streams[pic], &e.HWC[pic], read); err != nil {
			return nil, fmt.Errorf("experiment %s: %w", dir, err)
		}
	}
	if err := materialize(&e.streams[provStream], &e.Prov, e.ReadProvShard); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", dir, err)
	}
	return e, nil
}

// Open reads an experiment directory for streaming: the header, clock
// data, allocations, and program load eagerly (they are small), but a
// current-format experiment's counter events stay on disk, exposed
// through Shards/ReadShard/Events. Version-1 experiments have no shard
// files, so Open falls back to the eager compatibility path for them;
// either way the returned experiment presents the same sharded view.
// Like Load, Open never panics on corrupted input.
func Open(dir string) (*Experiment, error) {
	return open(dir)
}

// open is the shared loader: everything but file-backed event payloads.
func open(dir string) (*Experiment, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", dir, err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("experiment %s: not a directory", dir)
	}
	e := &Experiment{}
	if err := readGob(dir, metaFile, &e.Meta); err != nil {
		return nil, fmt.Errorf("experiment %s: reading meta: %w", dir, err)
	}
	if v := e.Meta.FormatVersion; v < oldestReadableVersion || v > FormatVersion {
		return nil, fmt.Errorf("experiment %s: format version %d, want %d..%d (re-collect the experiment)",
			dir, v, oldestReadableVersion, FormatVersion)
	}
	if n := len(e.Meta.Counters); n != NumPICs {
		return nil, fmt.Errorf("experiment %s: corrupted meta: %d counter slots, want %d", dir, n, NumPICs)
	}
	if err := readGob(dir, clockFile, &e.Clock); err != nil {
		return nil, fmt.Errorf("experiment %s: reading clock data: %w", dir, err)
	}
	switch e.Meta.FormatVersion {
	case 1:
		// v1 compatibility: monolithic gob blobs, decoded eagerly.
		for pic := 0; pic < NumPICs; pic++ {
			name := hwcFile0
			if pic == 1 {
				name = hwcFile1
			}
			if err := readGob(dir, name, &e.HWC[pic]); err != nil {
				return nil, fmt.Errorf("experiment %s: reading hwc%d data: %w", dir, pic, err)
			}
			if err := validateEvents(pic, e.HWC[pic], e.Meta.Counters); err != nil {
				return nil, fmt.Errorf("experiment %s: %s: %w", dir, name, err)
			}
		}
	default:
		// v2: scan the shard indexes; payloads stay on disk.
		for id, sf := range streamFiles {
			path := filepath.Join(dir, sf.name)
			shards, err := sf.index(path)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: reading %s: %w", dir, sf.name, err)
			}
			if len(shards) == 0 {
				continue
			}
			if id < NumPICs && e.Meta.Counters[id].Event == hwc.EvNone {
				return nil, fmt.Errorf("experiment %s: %s: events recorded for PIC %d, but no counter is armed on it",
					dir, sf.name, id)
			}
			e.streams[id] = fileStream(path, shards, false)
		}
		// Attach the manifest's shard checksums when one exists, so
		// every shard read is integrity-checked. Pre-manifest and
		// recovered-without-manifest experiments load unverified.
		if m, err := ReadManifest(dir); err == nil {
			e.attachManifest(m)
		}
	}
	if err := readGob(dir, allocsFile, &e.Allocs); err != nil {
		return nil, fmt.Errorf("experiment %s: reading allocs: %w", dir, err)
	}
	prog, err := loadProgram(filepath.Join(dir, progFile))
	if err != nil {
		return nil, fmt.Errorf("experiment %s: reading program: %w", dir, err)
	}
	e.Prog = prog
	return e, nil
}

// ReadMeta reads just the meta header of an experiment directory,
// without touching event data. It accepts any readable format version.
func ReadMeta(dir string) (*Meta, error) {
	var m Meta
	if err := readGob(dir, metaFile, &m); err != nil {
		return nil, fmt.Errorf("experiment %s: reading meta: %w", dir, err)
	}
	if v := m.FormatVersion; v < oldestReadableVersion || v > FormatVersion {
		return nil, fmt.Errorf("experiment %s: format version %d, want %d..%d", dir, v, oldestReadableVersion, FormatVersion)
	}
	return &m, nil
}

// loadProgram reads the saved program object, converting any decoder
// panic on a corrupted file into an error.
func loadProgram(path string) (prog *asm.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupted program object: %v", r)
		}
	}()
	return asm.LoadFile(path)
}
