//go:build !race

// The race detector instruments allocations, so this budget only holds
// in a non-race build.

package experiment

import (
	"os"
	"path/filepath"
	"testing"

	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// TestSpoolAppendAllocs pins the spool's per-record cost: between
// flushes, appending a counter event or a provenance record to its
// stream allocates nothing. Close then attaches the written streams and
// drops the empty one.
func TestSpoolAppendAllocs(t *testing.T) {
	dir := t.TempDir()
	counters := []CounterSpec{{Event: hwc.EvECStall, Interval: 1009}, {Event: hwc.EvECRdMiss, Interval: 101}}
	sp, err := OpenSpool(nil, dir, counters, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := HWCEvent{PIC: 1, DeliveredPC: machine.TextBase, Cycles: 7}
	rec := machine.ProvRecord{Site: machine.TextBase, Addr: 0x40000000, Size: 64, Birth: 7}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sp.AppendEvent(ev); err != nil {
			t.Fatal(err)
		}
		if err := sp.AppendProv(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("spool append: %.1f allocs per event+record, want 0", allocs)
	}
	e := &Experiment{}
	if err := sp.Close(e); err != nil {
		t.Fatal(err)
	}
	if got := e.EventCount(1); got != 101 {
		t.Errorf("spooled %d PIC 1 events, want 101", got)
	}
	if got := e.ProvCount(); got != 101 {
		t.Errorf("spooled %d provenance records, want 101", got)
	}
	// PIC 0 recorded nothing, so Close removed its file.
	if _, err := os.Stat(filepath.Join(dir, ShardFileName(0))); !os.IsNotExist(err) {
		t.Errorf("empty PIC 0 stream left a file behind: %v", err)
	}
}
