package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsprof/internal/faultfs"
	"dsprof/internal/hwc"
)

func shardEvents(n int) []HWCEvent {
	evs := make([]HWCEvent, n)
	for i := range evs {
		evs[i] = HWCEvent{PIC: 0, DeliveredPC: 0x1000 + uint64(4*i), Cycles: uint64(10 + i)}
	}
	return evs
}

func TestShardWriterRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hwc0.ev2")
	w, err := eventKinds[0].create(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	evs := shardEvents(2*DefaultShardEvents + 5)
	for _, ev := range evs {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(evs) {
		t.Errorf("Count = %d, want %d", w.Count(), len(evs))
	}
	shards := w.Shards()
	if len(shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(shards))
	}
	if shards[2].Count != 5 {
		t.Errorf("tail count = %d", shards[2].Count)
	}
	idx, err := eventKinds[0].index(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(shards) {
		t.Fatalf("index has %d shards, wrote %d", len(idx), len(shards))
	}
	var got []HWCEvent
	for i, sh := range idx {
		if sh != shards[i] {
			t.Errorf("shard %d index mismatch: %+v vs %+v", i, sh, shards[i])
		}
		sevs, err := decodeShard[HWCEvent](path, sh)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, sevs...)
	}
	if len(got) != len(evs) {
		t.Fatalf("read %d events, wrote %d", len(got), len(evs))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], evs[i]) {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestShardWriterFlushPartial: Flush mid-stream writes the partial
// shard, so a cancelled collection keeps delivered events.
func TestShardWriterFlushPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hwc1.ev2")
	w, err := eventKinds[1].create(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range shardEvents(3) {
		ev.PIC = 1
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := eventKinds[1].index(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0].Count != 3 || idx[0].PIC != 1 {
		t.Fatalf("index = %+v", idx)
	}
	if idx[0].MinCycles != 10 || idx[0].MaxCycles != 12 {
		t.Errorf("cycle range = [%d,%d]", idx[0].MinCycles, idx[0].MaxCycles)
	}
}

func TestShardIndexTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hwc0.ev2")
	if err := eventKinds[0].save(faultfs.OS, dir, &stream{}, shardEvents(10)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(b) - 1, len(shardMagic) + shardHeaderBytes + 3, len(shardMagic) + 5, 3} {
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := eventKinds[0].index(path); err == nil {
			t.Errorf("cut=%d: truncated shard file indexed without error", cut)
		}
	}
}

func TestSyntheticShards(t *testing.T) {
	evs := shardEvents(DefaultShardEvents + 1)
	shards := eventKinds[0].synthetic(evs)
	if len(shards) != 2 || shards[0].Count != DefaultShardEvents || shards[1].Count != 1 {
		t.Fatalf("shards = %+v", shards)
	}
	if shards[1].MinCycles != evs[len(evs)-1].Cycles {
		t.Errorf("tail MinCycles = %d", shards[1].MinCycles)
	}
	if eventKinds[0].synthetic(nil) != nil {
		t.Error("synthetic shards of empty stream")
	}
}

// TestOpenSpoolReleasesOnError: when a later stream's file cannot be
// created, OpenSpool fails and leaves none of the earlier files behind.
func TestOpenSpoolReleasesOnError(t *testing.T) {
	dir := t.TempDir()
	counters := []CounterSpec{{Event: hwc.EvECStall, Interval: 1009}, {Event: hwc.EvECRdMiss, Interval: 101}}
	// Ops 1-4 create hwc0.ev2 and hwc1.ev2 and write their magic; op 5
	// creates prov.pv2.
	fsys := faultfs.NewInjected(faultfs.OS, faultfs.Schedule{Op: 5, Mode: faultfs.ModeError})
	if _, err := OpenSpool(fsys, dir, counters, true, 0); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("OpenSpool = %v, want the injected create failure", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("failed OpenSpool left %v (%v)", entries, err)
	}
}
