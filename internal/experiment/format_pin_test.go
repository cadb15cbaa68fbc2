package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dsprof/internal/asm"
	"dsprof/internal/dwarf"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/machine"
)

// pinnedSample is a fixed experiment that exercises every sharded file
// of format v2: both PICs armed, PIC 0 spanning several shards, and a
// provenance stream (also multi-shard) whose records die after birth, so
// the header cycle span comes from Death. It is built here, not from
// the other tests' helpers, so those stay free to change.
func pinnedSample() *Experiment {
	tab := dwarf.NewTable(dwarf.FormatDWARF)
	tab.AddFunc(dwarf.Func{Name: "main", Start: machine.TextBase, End: machine.TextBase + 8, HWCProf: true})
	e := &Experiment{Prog: &asm.Program{
		Name:  "pin",
		Base:  machine.TextBase,
		Entry: machine.TextBase,
		Text:  []isa.Instr{{Op: isa.Nop}, {Op: isa.Halt}},
		Debug: tab,
	}}
	e.Meta = Meta{
		ProgName:        "pin",
		Command:         "collect -p on -h +ecstall,100003,+ecrm,503 pin",
		When:            time.Date(2003, 7, 17, 12, 0, 0, 0, time.UTC),
		ClockHz:         900_000_000,
		ClockProfiling:  true,
		ClockTickCycles: 9_000_011,
		Counters: []CounterSpec{
			{Event: hwc.EvECStall, Interval: 100003, Backtrack: true},
			{Event: hwc.EvECRdMiss, Interval: 503, Backtrack: true},
		},
		Stats:        machine.Stats{Instrs: 1000, Cycles: 5000},
		HeapPageSize: 8192,
		DCacheLine:   32,
		ECacheLine:   512,
		ExitStatus:   "ok",
	}
	e.Clock = []ClockEvent{{PC: machine.TextBase, Cycles: 100}}
	e.Allocs = []machine.Alloc{{Addr: 0x40000000, Size: 128, Seq: 0}}
	for i := 0; i < 2*DefaultShardEvents+11; i++ {
		e.HWC[0] = append(e.HWC[0], HWCEvent{
			PIC: 0, DeliveredPC: machine.TextBase + 4, CandidatePC: machine.TextBase,
			EA: 0x40000000 + uint64(8*i), HasEA: i%3 != 0,
			Callstack: []uint64{machine.TextBase, uint64(i)}, Cycles: 1000 + uint64(i)*7,
		})
	}
	for i := 0; i < 5; i++ {
		e.HWC[1] = append(e.HWC[1], HWCEvent{
			PIC: 1, DeliveredPC: machine.TextBase + 4, EA: 0x40001000 + uint64(i), HasEA: true,
			Cycles: 900 - uint64(i)*100,
		})
	}
	for i := 0; i < DefaultShardEvents+3; i++ {
		rec := machine.ProvRecord{
			Site: machine.TextBase, Caller: machine.TextBase + 4,
			Addr: 0x20000000 + uint64(64*i), Size: 48, Seq: i, Birth: 50 + uint64(i)*5,
		}
		if i%2 == 1 {
			rec.Death, rec.Freed = rec.Birth+1_000_000, true
		}
		e.Prov = append(e.Prov, rec)
	}
	return e
}

// TestFormatV2Pinned pins the bytes of every sharded v2 file and of the
// manifest for a fixed experiment. A change to the frame layout, the
// shard cycle span, the gob payload encoding or the manifest JSON shows
// up here as a digest mismatch; such a change needs a new format
// version, not a new digest.
func TestFormatV2Pinned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pin.er")
	if err := pinnedSample().Save(dir); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"hwc0.ev2":      "41dd6d1f471a71bfe11541bbac588a0d1f1016f98172b1cafdc4349e76642540",
		"hwc1.ev2":      "931ddcc8e252216f381d81441b652ad2aef5b3d87eff8a3d87255336b5e6dbd0",
		"prov.pv2":      "a4734dbee66afee3f74131029b06f35693a013991c001c61cda90eefdba52ae4",
		"manifest.json": "2087abc92a288cf6e35c996fc0bc7c9eb33c47ebe498736b218e605c6df1978c",
	}
	for name, digest := range want {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s: sha256 %s, pinned %s", name, got, digest)
		}
	}
}
