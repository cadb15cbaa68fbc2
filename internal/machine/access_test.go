package machine

import (
	"testing"
	"unsafe"

	"dsprof/internal/asm"
	"dsprof/internal/cache"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
)

// TestWritePolicy pins the D$/E$ write policy of the shared access
// routine on every engine: each case runs a short straight-line sequence
// of accesses on the reference stepper, the interpreter and translated
// blocks, and checks the resulting memory statistics — and that armed
// counters saw exactly the events those statistics record.
//
// The caches are tiny so the cases can force every outcome: a 1 KB 4-way
// D$ (32-byte lines) and an 8 KB 2-way E$ (512-byte lines, 8 sets), so
// addresses 4 KB apart share an E$ set and a third one evicts the LRU
// line. Only the listed accesses touch the data caches.
func TestWritePolicy(t *testing.T) {
	costs := cache.DefaultCosts()
	cfg := DefaultConfig()
	cfg.DCache = cache.Config{Name: "D$", SizeBytes: 1024, LineBytes: 32, Assoc: 4}
	cfg.ECache = cache.Config{Name: "E$", SizeBytes: 8192, LineBytes: 512, Assoc: 2}

	type acc struct {
		op  isa.Op
		off int32 // from a base address aligned to the E$ set stride
	}
	ld := func(off int32) acc { return acc{isa.LdX, off} }
	st := func(off int32) acc { return acc{isa.StX, off} }
	pf := func(off int32) acc { return acc{isa.Prefetch, off} }
	// want holds the expected memory statistics; Cycles, Instrs and
	// the DTLB/I$ fields are left zero and not compared.
	cases := []struct {
		name string
		seq  []acc
		want Stats
	}{
		{"load miss", []acc{ld(0)},
			Stats{Loads: 1, DCRdMisses: 1, ECRefs: 1, ECRdMisses: 1, ECStallCycles: uint64(costs.MemStall)}},
		{"load miss then hit", []acc{ld(0), ld(0)},
			Stats{Loads: 2, DCRdMisses: 1, ECRefs: 1, ECRdMisses: 1, ECStallCycles: uint64(costs.MemStall)}},
		{"D$ miss hits E$", []acc{ld(0), ld(64)},
			Stats{Loads: 2, DCRdMisses: 2, ECRefs: 2, ECRdMisses: 1, ECStallCycles: uint64(costs.MemStall + costs.EHitStall)}},
		{"store miss allocates E$ only", []acc{st(0)},
			Stats{Stores: 1, ECRefs: 1, ECStallCycles: uint64(costs.StoreMissStall)}},
		{"repeat store miss hits E$", []acc{st(0), st(0)},
			Stats{Stores: 2, ECRefs: 2, ECStallCycles: uint64(costs.StoreMissStall)}},
		{"store miss leaves no D$ line", []acc{st(0), ld(0)},
			Stats{Loads: 1, Stores: 1, DCRdMisses: 1, ECRefs: 2, ECStallCycles: uint64(costs.StoreMissStall + costs.EHitStall)}},
		{"store hit absorbed", []acc{ld(0), st(0)},
			Stats{Loads: 1, Stores: 1, DCRdMisses: 1, ECRefs: 1, ECRdMisses: 1, ECStallCycles: uint64(costs.MemStall)}},
		{"load evicts dirty victim", []acc{st(0), ld(4096), ld(8192)},
			Stats{Loads: 2, Stores: 1, DCRdMisses: 2, ECRefs: 3, ECRdMisses: 2,
				ECStallCycles: uint64(costs.StoreMissStall + 2*costs.MemStall + costs.WritebackStall)}},
		{"store evicts dirty victim", []acc{st(0), st(4096), st(8192)},
			Stats{Stores: 3, ECRefs: 3, ECStallCycles: uint64(3*costs.StoreMissStall + costs.WritebackStall)}},
		{"load evicts clean victim", []acc{ld(0), ld(4096), ld(8192)},
			Stats{Loads: 3, DCRdMisses: 3, ECRefs: 3, ECRdMisses: 3, ECStallCycles: uint64(3 * costs.MemStall)}},
		{"prefetch fills both levels", []acc{pf(0)},
			Stats{ECRefs: 1}},
		{"load after prefetch hits", []acc{pf(0), ld(0)},
			Stats{Loads: 1, ECRefs: 1}},
		{"prefetch evicts dirty victim without stall", []acc{st(0), st(4096), pf(8192)},
			Stats{Stores: 2, ECRefs: 3, ECStallCycles: uint64(2 * costs.StoreMissStall)}},
	}
	// Three armings cover the five per-access events; the intervals are
	// too long to overflow, so the counters report raw event totals.
	armings := [][2]hwc.Event{
		{hwc.EvECStall, hwc.EvECRef},
		{hwc.EvECRdMiss, hwc.EvDCRdMiss},
		{hwc.EvDTLBMiss, hwc.EvNone},
	}
	engines := []struct {
		name  string
		setup func(m *Machine)
		drive func(m *Machine) error
	}{
		{"step", func(*Machine) {}, stepLoop},
		{"interp", func(m *Machine) { m.SetBackend(BackendFast) }, (*Machine).Run},
		{"translated", func(m *Machine) { m.SetTranslationHeat(1) }, (*Machine).Run},
	}
	const base = 0x7e90_0000 // in the stack segment, 8 KB page aligned
	for _, tc := range cases {
		prog := func(b *asm.Builder) {
			b.Emit(isa.Instr{Op: isa.SetHi, Rd: isa.L0, UseImm: true, Imm: base >> isa.SetHiShift})
			for _, a := range tc.seq {
				b.Emit(isa.Instr{Op: a.op, Rd: isa.O1, Rs1: isa.L0, UseImm: true, Imm: a.off})
			}
			b.Emit(isa.Instr{Op: isa.Halt})
		}
		for _, eng := range engines {
			for _, evs := range armings {
				m := build(t, cfg, prog)
				eng.setup(m)
				for pic, ev := range evs {
					if ev != hwc.EvNone {
						mustArm(t, m, pic, ev, 1<<40)
					}
				}
				if err := eng.drive(m); err != nil {
					t.Fatalf("%s/%s: %v", tc.name, eng.name, err)
				}
				if eng.name == "translated" && (m.trans == nil || m.trans.blocks[0] == nil || m.trans.blocks[0] == noTransBlock) {
					t.Fatalf("%s: the accesses did not run translated", tc.name)
				}
				got := m.Stats()
				mem := Stats{Loads: got.Loads, Stores: got.Stores, DCRdMisses: got.DCRdMisses,
					ECRefs: got.ECRefs, ECRdMisses: got.ECRdMisses, ECStallCycles: got.ECStallCycles}
				if mem != tc.want {
					t.Errorf("%s/%s: stats %+v, want %+v", tc.name, eng.name, mem, tc.want)
				}
				statOf := map[hwc.Event]uint64{
					hwc.EvECStall: got.ECStallCycles, hwc.EvECRef: got.ECRefs,
					hwc.EvECRdMiss: got.ECRdMisses, hwc.EvDCRdMiss: got.DCRdMisses,
					hwc.EvDTLBMiss: got.DTLBMisses,
				}
				for pic, ev := range evs {
					if ev != hwc.EvNone && m.CounterTotal(pic) != statOf[ev] {
						t.Errorf("%s/%s: armed %v counted %d, statistics say %d",
							tc.name, eng.name, ev, m.CounterTotal(pic), statOf[ev])
					}
				}
			}
		}
	}
}

// TestTinstrSize keeps a threaded op — operands, per-site hint and all —
// within one 64-byte host cache line.
func TestTinstrSize(t *testing.T) {
	if n := unsafe.Sizeof(tinstr{}); n > 64 {
		t.Errorf("tinstr is %d bytes, want at most 64", n)
	}
}
