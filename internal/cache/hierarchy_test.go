package cache_test

import (
	"testing"

	"dsprof/internal/asm"
	"dsprof/internal/cache"
	"dsprof/internal/isa"
	"dsprof/internal/machine"
)

// The D$/E$ hierarchy policy lives in the machine's memory-access
// routine, which owns both cache levels. These tests drive it one
// instruction at a time on the reference stepper and check what each
// access did through the machine's statistics and cache contents.

// hierBase is in the machine's stack segment and aligned to the E$ set
// stride of the tiny caches below.
const hierBase = 0x7e90_0000

// hierAccess is what one access changed in the machine statistics.
type hierAccess struct {
	DCRdMiss bool   // D$ read miss
	ECRef    bool   // E$ reference
	ECRdMiss bool   // E$ read miss
	Stall    uint64 // E$ stall cycles
}

type hierMachine struct {
	t    *testing.T
	m    *machine.Machine
	prev machine.Stats
}

// newHierMachine builds a machine with a 1 KB 4-way D$ (32-byte lines)
// and an 8 KB 2-way E$ (512-byte lines) running seq, a straight-line
// list of (op, offset from hierBase) accesses, and steps past the
// instruction that forms the base address.
func newHierMachine(t *testing.T, seq ...hierOp) *hierMachine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.DCache = cache.Config{Name: "D$", SizeBytes: 1024, LineBytes: 32, Assoc: 4}
	cfg.ECache = cache.Config{Name: "E$", SizeBytes: 8192, LineBytes: 512, Assoc: 2}
	b := asm.NewBuilder(machine.TextBase)
	b.Emit(isa.Instr{Op: isa.SetHi, Rd: isa.L0, UseImm: true, Imm: hierBase >> isa.SetHiShift})
	for _, a := range seq {
		b.Emit(isa.Instr{Op: a.op, Rd: isa.O1, Rs1: isa.L0, UseImm: true, Imm: a.off})
	}
	b.Emit(isa.Instr{Op: isa.Halt})
	text, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(text, nil, machine.TextBase); err != nil {
		t.Fatal(err)
	}
	h := &hierMachine{t: t, m: m}
	h.next()
	return h
}

type hierOp struct {
	op  isa.Op
	off int32
}

// next steps one instruction and reports what it did to the statistics.
func (h *hierMachine) next() hierAccess {
	h.t.Helper()
	if err := h.m.Step(); err != nil {
		h.t.Fatal(err)
	}
	s := h.m.Stats()
	r := hierAccess{
		DCRdMiss: s.DCRdMisses > h.prev.DCRdMisses,
		ECRef:    s.ECRefs > h.prev.ECRefs,
		ECRdMiss: s.ECRdMisses > h.prev.ECRdMisses,
		Stall:    s.ECStallCycles - h.prev.ECStallCycles,
	}
	h.prev = s
	return r
}

func TestHierarchyLoadPath(t *testing.T) {
	costs := cache.DefaultCosts()
	h := newHierMachine(t, hierOp{isa.LdX, 0}, hierOp{isa.LdX, 0}, hierOp{isa.LdX, 64})
	// Cold load: misses both.
	r := h.next()
	if !r.DCRdMiss || !r.ECRef || !r.ECRdMiss || r.Stall != uint64(costs.MemStall) {
		t.Errorf("cold load result %+v", r)
	}
	// Hot load: D$ hit, nothing else.
	r = h.next()
	if r.DCRdMiss || r.ECRef || r.Stall != 0 {
		t.Errorf("hot load result %+v", r)
	}
	// Same E$ line (512 B), different D$ line: D$ miss, E$ hit.
	r = h.next()
	if !r.DCRdMiss || !r.ECRef || r.ECRdMiss || r.Stall != uint64(costs.EHitStall) {
		t.Errorf("E$-hit load result %+v", r)
	}
	if got := h.m.Stats().ECStallCycles; got != uint64(costs.MemStall+costs.EHitStall) {
		t.Errorf("ECStallCycles = %d", got)
	}
}

func TestHierarchyStorePath(t *testing.T) {
	costs := cache.DefaultCosts()
	h := newHierMachine(t, hierOp{isa.StX, 0}, hierOp{isa.StX, 0}, hierOp{isa.LdX, 0}, hierOp{isa.StX, 0})
	// Cold store: D$ miss (no allocate), E$ write-allocate miss.
	r := h.next()
	if !r.ECRef || r.ECRdMiss || r.Stall != uint64(costs.StoreMissStall) {
		t.Errorf("cold store result %+v", r)
	}
	if h.m.DC.Contains(hierBase) {
		t.Error("store allocated into D$")
	}
	if !h.m.EC.Contains(hierBase) {
		t.Error("store did not allocate into E$")
	}
	// Store again: still D$ miss (never allocated), but E$ hit now.
	r = h.next()
	if !r.ECRef || r.Stall != 0 {
		t.Errorf("warm store result %+v", r)
	}
	// Load it into D$, then store: absorbed, no E$ ref.
	h.next()
	r = h.next()
	if r.ECRef || r.Stall != 0 {
		t.Errorf("D$-hit store result %+v", r)
	}
	if s := h.m.Stats(); s.Stores != 3 || s.Loads != 1 {
		t.Errorf("loads/stores = %d/%d, want 1/3", s.Loads, s.Stores)
	}
}

func TestHierarchyPrefetch(t *testing.T) {
	h := newHierMachine(t, hierOp{isa.Prefetch, 0}, hierOp{isa.LdX, 0})
	r := h.next()
	if r.Stall != 0 || r.ECRdMiss || r.DCRdMiss {
		t.Errorf("prefetch result %+v", r)
	}
	if !h.m.DC.Contains(hierBase) || !h.m.EC.Contains(hierBase) {
		t.Error("prefetch did not fill both levels")
	}
	if h.m.Stats().ECStallCycles != 0 {
		t.Error("prefetch accumulated stall")
	}
	// Demand load after prefetch hits.
	r = h.next()
	if r.DCRdMiss || r.ECRef || r.Stall != 0 {
		t.Errorf("load after prefetch: %+v", r)
	}
}
