//go:build !race

// The race detector instruments allocations, so these budgets only hold
// in a non-race build.

package machine

import (
	"testing"

	"dsprof/internal/asm"
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
)

// denseLoop emits an endless loop of strided loads over a 64 KB heap
// block: with ecref armed at a tiny interval nearly every iteration
// overflows a counter.
func denseLoop(b *asm.Builder) {
	b.Emit(movImm(isa.O0, 1))
	b.Emit(isa.Instr{Op: isa.Sll, Rd: isa.O0, Rs1: isa.O0, UseImm: true, Imm: 16}) // 64 KB
	b.Emit(isa.Instr{Op: isa.Syscall, UseImm: true, Imm: SysMalloc})
	b.Emit(isa.Instr{Op: isa.Or, Rd: isa.L0, Rs1: isa.G0, Rs2: isa.O0})
	b.Emit(movImm(isa.L1, 0))
	b.Label("loop")
	b.Emit(isa.Instr{Op: isa.LdX, Rd: isa.O2, Rs1: isa.L0, Rs2: isa.L1})
	b.Emit(isa.Instr{Op: isa.Add, Rd: isa.L1, Rs1: isa.L1, UseImm: true, Imm: 64})
	b.Emit(isa.Instr{Op: isa.And, Rd: isa.L1, Rs1: isa.L1, UseImm: true, Imm: 0xffff})
	b.EmitBranch(isa.Ba, "loop")
	b.Emit(isa.Instr{Op: isa.Nop})
}

// TestOverflowDeliveryAllocs pins the delivery contract's point: with
// both counters armed densely and clock ticks on, running the machine
// delivers thousands of events and ticks without a single allocation.
func TestOverflowDeliveryAllocs(t *testing.T) {
	m := build(t, DefaultConfig(), denseLoop)
	if err := m.ArmCounter(0, hwc.EvECRef, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.ArmCounter(1, hwc.EvInstrs, 7); err != nil {
		t.Fatal(err)
	}
	m.ClockTickCycles = 97
	var events, ticks int
	m.OnOverflow = func(*OverflowEvent) { events++ }
	m.OnClockTick = func(*ClockTick) { ticks++ }
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.RunFor(20_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RunFor allocated %v times per run, want 0", allocs)
	}
	if per := events / 21; per < 1000 {
		t.Errorf("%d events per run, want a dense-armed loop (>= 1000)", per)
	}
	if ticks == 0 {
		t.Error("no clock ticks delivered")
	}
}
