package machine

import (
	"dsprof/internal/hwc"
	"dsprof/internal/isa"
	"dsprof/internal/tlb"
)

// Base pipeline cost of each opcode, in cycles, before memory stalls.
// Fused into the predecoded text at load time.
var baseCost = func() [isa.NumOps]uint8 {
	var c [isa.NumOps]uint8
	for op := isa.Op(0); op < isa.NumOps; op++ {
		switch {
		case op.IsLoad():
			c[op] = 2
		case op == isa.Mul:
			c[op] = 6
		case op == isa.Div || op == isa.Rem:
			c[op] = 40
		default:
			c[op] = 1
		}
	}
	return c
}()

// maxBaseCost is the largest per-opcode base cost, for the event-horizon
// bound on cycle-counting overflow.
var maxBaseCost = func() uint64 {
	var m uint8
	for _, c := range baseCost {
		if c > m {
			m = c
		}
	}
	return uint64(m)
}()

// batchTarget caps one fast inner-loop batch. It only bounds how much
// work runs between horizon recomputations; correctness never depends on
// it.
const batchTarget = 1 << 20

// Run executes instructions until the program halts or a trap occurs.
//
// Run takes the fast path: between observable events (pending overflow
// delivery, clock ticks, armed-counter overflows, the instruction
// budget) it executes a tight inner loop with no per-instruction checks,
// accumulating instruction and cycle counts locally and flushing them at
// the event horizon. The produced execution — every counter overflow,
// its skid draw, every delivered event and clock tick — is identical to
// driving the machine with Step.
func (m *Machine) Run() error {
	for !m.halted {
		if _, err := m.runBatch(batchTarget); err != nil {
			return err
		}
	}
	return nil
}

// RunFor executes at most budget instructions on the fast path, stopping
// early on halt or trap. Drivers that interleave work with execution
// (context cancellation checks, schedulers) call it in a loop instead of
// stepping instruction by instruction.
func (m *Machine) RunFor(budget uint64) error {
	for budget > 0 && !m.halted {
		n, err := m.runBatch(budget)
		if err != nil {
			return err
		}
		budget -= n
	}
	return nil
}

// runBatch executes up to limit instructions: one horizon computation
// followed by a fast inner loop, or a single reference Step when an
// observable event is due. It returns how many instructions were
// retired (counting a trapping instruction).
func (m *Machine) runBatch(limit uint64) (uint64, error) {
	// Anything due now is delivered by the reference stepper so skid
	// aging, tick delivery and budget traps happen exactly as when the
	// machine is stepped instruction by instruction.
	if len(m.pending) > 0 || (m.ClockTickCycles > 0 && m.stats.Cycles >= m.nextTick) {
		return 1, m.Step()
	}
	maxN := limit
	if m.Cfg.MaxInstrs > 0 {
		if m.stats.Instrs >= m.Cfg.MaxInstrs {
			return 1, m.Step() // next step raises the budget trap
		}
		if rem := m.Cfg.MaxInstrs - m.stats.Instrs; rem < maxN {
			maxN = rem
		}
	}
	// Horizon of an armed instruction counter: Remaining()-1 instructions
	// are overflow-free, so the overflowing instruction is counted by a
	// single-instruction Step and the trigger attribution is exact.
	if mask := m.armed[hwc.EvInstrs]; mask != 0 {
		r := m.counters[picOf(mask)].Remaining()
		if r <= 1 {
			return 1, m.Step()
		}
		if r-1 < maxN {
			maxN = r - 1
		}
	}
	// Cycle horizon: the inner loop stops before the machine cycle count
	// reaches stop. Ticks may overshoot by one instruction's cost (the
	// reference stepper fires them at the top of the next step); an armed
	// cycle counter may not, so its bound backs off by the worst-case
	// non-syscall instruction cost and syscalls break the loop.
	stop := ^uint64(0)
	if m.ClockTickCycles > 0 {
		stop = m.nextTick
	}
	breakOnSyscall := false
	if mask := m.armed[hwc.EvCycles]; mask != 0 {
		r := m.counters[picOf(mask)].Remaining()
		if r <= m.maxInstrCost {
			return 1, m.Step()
		}
		if s := m.stats.Cycles + r - m.maxInstrCost; s < stop {
			stop = s
		}
		breakOnSyscall = true
	}
	if m.backend == BackendTranslated {
		// Translated blocks count per-access events — D$/E$ misses, E$
		// references and stall cycles, DTLB misses — exactly, at the access
		// that raises them, and end the stretch right after any access
		// whose event overflows a counter, so those events need no horizon.
		// I$ misses are the exception: their fetch probes ride on ALU ops
		// that have no exit point, so an armed I$ counter bounds the
		// instruction horizon instead (at most one miss per instruction;
		// Headroom reserves one extra for a bailing instruction's probe).
		if mask := m.armed[hwc.EvICMiss]; mask != 0 {
			n, ok := m.counters[picOf(mask)].Headroom(1)
			if !ok {
				return 1, m.Step()
			}
			if n < maxN {
				maxN = n
			}
		}
		n, err := m.runMixed(maxN, stop, breakOnSyscall)
		if n == 0 && err == nil && !m.halted {
			// The batch gave way immediately (syscall under a cycle-counter
			// horizon): retire one instruction on the reference path.
			return 1, m.Step()
		}
		return n, err
	}
	n, err := m.runInner(maxN, stop, breakOnSyscall)
	if n == 0 && err == nil && !m.halted {
		// The loop gave way immediately (syscall under a cycle-counter
		// horizon): retire one instruction on the reference path.
		return 1, m.Step()
	}
	return n, err
}

// picOf maps a one-bit armed mask to its PIC number.
func picOf(mask uint8) int {
	if mask&1 != 0 {
		return 0
	}
	return 1
}

// runInner is the fast inner loop: no pending, tick, or budget checks
// per instruction, just bounds established by the caller's horizon.
// Instruction and cycle event counts accumulate locally and flush in one
// Add at the boundary (the horizon guarantees the flush cannot overflow,
// so no skid draw is reordered). Memory, I$, and TLB events still count
// at their exact instruction through the armed-mask path, so their
// overflows — which break the loop via the pending check — land with
// exact trigger attribution and in reference order.
// The dispatch below duplicates exec1's per-class semantics with the hot
// architectural state — PC, NPC, cycle count, current fetch line — held in
// locals, saving a call and a machine-state round trip per instruction.
// Any change to exec1 must be mirrored here; TestFastPathEquivalence and
// TestFastPathGolden hold the two interpreters to byte-identical runs.
// The only inner-loop callee that observes state the locals shadow is
// doSyscall (trap PCs, the cycle-count service), so the syscall case
// flushes before the call.
func (m *Machine) runInner(maxN, stop uint64, breakOnSyscall bool) (uint64, error) {
	var (
		n      uint64
		lastPC uint64
		retErr error
	)
	pc, npc := m.PC, m.NPC
	cycles := m.stats.Cycles
	startCycles := cycles
	fetchLine := m.lastFetchLine
loop:
	for n < maxN && cycles < stop && len(m.pending) == 0 && !m.halted {
		off := pc - TextBase
		if off >= m.textSize || pc%isa.InstrBytes != 0 {
			retErr = &Trap{Kind: TrapBadPC, PC: pc}
			break
		}
		d := &m.dec[off/isa.InstrBytes]
		if breakOnSyscall && d.Class == isa.ClSyscall {
			break
		}
		cost := uint64(d.Cost)

		// Instruction fetch: probe the I$ only when leaving the current
		// fetch line (sequential fetches within a line are free).
		if line := pc >> m.icLineShift; line != fetchLine {
			fetchLine = line
			if hit, _ := m.IC.AccessFull(pc, false, true); !hit {
				cost += m.icMiss(pc)
			}
		}
		nextNPC := npc + isa.InstrBytes

		switch d.Class {
		case isa.ClNop:
			// nothing
		case isa.ClLdB, isa.ClLdUB, isa.ClLdW, isa.ClLdX,
			isa.ClStB, isa.ClStW, isa.ClStX, isa.ClPrefetch:
			addr := uint64(m.Regs[d.Rs1] + m.src2(d))
			extra, err := m.memOp(d, pc, addr)
			if err != nil {
				m.stats.Instrs++ // the trapping instruction still issued
				retErr = err
				break loop
			}
			cost += extra
		case isa.ClAdd:
			m.wreg(d.Rd, m.Regs[d.Rs1]+m.src2(d))
		case isa.ClSub:
			m.wreg(d.Rd, m.Regs[d.Rs1]-m.src2(d))
		case isa.ClMul:
			m.wreg(d.Rd, m.Regs[d.Rs1]*m.src2(d))
		case isa.ClDiv:
			b := m.src2(d)
			if b == 0 {
				m.wreg(d.Rd, 0)
				m.stats.Instrs++
				retErr = &Trap{Kind: TrapDivZero, PC: pc}
				break loop
			}
			m.wreg(d.Rd, m.Regs[d.Rs1]/b)
		case isa.ClRem:
			b := m.src2(d)
			if b == 0 {
				m.wreg(d.Rd, 0)
				m.stats.Instrs++
				retErr = &Trap{Kind: TrapDivZero, PC: pc}
				break loop
			}
			m.wreg(d.Rd, m.Regs[d.Rs1]%b)
		case isa.ClAnd:
			m.wreg(d.Rd, m.Regs[d.Rs1]&m.src2(d))
		case isa.ClOr:
			m.wreg(d.Rd, m.Regs[d.Rs1]|m.src2(d))
		case isa.ClXor:
			m.wreg(d.Rd, m.Regs[d.Rs1]^m.src2(d))
		case isa.ClSll:
			m.wreg(d.Rd, m.Regs[d.Rs1]<<(uint64(m.src2(d))&63))
		case isa.ClSrl:
			m.wreg(d.Rd, int64(uint64(m.Regs[d.Rs1])>>(uint64(m.src2(d))&63)))
		case isa.ClSra:
			m.wreg(d.Rd, m.Regs[d.Rs1]>>(uint64(m.src2(d))&63))
		case isa.ClMovImm:
			m.wreg(d.Rd, d.Imm) // sethi: immediate pre-shifted at decode
		case isa.ClSetHi:
			m.wreg(d.Rd, m.src2(d)<<isa.SetHiShift)
		case isa.ClCmp:
			m.setCC(m.Regs[d.Rs1], m.src2(d))
		case isa.ClBranch:
			if m.cond(d.Op) {
				nextNPC = uint64(d.Imm) // absolute target, precomputed
			}
		case isa.ClCall:
			m.Regs[isa.O7] = int64(pc)
			m.callstack = append(m.callstack, pc)
			nextNPC = uint64(d.Imm)
		case isa.ClJmpl:
			target := uint64(m.Regs[d.Rs1] + m.src2(d))
			m.wreg(d.Rd, int64(pc))
			if d.Flags&isa.DFlagRet != 0 && len(m.callstack) > 0 {
				m.callstack = m.callstack[:len(m.callstack)-1]
			}
			nextNPC = target
		case isa.ClSyscall:
			m.PC, m.stats.Cycles = pc, cycles
			res, extra, err := m.doSyscall(m.src2(d))
			if err != nil {
				m.stats.Instrs++
				retErr = err
				break loop
			}
			m.wreg(isa.O0, res)
			cost += extra
			m.stats.SyscallCycles += extra
		case isa.ClHalt:
			m.halted = true
		}

		cycles += cost
		n++
		lastPC = pc
		pc, npc = npc, nextNPC
	}
	m.PC, m.NPC = pc, npc
	m.stats.Cycles = cycles
	m.lastFetchLine = fetchLine
	m.stats.Instrs += n
	if n > 0 {
		m.count(hwc.EvInstrs, n, lastPC, 0, false)
		m.count(hwc.EvCycles, cycles-startCycles, lastPC, 0, false)
	}
	return n, retErr
}

// Step executes one instruction, with every per-instruction check: it is
// the reference interpreter the fast path must be indistinguishable
// from, and the API for callers that need instruction granularity.
func (m *Machine) Step() error {
	// Deliver profiling interrupts whose skid has elapsed: the delivered
	// PC is the next instruction to issue, i.e. the current PC.
	if len(m.pending) > 0 {
		m.deliverPending()
	}
	if m.ClockTickCycles > 0 && m.stats.Cycles >= m.nextTick {
		// One callback per elapsed tick period: a single long-running
		// instruction (a stalled syscall, say) that spans N periods
		// yields N ticks, keeping clock profiles in step with
		// stats.ClockTicks instead of undercounting.
		for m.stats.Cycles >= m.nextTick {
			m.nextTick += m.ClockTickCycles
			m.stats.ClockTicks++
			if m.OnClockTick != nil {
				m.tickScratch = ClockTick{PC: m.PC, Callstack: m.callstackScratch(), Cycles: m.stats.Cycles}
				m.OnClockTick(&m.tickScratch)
			}
		}
	}

	pc := m.PC
	off := pc - TextBase
	if off >= m.textSize || pc%isa.InstrBytes != 0 {
		return &Trap{Kind: TrapBadPC, PC: pc}
	}
	d := &m.dec[off/isa.InstrBytes]

	m.stats.Instrs++
	if m.Cfg.MaxInstrs > 0 && m.stats.Instrs > m.Cfg.MaxInstrs {
		return &Trap{Kind: TrapBudget, PC: pc}
	}

	cost, err := m.exec1(d, pc)
	if err != nil {
		return err
	}
	m.count(hwc.EvInstrs, 1, pc, 0, false)
	m.count(hwc.EvCycles, cost, pc, 0, false)
	return nil
}

// exec1 executes the predecoded instruction d at pc: instruction fetch,
// dispatch, cycle accounting and the PC/NPC advance. Both the reference
// stepper and the fast inner loop retire instructions through it, so the
// two paths cannot diverge on architectural state. On a trap the PC does
// not advance and no cycles are charged (matching the pre-decode
// stepper), though fetch side effects already taken (I$ state, the icm
// event) remain.
func (m *Machine) exec1(d *isa.Decoded, pc uint64) (uint64, error) {
	cost := uint64(d.Cost)

	// Instruction fetch: probe the I$ only when leaving the current
	// fetch line (sequential fetches within a line are free).
	if line := pc >> m.icLineShift; line != m.lastFetchLine {
		m.lastFetchLine = line
		if hit, _ := m.IC.AccessFull(pc, false, true); !hit {
			cost += m.icMiss(pc)
		}
	}
	nextNPC := m.NPC + isa.InstrBytes

	switch d.Class {
	case isa.ClNop:
		// nothing
	case isa.ClLdB, isa.ClLdUB, isa.ClLdW, isa.ClLdX,
		isa.ClStB, isa.ClStW, isa.ClStX, isa.ClPrefetch:
		addr := uint64(m.Regs[d.Rs1] + m.src2(d))
		extra, err := m.memOp(d, pc, addr)
		if err != nil {
			return 0, err
		}
		cost += extra
	case isa.ClAdd:
		m.wreg(d.Rd, m.Regs[d.Rs1]+m.src2(d))
	case isa.ClSub:
		m.wreg(d.Rd, m.Regs[d.Rs1]-m.src2(d))
	case isa.ClMul:
		m.wreg(d.Rd, m.Regs[d.Rs1]*m.src2(d))
	case isa.ClDiv:
		b := m.src2(d)
		if b == 0 {
			m.wreg(d.Rd, 0)
			return 0, &Trap{Kind: TrapDivZero, PC: pc}
		}
		m.wreg(d.Rd, m.Regs[d.Rs1]/b)
	case isa.ClRem:
		b := m.src2(d)
		if b == 0 {
			m.wreg(d.Rd, 0)
			return 0, &Trap{Kind: TrapDivZero, PC: pc}
		}
		m.wreg(d.Rd, m.Regs[d.Rs1]%b)
	case isa.ClAnd:
		m.wreg(d.Rd, m.Regs[d.Rs1]&m.src2(d))
	case isa.ClOr:
		m.wreg(d.Rd, m.Regs[d.Rs1]|m.src2(d))
	case isa.ClXor:
		m.wreg(d.Rd, m.Regs[d.Rs1]^m.src2(d))
	case isa.ClSll:
		m.wreg(d.Rd, m.Regs[d.Rs1]<<(uint64(m.src2(d))&63))
	case isa.ClSrl:
		m.wreg(d.Rd, int64(uint64(m.Regs[d.Rs1])>>(uint64(m.src2(d))&63)))
	case isa.ClSra:
		m.wreg(d.Rd, m.Regs[d.Rs1]>>(uint64(m.src2(d))&63))
	case isa.ClMovImm:
		m.wreg(d.Rd, d.Imm) // sethi: immediate pre-shifted at decode
	case isa.ClSetHi:
		m.wreg(d.Rd, m.src2(d)<<isa.SetHiShift)
	case isa.ClCmp:
		m.setCC(m.Regs[d.Rs1], m.src2(d))
	case isa.ClBranch:
		if m.cond(d.Op) {
			nextNPC = uint64(d.Imm) // absolute target, precomputed
		}
	case isa.ClCall:
		m.Regs[isa.O7] = int64(pc)
		m.callstack = append(m.callstack, pc)
		nextNPC = uint64(d.Imm)
	case isa.ClJmpl:
		target := uint64(m.Regs[d.Rs1] + m.src2(d))
		m.wreg(d.Rd, int64(pc))
		if d.Flags&isa.DFlagRet != 0 && len(m.callstack) > 0 {
			m.callstack = m.callstack[:len(m.callstack)-1]
		}
		nextNPC = target
	case isa.ClSyscall:
		res, extra, err := m.doSyscall(m.src2(d))
		if err != nil {
			return 0, err
		}
		m.wreg(isa.O0, res)
		cost += extra
		m.stats.SyscallCycles += extra
	case isa.ClHalt:
		m.halted = true
	}

	m.stats.Cycles += cost
	m.PC = m.NPC
	m.NPC = nextNPC
	return cost, nil
}

// src2 selects the second operand: the predecoded immediate or Rs2.
func (m *Machine) src2(d *isa.Decoded) int64 {
	if d.Flags&isa.DFlagImm != 0 {
		return d.Imm
	}
	return m.Regs[d.Rs2]
}

func (m *Machine) wreg(r isa.Reg, v int64) {
	if r != isa.G0 {
		m.Regs[r] = v
	}
}

func (m *Machine) setCC(a, b int64) {
	r := a - b
	m.ccZ = r == 0
	m.ccN = r < 0
	m.ccV = (a < 0) != (b < 0) && (r < 0) != (a < 0)
	m.ccC = uint64(a) < uint64(b)
}

func (m *Machine) cond(op isa.Op) bool {
	switch op {
	case isa.Ba:
		return true
	case isa.Be:
		return m.ccZ
	case isa.Bne:
		return !m.ccZ
	case isa.Bg:
		return !(m.ccZ || (m.ccN != m.ccV))
	case isa.Bge:
		return m.ccN == m.ccV
	case isa.Bl:
		return m.ccN != m.ccV
	case isa.Ble:
		return m.ccZ || (m.ccN != m.ccV)
	case isa.Bgu:
		return !(m.ccC || m.ccZ)
	case isa.Bgeu:
		return !m.ccC
	case isa.Blu:
		return m.ccC
	case isa.Bleu:
		return m.ccC || m.ccZ
	}
	return false
}

// icMiss charges an instruction-fetch miss at pc — the statistic and the
// icm event — and returns its stall. Every engine's fetch probe ends here
// on a miss. (Probes run only when the fetch line changes, so the I$ MRU
// memo can never hit and they call AccessFull directly.)
func (m *Machine) icMiss(pc uint64) uint64 {
	m.stats.ICMisses++
	m.count(hwc.EvICMiss, 1, pc, 0, false)
	return uint64(m.Cfg.ICMissStall)
}

// memOp performs the memory instruction d at effective address addr for
// Step and the interpreter: the trap checks, the shared access routine
// with the machine's scratch hint, then the architectural read or write.
// It returns the access's stall cycles.
func (m *Machine) memOp(d *isa.Decoded, pc, addr uint64) (uint64, error) {
	if d.Class != isa.ClPrefetch && addr&uint64(d.MemSize-1) != 0 {
		return 0, &Trap{Kind: TrapMisaligned, PC: pc, Addr: addr}
	}
	seg, pageSize := m.segment(addr)
	if seg == SegNone {
		if d.Class == isa.ClPrefetch {
			return 0, nil // prefetches never fault
		}
		return 0, &Trap{Kind: TrapSegv, PC: pc, Addr: addr}
	}
	stall := m.access(d.Class, pc, addr, pageSize, &m.hint, false)
	switch d.Class {
	case isa.ClLdB:
		m.wreg(d.Rd, int64(int8(m.Mem.Read8(addr))))
	case isa.ClLdUB:
		m.wreg(d.Rd, int64(m.Mem.Read8(addr)))
	case isa.ClLdW:
		m.wreg(d.Rd, int64(int32(m.Mem.Read32(addr))))
	case isa.ClLdX:
		m.wreg(d.Rd, int64(m.Mem.Read64(addr)))
	case isa.ClStB:
		m.Mem.Write8(addr, uint8(m.Regs[d.Rd]))
	case isa.ClStW:
		m.Mem.Write32(addr, uint32(m.Regs[d.Rd]))
	case isa.ClStX:
		m.Mem.Write64(addr, uint64(m.Regs[d.Rd]))
	}
	switch {
	case d.Class.IsLoad():
		m.stats.Loads++
	case d.Class.IsStore():
		m.stats.Stores++
	}
	return stall, nil
}

// siteHint remembers where an access site's previous access landed: the
// index of its D$ way, its E$ way and its DTLB entry. A hint is only ever
// checked by a tag compare (Cache.WayHit, TLB.EntryHit), so a stale or
// foreign one just falls back to the full lookup and cannot change any
// result. Translated memory ops keep one per site in their tinstr; Step
// and the interpreter share the machine's scratch hint. The 16-bit
// indices fit the tinstr's padding and cover caches of up to 65536 lines;
// a larger index wraps to another valid way, whose compare then fails.
type siteHint struct {
	dway, eway, tlb uint16
}

// access is the one memory-access routine: every engine calls it for a
// load, store or prefetch once its own trap checks have passed. It
// translates through the DTLB, probes the D$ and, on a D$ miss, applies
// the UltraSPARC-III write policy:
//   - D$ is write-through, no-write-allocate: store hits update the D$,
//     store misses install no D$ line.
//   - Stores that hit the D$ are absorbed by the write cache and make no
//     E$ reference; D$ misses of every kind reference the E$.
//   - E$ is write-back, write-allocate; a dirty victim adds WritebackStall.
//   - Prefetches fill both levels, never stall and count no read miss.
//
// Each step bumps its statistics and counts its events at pc and addr, in
// that order; this is the only code that decides which events an access
// raises and which Cfg.Costs stall it pays. It returns the stall cycles
// and refreshes h after every fallback lookup. The translated engine retires the common
// case — DTLB hit on its hint, then a D$ hit — inline, and passes dcMiss
// when that DTLB hit was followed by a D$ miss: the routine then resumes
// at the D$ miss (failed hint probes change no state).
func (m *Machine) access(cl isa.Class, pc, addr, pageSize uint64, h *siteHint, dcMiss bool) uint64 {
	var stall uint64
	write := cl.IsStore()
	if !dcMiss {
		pageBase := addr &^ (pageSize - 1)
		if !m.DTLB.EntryHit(int(h.tlb), pageBase) {
			if !m.DTLB.Lookup(pageBase, pageSize) {
				m.stats.DTLBMisses++
				stall = tlb.MissPenaltyCycles
				m.count(hwc.EvDTLBMiss, 1, pc, addr, true)
			}
			h.tlb = uint16(m.DTLB.LastIdx())
		}
		if m.DC.HitMRU(addr, write) || m.DC.WayHit(int(h.dway), addr, write) {
			return stall
		}
	}
	hit, _ := m.DC.AccessFull(addr, write, !write)
	h.dway = uint16(m.DC.LastWay())
	if hit {
		return stall
	}
	load := cl.IsLoad()
	if load {
		m.stats.DCRdMisses++
		m.count(hwc.EvDCRdMiss, 1, pc, addr, true)
	}
	m.stats.ECRefs++
	m.count(hwc.EvECRef, 1, pc, addr, true)
	ehit, wb := true, false
	if !m.EC.WayHit(int(h.eway), addr, write) {
		ehit, wb = m.EC.AccessFull(addr, write, true)
		h.eway = uint16(m.EC.LastWay())
	}
	if cl == isa.ClPrefetch {
		return stall
	}
	costs := &m.Cfg.Costs
	var ec int
	switch {
	case ehit && load:
		ec = costs.EHitStall
	case load:
		m.stats.ECRdMisses++
		m.count(hwc.EvECRdMiss, 1, pc, addr, true)
		ec = costs.MemStall
	case !ehit:
		ec = costs.StoreMissStall
	}
	if wb {
		ec += costs.WritebackStall
	}
	if ec > 0 {
		m.stats.ECStallCycles += uint64(ec)
		m.count(hwc.EvECStall, uint64(ec), pc, addr, true)
	}
	return stall + uint64(ec)
}

// count feeds n events into whichever PIC registers are armed for ev, and
// schedules overflow signal delivery with per-event skid. The armed-event
// mask makes the common case — no counter interested — a single load and
// branch instead of a scan of both registers.
func (m *Machine) count(ev hwc.Event, n uint64, trigPC, ea uint64, hasEA bool) {
	if mask := m.armed[ev]; mask != 0 {
		m.countArmed(mask, ev, n, trigPC, ea, hasEA)
	}
}

func (m *Machine) countArmed(mask uint8, ev hwc.Event, n uint64, trigPC, ea uint64, hasEA bool) {
	if mask&1 != 0 {
		m.countOn(0, ev, n, trigPC, ea, hasEA)
	}
	if mask&2 != 0 {
		m.countOn(1, ev, n, trigPC, ea, hasEA)
	}
}

func (m *Machine) countOn(pic int, ev hwc.Event, n uint64, trigPC, ea uint64, hasEA bool) {
	overflows := m.counters[pic].Add(n)
	for i := 0; i < overflows; i++ {
		m.pending = append(m.pending, pendingSig{
			remaining: m.skid.Instrs(ev),
			ev: OverflowEvent{
				PIC:       pic,
				Event:     ev,
				TruePC:    trigPC,
				TrueEA:    ea,
				TrueHasEA: hasEA,
			},
		})
	}
}

// deliverPending ages pending overflow signals and fires those whose skid
// has elapsed. Delivered state (PC, registers, callstack) is the live
// machine state at delivery time. The event and its callstack are
// machine-owned scratch, rewritten on every delivery (see OverflowEvent),
// which keeps delivery allocation-free.
func (m *Machine) deliverPending() {
	kept := m.pending[:0]
	for i := range m.pending {
		p := &m.pending[i]
		p.remaining--
		if p.remaining > 0 {
			kept = append(kept, *p)
			continue
		}
		if m.OnOverflow != nil {
			e := &m.evScratch
			*e = p.ev
			e.DeliveredPC = m.PC
			e.Regs = m.Regs
			e.Callstack = m.callstackScratch()
			e.Cycles = m.stats.Cycles
			m.OnOverflow(e)
		}
	}
	m.pending = kept
}

// callstackScratch snapshots the shadow call stack into a reusable
// buffer. The result is only valid until the next snapshot; event
// callbacks must copy it to retain it.
func (m *Machine) callstackScratch() []uint64 {
	m.csScratch = append(m.csScratch[:0], m.callstack...)
	return m.csScratch
}
