package analyzer

// affinity.go: per-member heat and co-access affinity aggregates, the
// raw material of the data-layout advisor (internal/advisor). The paper
// optimized MCF's node and arc structs by hand from per-member metrics
// (§3.3); these aggregates expose the same information in a form a
// program can act on — how hot each member is per byte of its storage,
// and which members of a struct are touched together.

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dsprof/internal/dwarf"
)

// MemberHeat is one struct member's attributed profile weight together
// with its storage geometry, for density (events per byte) analyses.
type MemberHeat struct {
	Index int // member index in declaration order
	Name  string
	Off   int64 // byte offset in the profiled layout
	Size  int64 // storage size in bytes
	M     Metrics
}

// Density returns the member's event weight per byte of storage for the
// given sort metric.
func (h *MemberHeat) Density(a *Analyzer, s SortBy) float64 {
	if h.Size <= 0 {
		return 0
	}
	return a.weight(&h.M, s) / float64(h.Size)
}

// MemberHeats returns one MemberHeat per member of the struct type, in
// declaration order. Members without attributed events appear with zero
// metrics, so callers see the full layout.
func (a *Analyzer) MemberHeats(t dwarf.TypeID) ([]MemberHeat, error) {
	ty := a.Tab.TypeByID(t)
	if ty == nil || ty.Kind != dwarf.KindStruct {
		return nil, fmt.Errorf("analyzer: type %d is not a struct", t)
	}
	out := make([]MemberHeat, len(ty.Members))
	for i, m := range ty.Members {
		out[i] = MemberHeat{Index: i, Name: m.Name, Off: m.Off, Size: a.Tab.MemberSize(t, i)}
		if mm := a.byMember[memberKey{t, int32(i)}]; mm != nil {
			out[i].M = *mm
		}
	}
	return out, nil
}

// AffinityMatrix counts co-accesses between members of one struct type:
// Counts[i][j] accumulates weight whenever events attributed to members
// i and j fall inside the same sliding window of memory events and touch
// the same object instance (weight 2) or the same E$ cache line (weight
// 1). The matrix is symmetric with a zero diagonal.
type AffinityMatrix struct {
	Type   dwarf.TypeID
	Window int
	Counts [][]uint64
}

// Pair returns the co-access weight of members i and j.
func (am *AffinityMatrix) Pair(i, j int) uint64 {
	if i < 0 || j < 0 || i >= len(am.Counts) || j >= len(am.Counts) {
		return 0
	}
	return am.Counts[i][j]
}

// MemberAffinity returns the co-access affinity matrix for the struct
// type over every EA-carrying event, using a sliding window of the last
// `window` such events (default 16 when window <= 0). Events from all
// merged experiments are ordered by machine cycle time: the simulated
// runs are deterministic, so the timelines of the paper's experiment A
// and B line up and windows interleave both counter streams.
//
// The analyzer's aggregates never change once it is built, so the
// matrix is computed once per (type, window) and memoized: every caller
// — the "advice" and "pool-advice" reports, concurrent renders over one
// cached analyzer — shares the same *AffinityMatrix. It is read-only;
// callers must not modify Counts.
func (a *Analyzer) MemberAffinity(t dwarf.TypeID, window int) (*AffinityMatrix, error) {
	ty := a.Tab.TypeByID(t)
	if ty == nil || ty.Kind != dwarf.KindStruct {
		return nil, fmt.Errorf("analyzer: type %d is not a struct", t)
	}
	if window <= 0 {
		window = 16
	}
	key := affinityKey{t, window}
	a.affMu.Lock()
	memo := a.aff[key]
	if memo == nil {
		if a.aff == nil {
			a.aff = make(map[affinityKey]*affinityMemo)
		}
		memo = &affinityMemo{}
		a.aff[key] = memo
	}
	a.affMu.Unlock()
	memo.once.Do(func() { memo.am = a.memberAffinity(ty, t, window) })
	return memo.am, nil
}

// affinityKey identifies one memoized affinity matrix.
type affinityKey struct {
	typ    dwarf.TypeID
	window int
}

// affinityMemo computes its matrix exactly once, on first request.
type affinityMemo struct {
	once sync.Once
	am   *AffinityMatrix
}

// memberAffinity builds the matrix for MemberAffinity.
func (a *Analyzer) memberAffinity(ty *dwarf.Type, t dwarf.TypeID, window int) *AffinityMatrix {
	n := len(ty.Members)
	am := &AffinityMatrix{Type: t, Window: window, Counts: make([][]uint64, n)}
	for i := range am.Counts {
		am.Counts[i] = make([]uint64, n)
	}

	// The struct's EA events, in machine time.
	type mev struct {
		cycles uint64
		member int32
		line   uint64
		inst   int64 // packed (alloc seq, element index); -1 if outside the heap
	}
	line := uint64(a.Exps[0].Meta.ECacheLine)
	if line == 0 {
		line = 512
	}
	allocs := a.Exps[0].Allocs
	ours := func(ae *AEvent) bool {
		return ae.Obj.Kind == OKStruct && ae.Obj.Type == t && ae.Member >= 0 && int(ae.Member) < n
	}
	count := 0
	for i := range a.eaEvents {
		if ours(&a.eaEvents[i]) {
			count++
		}
	}
	evs := make([]mev, 0, count)
	for i := range a.eaEvents {
		ae := &a.eaEvents[i]
		if !ours(ae) {
			continue
		}
		e := mev{cycles: ae.Cycles, member: ae.Member, line: ae.EA &^ (line - 1), inst: -1}
		if ai := findAlloc(allocs, ae.EA); ai >= 0 && ty.Size > 0 {
			idx := int64(ae.EA-allocs[ai].Addr) / ty.Size
			e.inst = int64(allocs[ai].Seq)<<32 | idx
		}
		evs = append(evs, e)
	}
	// Total order, not just by cycles: two experiments can record
	// events at the same machine cycle, and a stable sort alone would
	// leave such ties in experiment-argument order, making the matrix
	// depend on which experiment is listed first. Breaking ties on the
	// event's own fields makes the merged timeline — and therefore the
	// matrix — independent of argument order.
	slices.SortStableFunc(evs, func(a, b mev) int {
		if c := cmp.Compare(a.cycles, b.cycles); c != 0 {
			return c
		}
		if c := cmp.Compare(a.member, b.member); c != 0 {
			return c
		}
		if c := cmp.Compare(a.line, b.line); c != 0 {
			return c
		}
		return cmp.Compare(a.inst, b.inst)
	})

	for i, e := range evs {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		for _, p := range evs[lo:i] {
			if p.member == e.member {
				continue
			}
			var w uint64
			switch {
			case p.inst >= 0 && p.inst == e.inst:
				w = 2
			case p.line == e.line:
				w = 1
			default:
				continue
			}
			am.Counts[e.member][p.member] += w
			am.Counts[p.member][e.member] += w
		}
	}
	return am
}
