//go:build !race

// The race detector instruments allocations, so this budget only holds
// in a non-race build.

package analyzer

import (
	"fmt"
	"testing"

	"dsprof/internal/dwarf"
	"dsprof/internal/hwc"
)

// TestAccumulateAllocs pins the reduction's per-event cost: once an
// event's PC, line, function and caller/callee keys exist in a partial,
// accumulating another event with the same callstack allocates nothing
// — for a 4-frame stack with one function recursing (so the inclusive
// dedupe is exercised) and for a stack too deep for a small inline set.
func TestAccumulateAllocs(t *testing.T) {
	const nfuncs = 16
	tab := dwarf.NewTable(dwarf.FormatDWARF)
	for i := 0; i < nfuncs; i++ {
		tab.AddFunc(dwarf.Func{Name: fmt.Sprintf("f%d", i), Start: pcAt(16 * i), End: pcAt(16*i + 16), File: "w.mc"})
	}
	site := func(fn int) uint64 { return pcAt(16*fn + 3) }
	leaf := site(nfuncs - 1)
	tab.Lines[leaf] = 7
	a := &Analyzer{Tab: tab}
	var m Metrics
	m.Events[hwc.EvECRdMiss] = 1

	deep := make([]uint64, 0, nfuncs-1)
	for fn := 0; fn < nfuncs-1; fn++ {
		deep = append(deep, site(fn))
	}
	for _, tc := range []struct {
		name      string
		callstack []uint64
		distinct  int
	}{
		{"4 frames, recursive", []uint64{site(0), site(1), site(2), site(2)}, 4},
		{"15 frames", deep, nfuncs},
	} {
		p := newPartial()
		p.accumulate(a, leaf, false, &m, tc.callstack)
		if allocs := testing.AllocsPerRun(100, func() {
			p.accumulate(a, leaf, false, &m, tc.callstack)
		}); allocs != 0 {
			t.Errorf("%s: accumulate allocated %v times per event, want 0", tc.name, allocs)
		}
		const events = 102 // the first call, AllocsPerRun's warm-up, 100 runs
		if len(p.byFuncIncl) != tc.distinct {
			t.Errorf("%s: %d inclusive buckets, want %d", tc.name, len(p.byFuncIncl), tc.distinct)
		}
		for name, mm := range p.byFuncIncl {
			if got := mm.Events[hwc.EvECRdMiss]; got != events {
				t.Errorf("%s: inclusive %s = %d, want %d (each function once per event)", tc.name, name, got, events)
			}
		}
	}
}
