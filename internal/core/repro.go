package core

import (
	"fmt"
	"io"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
	"dsprof/internal/mcf"
	"dsprof/internal/tlb"
)

// repro.go is the paper-reproduction harness: it runs the MCF case study
// (§3) end to end and regenerates each figure of the evaluation. The
// study runs on a proportionally scaled system (see StudyMachine) with
// instance sizes chosen so the working-set:cache ratios match the
// paper's regime; EXPERIMENTS.md records paper-vs-measured values.

// StudyParams configure one MCF profiling study.
type StudyParams struct {
	Trips  int
	Seed   uint64
	Layout mcf.Layout
	// PageSizeHeap compiles with -xpagesize_heap (0 = default 8 KB).
	PageSizeHeap uint64
	// HWCProf disables -xhwcprof when false (overhead experiment).
	HWCProf bool
	Machine *machine.Config
}

// DefaultStudy returns the standard scaled study setup.
func DefaultStudy() StudyParams {
	return StudyParams{Trips: 1200, Seed: 20030717, Layout: mcf.LayoutPaper, HWCProf: true}
}

// StudyMachine is the scaled stand-in for the paper's 900 MHz
// UltraSPARC-III Cu (Sun Fire 280R): cache line sizes and associativities
// are the real machine's; capacities are scaled 1/16 so that the scaled
// MCF instances stress the hierarchy exactly as the full-size benchmark
// stressed the real 8 MB E$.
func StudyMachine() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.DCache.SizeBytes = 4 << 10   // 64 KB / 16
	cfg.ECache.SizeBytes = 512 << 10 // 8 MB / 16
	cfg.TLB = tlb.Config{Entries: 128, Assoc: 2}
	cfg.MaxInstrs = 20_000_000_000
	return cfg
}

// MachineByName maps a machine selector to its configuration: "study"
// (or empty) is StudyMachine, "scaled" and "default" are the machine
// package's configurations of those names. It is the one lookup every
// surface that takes a machine name (profd jobs and advise jobs,
// dsadvise loop) goes through.
func MachineByName(name string) (machine.Config, error) {
	switch name {
	case "", "study":
		return StudyMachine(), nil
	case "scaled":
		return machine.ScaledConfig(), nil
	case "default":
		return machine.DefaultConfig(), nil
	}
	return machine.Config{}, fmt.Errorf("unknown machine %q (want study, scaled or default)", name)
}

// Study is a completed MCF profiling study: the merged analyzer plus the
// raw run results.
type Study struct {
	Params   StudyParams
	Analyzer *analyzer.Analyzer
	Output   *mcf.Output
	Cycles   uint64
	Seconds  float64
}

// RunStudy compiles MCF with the requested layout/flags, generates the
// instance, runs the paper's two profiled experiments and merges them.
func RunStudy(p StudyParams) (*Study, error) {
	if p.Trips == 0 {
		p = DefaultStudy()
	}
	prog, err := mcf.Program(p.Layout, cc.Options{
		HWCProf:      p.HWCProf,
		PageSizeHeap: p.PageSizeHeap,
	})
	if err != nil {
		return nil, err
	}
	ins := mcf.Generate(mcf.DefaultGenParams(p.Trips, p.Seed))
	cfg := StudyMachine()
	if p.Machine != nil {
		cfg = *p.Machine
	}
	a, resA, _, err := ProfilePaperStyle(prog, ins.Encode(), &cfg, PaperIntervals{})
	if err != nil {
		return nil, err
	}
	out, err := mcf.ParseOutput(resA.Machine.OutputLongs())
	if err != nil {
		return nil, err
	}
	if out.Status != 0 {
		return nil, fmt.Errorf("mcf run failed with status %d", out.Status)
	}
	st := resA.Machine.Stats()
	return &Study{
		Params:   p,
		Analyzer: a,
		Output:   out,
		Cycles:   st.Cycles,
		Seconds:  resA.Machine.Seconds(st.Cycles),
	}, nil
}

// TimeMCF runs MCF once without profiling and returns simulated cycles —
// the measurement behind the §3.3 speedup and §2.1 overhead experiments.
func TimeMCF(p StudyParams) (uint64, *mcf.Output, error) {
	prog, err := mcf.Program(p.Layout, cc.Options{
		HWCProf:      p.HWCProf,
		PageSizeHeap: p.PageSizeHeap,
	})
	if err != nil {
		return 0, nil, err
	}
	ins := mcf.Generate(mcf.DefaultGenParams(p.Trips, p.Seed))
	cfg := StudyMachine()
	if p.Machine != nil {
		cfg = *p.Machine
	}
	m, err := RunOnce(prog, ins.Encode(), &cfg)
	if err != nil {
		return 0, nil, err
	}
	out, err := mcf.ParseOutput(m.OutputLongs())
	if err != nil {
		return 0, nil, err
	}
	if out.Status != 0 {
		return 0, nil, fmt.Errorf("mcf run failed with status %d", out.Status)
	}
	return m.Stats().Cycles, out, nil
}

// --- figure renderers ---

// Figure1 renders the <Total> metrics (paper Figure 1).
func (s *Study) Figure1(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: performance metrics for <Total>  (trips=%d, layout=%v)\n\n",
		s.Params.Trips, s.Params.Layout)
	s.Analyzer.TotalReport(w)
}

// Figure2 renders the function list (paper Figure 2).
func (s *Study) Figure2(w io.Writer) {
	fmt.Fprintf(w, "Figure 2: the function list\n\n")
	s.Analyzer.FunctionList(w, analyzer.ByUserCPU)
}

// Figure3 renders the annotated source of refresh_potential's critical
// loop (paper Figure 3).
func (s *Study) Figure3(w io.Writer) error {
	fmt.Fprintf(w, "Figure 3: annotated source of refresh_potential\n\n")
	return s.Analyzer.AnnotatedSource(w, "refresh_potential")
}

// Figure4 renders the annotated disassembly of refresh_potential (paper
// Figure 4).
func (s *Study) Figure4(w io.Writer) error {
	fmt.Fprintf(w, "Figure 4: annotated disassembly of refresh_potential\n\n")
	return s.Analyzer.AnnotatedDisasm(w, "refresh_potential")
}

// Figure5 renders the top PCs ranked by E$ read misses (paper Figure 5).
func (s *Study) Figure5(w io.Writer, n int) {
	fmt.Fprintf(w, "Figure 5: PCs ranked by E$ Read Misses\n\n")
	s.Analyzer.PCList(w, analyzer.ByEvent(hwc.EvECRdMiss), n)
}

// Figure6 renders the data objects ranked by E$ stall cycles (paper
// Figure 6), plus the backtracking-effectiveness summary the paper
// derives from it.
func (s *Study) Figure6(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: data objects ranked by E$ Stall Cycles\n\n")
	s.Analyzer.DataObjectList(w, analyzer.ByEvent(hwc.EvECStall))
	fmt.Fprintf(w, "\n")
	s.Analyzer.EffectivenessReport(w)
}

// Figure7 renders the structure:node member expansion (paper Figure 7)
// and the split-object statistic discussed with it.
func (s *Study) Figure7(w io.Writer) error {
	fmt.Fprintf(w, "Figure 7: data object structure:node expansion\n\n")
	if err := s.Analyzer.MemberList(w, "node"); err != nil {
		return err
	}
	st, err := s.Analyzer.SplitObjects("node")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d-byte node objects split across %d-byte E$ lines: %d of %d (%.0f%%)\n",
		st.Size, st.LineBytes, st.Split, st.Total, 100*st.Fraction())
	return nil
}

// FunctionShare returns a function's share (0..1) of the given metric,
// for shape assertions in tests and EXPERIMENTS.md.
func (s *Study) FunctionShare(fn string, ev hwc.Event, clock bool) float64 {
	rows := s.Analyzer.Functions(analyzer.ByUserCPU)
	var total, val float64
	for _, r := range rows {
		if r.Name == "<Total>" {
			if clock {
				total = float64(r.M.Ticks)
			} else {
				total = float64(r.M.Events[ev])
			}
		}
		if r.Name == fn {
			if clock {
				val = float64(r.M.Ticks)
			} else {
				val = float64(r.M.Events[ev])
			}
		}
	}
	if total == 0 {
		return 0
	}
	return val / total
}

// ObjectShare returns a struct type's share (0..1) of the given metric
// across all data objects.
func (s *Study) ObjectShare(structName string, ev hwc.Event) float64 {
	id, ty := s.Analyzer.Tab.TypeByName(structName)
	if ty == nil {
		return 0
	}
	m := s.Analyzer.ObjMetrics(id)
	total := s.Analyzer.Total()
	if total.Events[ev] == 0 {
		return 0
	}
	return float64(m.Events[ev]) / float64(total.Events[ev])
}
