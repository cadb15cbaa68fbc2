// Package workload is the table of bundled workloads. An entry says
// everything the profiling stack needs to know about one program: its
// struct layouts and their sources, how to generate a seeded input of
// a given size, the overflow intervals that suit that size, how to
// check a run's output, and the Go reference model behind it. The
// advisor loop (internal/core), the profiling service (internal/profd),
// dsadvise and dsgen all read this table, so adding a workload means
// adding its own package and one entry here.
package workload

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"dsprof/internal/cc"
	"dsprof/internal/mcf"
	"dsprof/internal/nbody"
)

// DefaultSeed is the instance seed used when none is given.
const DefaultSeed = 20030717

// Workload describes one bundled program.
type Workload struct {
	Name string
	// SizeUnit names what an instance size counts ("trips", "papers").
	SizeUnit string
	// Layouts are the struct layouts the program compiles with; the
	// first is the default.
	Layouts []Layout
	// DefaultSize is the instance size used when none is given; MaxSize
	// bounds the sizes a caller may ask for.
	DefaultSize, MaxSize int
	// Generate builds the seeded input vector of an instance.
	Generate func(size int, seed uint64) []int64
	// Intervals picks the baseline overflow intervals for a size.
	Intervals func(size int) Intervals
	// CheckOutput parses a run's output vector and fails unless the run
	// reports status 0.
	CheckOutput func(out []int64) error
	// Model runs the Go reference model on an instance and writes its
	// result to w, failing when the model rejects the instance.
	Model func(w io.Writer, size int, seed uint64) error
}

// Layout is one compile-time struct layout of a workload.
type Layout struct {
	Name    string
	Program string // the compiled program's name, e.g. "mcf-paper"
	Sources func() []cc.Source
}

// MCF is the paper's case study: network simplex over a single-depot
// vehicle-scheduling instance, in SPEC's layout or the §3.3 one.
var MCF = &Workload{
	Name:     "mcf",
	SizeUnit: "trips",
	Layouts: []Layout{
		mcfLayout(mcf.LayoutPaper),
		mcfLayout(mcf.LayoutOptimized),
	},
	DefaultSize: 1200,
	MaxSize:     20000,
	Generate: func(trips int, seed uint64) []int64 {
		return mcf.Generate(mcf.DefaultGenParams(trips, seed)).Encode()
	},
	// Paper-scale instances use the paper's intervals; smoke-scale ones
	// use proportionally smaller primes so even a trips≈100 run yields
	// enough events to rank members.
	Intervals: func(trips int) Intervals {
		if trips >= 600 {
			return Intervals{}
		}
		return Intervals{ECStall: 20011, ECRdMiss: 1009, ECRef: 4001, DTLBMiss: 503}
	},
	CheckOutput: func(out []int64) error {
		o, err := mcf.ParseOutput(out)
		if err != nil {
			return err
		}
		return status("mcf", o.Status)
	},
	// The native network simplex and successive shortest paths must
	// reach the same optimum.
	Model: func(w io.Writer, trips int, seed uint64) error {
		ins := mcf.Generate(mcf.DefaultGenParams(trips, seed))
		ns, stats, err := mcf.SolveNetSimplex(ins)
		if err != nil {
			return fmt.Errorf("netsimplex: %w", err)
		}
		ssp, err := mcf.SolveSSP(ins)
		if err != nil {
			return fmt.Errorf("ssp: %w", err)
		}
		fmt.Fprintf(w, "trips=%d nodes=%d arcs=%d\n", trips, ins.N, len(ins.Arcs))
		fmt.Fprintf(w, "netsimplex optimum=%d (pivots=%d)\n", ns, stats.Pivots)
		fmt.Fprintf(w, "ssp        optimum=%d\n", ssp)
		if ns != ssp {
			return errors.New("SOLVERS DISAGREE")
		}
		return nil
	},
}

// NBody is the paperscape-style force-layout kernel over a seeded
// citation graph, with natural or hand-packed links.
var NBody = &Workload{
	Name:     "nbody",
	SizeUnit: "papers",
	Layouts: []Layout{
		nbodyLayout(nbody.VariantBaseline),
		nbodyLayout(nbody.VariantCompressed),
	},
	DefaultSize: 2000,
	MaxSize:     20000,
	Generate: func(papers int, seed uint64) []int64 {
		return nbody.Generate(nbody.DefaultGenParams(papers, seed)).Encode()
	},
	// The kernel is an order of magnitude shorter than a scaled MCF
	// run, so sub-paper instances use proportionally smaller primes.
	Intervals: func(papers int) Intervals {
		if papers >= 10000 {
			return Intervals{}
		}
		return Intervals{ECStall: 2003, ECRdMiss: 251, ECRef: 1009, DTLBMiss: 127, ClockTick: 90001}
	},
	CheckOutput: func(out []int64) error {
		o, err := nbody.ParseOutput(out)
		if err != nil {
			return err
		}
		return status("nbody", o.Status)
	},
	Model: func(w io.Writer, papers int, seed uint64) error {
		ins := nbody.Generate(nbody.DefaultGenParams(papers, seed))
		o := nbody.Simulate(ins)
		fmt.Fprintf(w, "papers=%d links=%d coarse=%d fine=%d\n",
			ins.N, len(ins.Links), ins.CoarseIters, ins.FineIters)
		fmt.Fprintf(w, "output=%v\n", o.Longs())
		return status("nbody model", o.Status)
	},
}

var table = []*Workload{MCF, NBody}

func mcfLayout(l mcf.Layout) Layout {
	return Layout{Name: l.String(), Program: "mcf-" + l.String(), Sources: func() []cc.Source {
		return []cc.Source{{Name: "mcf.mc", Text: mcf.Source(l)}}
	}}
}

func nbodyLayout(v nbody.Variant) Layout {
	return Layout{Name: v.String(), Program: "nbody-" + v.String(), Sources: func() []cc.Source {
		return nbody.Source(v)
	}}
}

func status(what string, st int64) error {
	if st != 0 {
		return fmt.Errorf("%s run failed with status %d", what, st)
	}
	return nil
}

// Names lists the registered workload names in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, w := range table {
		names[i] = w.Name
	}
	return names
}

// Lookup finds a workload by name.
func Lookup(name string) (*Workload, error) {
	for _, w := range table {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(Names(), " or "))
}

// Layout finds one of the workload's layouts by name; "" selects the
// default.
func (w *Workload) Layout(name string) (*Layout, error) {
	if name == "" {
		return &w.Layouts[0], nil
	}
	names := make([]string, len(w.Layouts))
	for i := range w.Layouts {
		if w.Layouts[i].Name == name {
			return &w.Layouts[i], nil
		}
		names[i] = w.Layouts[i].Name
	}
	return nil, fmt.Errorf("unknown %s layout %q (want %s)", w.Name, name, strings.Join(names, " or "))
}

// Spec selects one instance of a workload. Zero Layout, Size and Seed
// take the defaults: the first layout, DefaultSize and DefaultSeed.
type Spec struct {
	Workload *Workload
	Layout   string
	Size     int
	Seed     uint64
}

// Resolve checks the spec against its workload and returns it with
// every default filled in, together with the selected layout.
func (s Spec) Resolve() (Spec, *Layout, error) {
	w := s.Workload
	if w == nil {
		return s, nil, errors.New("no workload selected")
	}
	l, err := w.Layout(s.Layout)
	if err != nil {
		return s, nil, err
	}
	if s.Size < 0 || s.Size > w.MaxSize {
		return s, nil, fmt.Errorf("%s size %d out of range (want 1 to %d %s, or 0 for the default %d)",
			w.Name, s.Size, w.MaxSize, w.SizeUnit, w.DefaultSize)
	}
	s.Layout = l.Name
	if s.Size == 0 {
		s.Size = w.DefaultSize
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	return s, l, nil
}

// Intervals are the overflow intervals for the four counters of the
// paper's two-experiment study, plus the clock-profiling tick. Zero
// fields get defaults suited to scaled runs (prime intervals, like the
// paper).
type Intervals struct {
	ECStall  uint64
	ECRdMiss uint64
	ECRef    uint64
	DTLBMiss uint64
	// ClockTick is the clock-profiling interval in cycles; the default is
	// ~1 ms of the simulated clock (the paper's "high" rate), which gives
	// scaled runs enough samples for stable CPU-time shares.
	ClockTick uint64
}

// WithDefaults fills every zero field with its default.
func (p Intervals) WithDefaults() Intervals {
	if p.ECStall == 0 {
		p.ECStall = 100003
	}
	if p.ECRdMiss == 0 {
		p.ECRdMiss = 2003
	}
	if p.ECRef == 0 {
		p.ECRef = 10007
	}
	if p.DTLBMiss == 0 {
		p.DTLBMiss = 997
	}
	if p.ClockTick == 0 {
		p.ClockTick = 900007 // ~1 ms at 900 MHz, prime
	}
	return p
}
