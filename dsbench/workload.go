package main

// workload.go defines the three workloads. Each op runs one workload's
// whole path through the public entry points of every layer — generate,
// compile, collect, save, open, reduce, render and (n-body) advise —
// and checks what each step produced.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/machine"
	"dsprof/internal/mcf"
	"dsprof/internal/nbody"
	"dsprof/internal/objtrack"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare generates the seeded input and its reference solution
	// from the Go model, which every later op is checked against.
	prepare(seed uint64) error
	// op runs the workload's path once.
	op(env *opEnv) (*opResult, error)
	// engine is the execution engine the workload's collects are meant
	// to run on; the traced run warns when the profile disagrees.
	engine() string
}

var workloads = map[string]func() workload{
	// The paper's §3 study at the paper's sampling rates: the working
	// set misses E$, events are sparse, and collects run translated.
	"mcf-paper": func() workload {
		return &mcfWorkload{
			trips:    600,
			specA:    "+ecstall,100003,+ecrm,2003",
			specB:    "+ecref,10007,+dtlbm,997",
			reports:  []string{"total", "functions", "source=refresh_potential", "disasm=refresh_potential", "pcs", "objects", "members=node", "effect"},
			intended: "translated",
		}
	},
	// The closed advisor loop on the E$-resident n-body kernel: many
	// compiles and collects per op on the batched interpreter.
	"nbody-advise": func() workload { return &nbodyWorkload{papers: 2000} },
	// MCF with intervals about 1000× denser per instruction and
	// provenance on: short event horizons keep collects on the reference
	// stepper, and per-event layers (delivery, spool, shards, reduce,
	// object reports) carry real weight. At 200 trips the simulated work
	// varies across seeds less than half as much as at 100 (5% against
	// 13% quartile spread over median).
	"mcf-dense": func() workload {
		return &mcfWorkload{
			trips:      200,
			specA:      "+ecstall,211,+dcrm,29",
			specB:      "+ecref,53,+dtlbm,3",
			provenance: true,
			reports:    denseReports(),
			intended:   "step",
		}
	},
}

// denseReports is every registered report, with arguments that make
// each one render rows: MCF's hot function, its hot struct and, for the
// object timeline, the function that allocates the heap arrays.
func denseReports() []string {
	args := map[string]string{
		"source": "refresh_potential", "disasm": "refresh_potential",
		"callers": "refresh_potential", "members": "node", "obj-timeline": "read_min",
	}
	var out []string
	for _, name := range analyzer.ReportNames() {
		if arg, ok := args[name]; ok {
			name += "=" + arg
		}
		out = append(out, name)
	}
	return out
}

// clockTick is the clock-profiling interval of the MCF experiments A,
// core.PaperIntervals' default (~1 ms of simulated time).
const clockTick = 900007

// opEnv is what an op needs from the run that holds it.
type opEnv struct {
	tr      *tracer
	dir     string // scratch directory for the op's experiments
	workers int    // analyzer reduction workers
}

// opResult is what one op produced, for checking and for metrics.
type opResult struct {
	seconds float64 // wall-clock time of the op
	peakMiB float64 // host heap high-water during the op
	failure error   // first failed check, nil when the op was correct
	// checks run after the op's timer stops: they read back what the op
	// wrote, which is the benchmark's work, not the user's.
	checks []func() error
	// analysis is the op's result, held until the heap it retains is
	// measured: the analyzer and the experiments it reads.
	analysis    *analyzer.Analyzer
	retainedMiB float64

	stats    []machine.Stats // every collect of the op, in order
	digest   [sha256.Size]byte
	events   int // counter events delivered, every collect
	perPIC   [2]int
	collects int // every collect, advisor re-runs included
	compiles int // every compile, advisor re-runs included

	directStats []machine.Stats // collects the benchmark ran itself (the profiles)

	btEvents, btExact int     // backtracked events; those matching ground truth
	effNum, effDen    float64 // event-weighted backtracking effectiveness
	spoolBytes        int64
	shards            int
	provRecords       int
	joined, unjoined  int

	recs, accepted int
	adviceGain     float64

	// baseline is the profiled program, run unarmed for collect.dilation.
	baseline *runnable
}

// runnable is a program with its input and machine.
type runnable struct {
	prog  *asm.Program
	input []int64
	cfg   machine.Config
}

// fail records the first failed check.
func (r *opResult) fail(format string, args ...any) {
	if r.failure == nil {
		r.failure = fmt.Errorf(format, args...)
	}
}

// profile runs one spooled collect into dir, saves and reopens the
// experiment, and queues a check that scores the reopened events
// against the simulator's ground truth.
func (e *opEnv) profile(r *opResult, prog *asm.Program, input []int64, cfg *machine.Config,
	clock uint64, spec string, prov bool, dir string) (*experiment.Experiment, *collect.Result, error) {
	counters, err := collect.ParseCounterSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	var res *collect.Result
	err = e.tr.do("collect.Run", func() (err error) {
		res, err = collect.Run(prog, collect.Options{
			ClockProfile:        clock != 0,
			ClockIntervalCycles: clock,
			Counters:            counters,
			Machine:             cfg,
			Input:               input,
			SpoolDir:            dir,
			Provenance:          prov,
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if err := e.tr.do("experiment.Save", func() error { return res.Exp.Save(dir) }); err != nil {
		return nil, nil, err
	}
	var exp *experiment.Experiment
	err = e.tr.do("experiment.Open", func() (err error) {
		exp, err = experiment.Open(dir)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	r.countCollect(exp)
	r.directStats = append(r.directStats, exp.Meta.Stats)
	r.shards += len(exp.Shards(0)) + len(exp.Shards(1))
	r.provRecords += exp.ProvCount()
	r.baseline = &runnable{prog, input, *cfg}
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			r.spoolBytes += info.Size()
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	truth := res.Truth
	r.checks = append(r.checks, func() error { return r.attribution(exp, truth) })
	return exp, res, nil
}

// countCollect adds one collect's counts to the op.
func (r *opResult) countCollect(exp *experiment.Experiment) {
	r.collects++
	r.stats = append(r.stats, exp.Meta.Stats)
	for pic := range r.perPIC {
		n := exp.EventCount(pic)
		r.perPIC[pic] += n
		r.events += n
	}
}

// attribution pairs the reopened experiment's events, in collection
// order, with the ground truth the collector returned, and counts the
// backtracked events whose candidate PC — and effective address, when
// one was recovered — is the true one.
func (r *opResult) attribution(exp *experiment.Experiment, truth [2][]collect.Truth) error {
	var next [2]int
	err := exp.Events(func(ev experiment.HWCEvent) error {
		truths := truth[ev.PIC]
		i := next[ev.PIC]
		next[ev.PIC]++
		if i >= len(truths) {
			return fmt.Errorf("PIC %d: more spooled events than ground-truth records (%d)", ev.PIC, len(truths))
		}
		cs := exp.Meta.Counters[ev.PIC]
		if !cs.Backtrack || !cs.Event.MemoryRelated() {
			return nil
		}
		t := truths[i]
		r.btEvents++
		if ev.CandidatePC == t.TruePC && (!ev.HasEA || (t.HasEA && ev.EA == t.TrueEA)) {
			r.btExact++
		}
		return nil
	})
	if err != nil {
		return err
	}
	for pic, n := range next {
		if n != len(truth[pic]) {
			return fmt.Errorf("PIC %d: %d spooled events, %d ground-truth records", pic, n, len(truth[pic]))
		}
	}
	return nil
}

// reduce builds the analyzer over the op's experiments and accumulates
// its backtracking effectiveness, weighted by each event's count.
func (e *opEnv) reduce(r *opResult, exps ...*experiment.Experiment) (*analyzer.Analyzer, error) {
	var a *analyzer.Analyzer
	err := e.tr.do("analyzer.NewWithConfig", func() (err error) {
		a, err = analyzer.NewWithConfig(analyzer.Config{Workers: e.workers}, exps...)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, exp := range exps {
		for _, cs := range exp.Meta.Counters {
			if cs.Backtrack && cs.Event.MemoryRelated() {
				n := float64(a.Total().Events[cs.Event])
				r.effNum += a.Effectiveness(cs.Event) * n
				r.effDen += n
			}
		}
	}
	return a, nil
}

// render renders each report and folds its bytes into the op digest.
func (e *opEnv) render(r *opResult, a *analyzer.Analyzer, reports []string) error {
	h := sha256.New()
	err := e.tr.do("analyzer.Render", func() error {
		for _, rep := range reports {
			var buf bytes.Buffer
			err := e.tr.do("analyzer.Render:"+rep, func() error {
				return a.Render(&buf, rep, analyzer.RenderOpts{})
			})
			if err != nil {
				return fmt.Errorf("report %s: %w", rep, err)
			}
			if buf.Len() == 0 {
				return fmt.Errorf("report %s rendered nothing", rep)
			}
			writeDigest(h, rep, buf.Bytes())
		}
		return nil
	})
	copy(r.digest[:], h.Sum(nil))
	return err
}

func writeDigest(h hash.Hash, name string, b []byte) {
	fmt.Fprintf(h, "%s %d\n", name, len(b))
	h.Write(b)
}

// mcfWorkload profiles MCF with the paper's two experiments: A (clock
// plus specA) and B (specB), both spooled, saved, reopened and reduced
// together, then renders its reports.
type mcfWorkload struct {
	trips        int
	specA, specB string
	provenance   bool
	reports      []string
	intended     string

	seed    uint64
	refCost int64
}

func (w *mcfWorkload) engine() string { return w.intended }

func (w *mcfWorkload) prepare(seed uint64) error {
	cost, _, err := mcf.SolveNetSimplex(mcf.Generate(mcf.DefaultGenParams(w.trips, seed)))
	w.seed, w.refCost = seed, cost
	return err
}

func (w *mcfWorkload) op(env *opEnv) (*opResult, error) {
	r := &opResult{}
	var ins *mcf.Instance
	env.tr.do("mcf.Generate", func() error {
		ins = mcf.Generate(mcf.DefaultGenParams(w.trips, w.seed))
		return nil
	})
	input := ins.Encode()
	var prog *asm.Program
	err := env.tr.do("cc.Compile", func() (err error) {
		prog, err = cc.Compile([]cc.Source{{Name: "mcf.mc", Text: mcf.Source(mcf.LayoutPaper)}},
			cc.Options{Name: "mcf-paper", HWCProf: true})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.compiles++
	cfg := core.StudyMachine()
	var exps []*experiment.Experiment
	for i, spec := range []string{w.specA, w.specB} {
		clock := uint64(0)
		if i == 0 {
			clock = clockTick
		}
		exp, res, err := env.profile(r, prog, input, &cfg, clock, spec, w.provenance,
			filepath.Join(env.dir, fmt.Sprintf("exp%d.er", i)))
		if err != nil {
			return nil, err
		}
		w.checkOutput(r, res.Machine.OutputLongs())
		exps = append(exps, exp)
	}
	a, err := env.reduce(r, exps...)
	if err != nil {
		return nil, err
	}
	if err := env.render(r, a, w.reports); err != nil {
		return nil, err
	}
	if w.provenance {
		err := env.tr.do("objtrack.Build", func() error {
			idx, err := objtrack.Build(a)
			if err == nil {
				r.joined, r.unjoined = idx.Joined, idx.Unjoined
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	r.analysis = a
	return r, nil
}

// checkOutput checks an MCF run's result against the Go solver's.
func (w *mcfWorkload) checkOutput(r *opResult, longs []int64) {
	out, err := mcf.ParseOutput(longs)
	switch {
	case err != nil:
		r.fail("mcf output: %v", err)
	case out.Status != 0:
		r.fail("mcf status %d, want 0", out.Status)
	case out.Cost != w.refCost:
		r.fail("mcf cost %d, want the network simplex optimum %d", out.Cost, w.refCost)
	}
}

// nbodyWorkload runs the closed advisor loop on the n-body kernel:
// the paper-style A+B baseline profile, advisor.Analyze, and
// advisor.Validate, which recompiles and re-runs once per
// recommendation plus once with every accepted override combined.
type nbodyWorkload struct {
	papers int

	seed   uint64
	refOut []int64
}

func (w *nbodyWorkload) engine() string { return "interp" }

func (w *nbodyWorkload) prepare(seed uint64) error {
	w.seed = seed
	w.refOut = nbody.Simulate(nbody.Generate(nbody.DefaultGenParams(w.papers, seed))).Longs()
	return nil
}

func (w *nbodyWorkload) op(env *opEnv) (*opResult, error) {
	r := &opResult{}
	var ins *nbody.Instance
	env.tr.do("nbody.Generate", func() error {
		ins = nbody.Generate(nbody.DefaultGenParams(w.papers, w.seed))
		return nil
	})
	cfg := core.StudyMachine()
	// The same target core.NBodyTarget builds, with the input generated
	// above so generation is timed on its own.
	target := advisor.Target{
		Sources: nbody.Source(nbody.VariantBaseline),
		Options: cc.Options{Name: "nbody-" + nbody.VariantBaseline.String(), HWCProf: true},
		Input:   ins.Encode(),
		Machine: &cfg,
	}
	var prog *asm.Program
	err := env.tr.do("cc.Compile", func() (err error) {
		prog, err = cc.Compile(target.Sources, target.Options)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.compiles++
	// core.ProfilePaperStyle's two experiments at core.NBodyIntervals,
	// spooled so the baseline also passes through save and open.
	iv := core.NBodyIntervals(w.papers)
	specs := []string{
		fmt.Sprintf("+ecstall,%d,+ecrm,%d", iv.ECStall, iv.ECRdMiss),
		fmt.Sprintf("+ecref,%d,+dtlbm,%d", iv.ECRef, iv.DTLBMiss),
	}
	var exps []*experiment.Experiment
	for i, spec := range specs {
		clock := uint64(0)
		if i == 0 {
			clock = iv.ClockTick
		}
		exp, res, err := env.profile(r, prog, target.Input, &cfg, clock, spec, false,
			filepath.Join(env.dir, fmt.Sprintf("exp%d.er", i)))
		if err != nil {
			return nil, err
		}
		if got := res.Machine.OutputLongs(); !slices.Equal(got, w.refOut) {
			r.fail("nbody output %v, want the reference model's %v", got, w.refOut)
		}
		exps = append(exps, exp)
	}
	a, err := env.reduce(r, exps...)
	if err != nil {
		return nil, err
	}
	var adv *advisor.Advice
	err = env.tr.do("advisor.Analyze", func() (err error) {
		adv, err = advisor.Analyze(a, advisor.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	var v *advisor.Validation
	err = env.tr.do("advisor.Validate", func() (err error) {
		v, err = advisor.Validate(context.Background(), target, adv, a)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.checkValidation(r, v)
	r.analysis = a
	return r, env.render(r, a, []string{"advice"})
}

// checkValidation counts the advisor's re-runs and checks that every
// accepted recommendation kept the program's output.
func (w *nbodyWorkload) checkValidation(r *opResult, v *advisor.Validation) {
	runs := append([]advisor.RecResult(nil), v.Results...)
	if v.Combined != nil {
		runs = append(runs, *v.Combined)
	}
	for _, rr := range runs {
		r.compiles++
		if rr.Err != "" {
			r.fail("advisor re-run %s %s: %s", rr.Rec.Kind, rr.Rec.Struct, rr.Err)
			continue
		}
		r.countCollect(rr.Exp)
		if rr.Verdict == advisor.VerdictAccepted && !rr.OutputOK {
			r.fail("accepted %s %s changed the program's output", rr.Rec.Kind, rr.Rec.Struct)
		}
	}
	r.recs = len(v.Results)
	for _, rr := range v.Results {
		if rr.Verdict == advisor.VerdictAccepted {
			r.accepted++
		}
	}
	if c := v.Combined; c != nil && c.Before > 0 {
		r.adviceGain = 100 * (float64(c.Before) - float64(c.After)) / float64(c.Before)
	}
}
