// Package core is the top-level façade of the data-space profiling
// system: one-call helpers that chain the compiler, the collector and the
// analyzer (compile → collect → analyze), plus the paper-reproduction
// harness for the MCF case study (see repro.go).
//
// The pipeline mirrors the paper's user model (§2): compile the target
// with the memory-profiling options, run collect with clock- and/or
// hardware-counter profiling, and analyze the resulting experiments.
package core

import (
	"context"
	"fmt"

	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/experiment"
	"dsprof/internal/machine"
	"dsprof/internal/workload"
)

// Compile builds an MC program with the paper's memory-profiling flags
// enabled by default (-xhwcprof -xdebugformat=dwarf).
func Compile(name string, sources []cc.Source, opts *cc.Options) (*asm.Program, error) {
	o := cc.Options{HWCProf: true}
	if opts != nil {
		o = *opts
	}
	if o.Name == "" {
		o.Name = name
	}
	return cc.Compile(sources, o)
}

// CollectRun performs one profiled run, like a collect(1) invocation:
// counterSpec uses the paper's syntax ("+ecstall,lo,+ecrm,on"), and
// clockProfile corresponds to -p on.
func CollectRun(prog *asm.Program, input []int64, cfg *machine.Config, clockProfile bool, counterSpec string) (*collect.Result, error) {
	specs, err := collect.ParseCounterSpec(counterSpec)
	if err != nil {
		return nil, err
	}
	return collect.Run(prog, collect.Options{
		ClockProfile: clockProfile,
		Counters:     specs,
		Machine:      cfg,
		Input:        input,
	})
}

// CollectRunContext is CollectRun with job-level cancellation and an
// explicit clock-profiling interval — the entry point profiling services
// (internal/profd) use for each scheduled run. A zero clockTick picks
// the collector's default.
func CollectRunContext(ctx context.Context, prog *asm.Program, input []int64, cfg *machine.Config, clockProfile bool, clockTick uint64, counterSpec string) (*collect.Result, error) {
	return CollectRunContextProv(ctx, prog, input, cfg, clockProfile, clockTick, counterSpec, false)
}

// CollectRunContextProv is CollectRunContext with allocation-site
// provenance collection switchable: with provenance on, the run also
// records every heap block's (site, instance, lifetime) into the
// experiment's prov.pv2 shards, feeding the object-centric reports.
// With it off the result is byte-identical to CollectRunContext.
func CollectRunContextProv(ctx context.Context, prog *asm.Program, input []int64, cfg *machine.Config, clockProfile bool, clockTick uint64, counterSpec string, provenance bool) (*collect.Result, error) {
	specs, err := collect.ParseCounterSpec(counterSpec)
	if err != nil {
		return nil, err
	}
	return collect.RunContext(ctx, prog, collect.Options{
		ClockProfile:        clockProfile,
		ClockIntervalCycles: clockTick,
		Counters:            specs,
		Machine:             cfg,
		Input:               input,
		Provenance:          provenance,
	})
}

// Analyze reduces one or more experiments.
func Analyze(exps ...*experiment.Experiment) (*analyzer.Analyzer, error) {
	return analyzer.New(exps...)
}

// ProfilePaperStyle performs the paper's full two-experiment collection
// (§3.1): experiment A with clock profiling plus E$ stall cycles and E$
// read misses, experiment B with E$ references and DTLB misses, all with
// apropos backtracking — then merges them in one analyzer. The two
// collects run concurrently; when both fail, A's error is reported.
//
// The overflow intervals are chosen from the run length budget: pass the
// expected total cycles (0 picks conservative defaults).
func ProfilePaperStyle(prog *asm.Program, input []int64, cfg *machine.Config, intervals PaperIntervals) (*analyzer.Analyzer, *collect.Result, *collect.Result, error) {
	iv := intervals.WithDefaults()
	specsA, err := collect.ParseCounterSpec(fmt.Sprintf("+ecstall,%d,+ecrm,%d", iv.ECStall, iv.ECRdMiss))
	if err != nil {
		return nil, nil, nil, err
	}
	var resB *collect.Result
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		resB, errB = CollectRun(prog, input, cfg, false, fmt.Sprintf("+ecref,%d,+dtlbm,%d", iv.ECRef, iv.DTLBMiss))
	}()
	resA, err := collect.Run(prog, collect.Options{
		ClockProfile:        true,
		ClockIntervalCycles: iv.ClockTick,
		Counters:            specsA,
		Machine:             cfg,
		Input:               input,
	})
	<-done
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiment A: %w", err)
	}
	if errB != nil {
		return nil, nil, nil, fmt.Errorf("experiment B: %w", errB)
	}
	a, err := Analyze(resA.Exp, resB.Exp)
	if err != nil {
		return nil, nil, nil, err
	}
	return a, resA, resB, nil
}

// PaperIntervals are the overflow intervals for the four counters of the
// paper's study; zero fields get defaults suited to scaled runs.
type PaperIntervals = workload.Intervals

// RunOnce executes a program without profiling and returns the machine
// (for timing comparisons such as the §3.3 speedup experiments).
func RunOnce(prog *asm.Program, input []int64, cfg *machine.Config) (*machine.Machine, error) {
	c := machine.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	if prog.HeapPageSize != 0 {
		c.HeapPageSize = prog.HeapPageSize
	}
	m, err := machine.New(c)
	if err != nil {
		return nil, err
	}
	if err := m.LoadProgram(prog.Text, prog.Data, prog.Entry); err != nil {
		return nil, err
	}
	m.SetInput(input)
	if err := m.Run(); err != nil {
		return m, err
	}
	return m, nil
}
