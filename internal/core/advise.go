package core

import (
	"context"
	"fmt"
	"io"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/machine"
	"dsprof/internal/workload"
)

// advise.go is the closed-loop advisor harness shared by cmd/dsadvise
// and internal/profd: profile a baseline, run the data-layout advisor
// over it, and validate every recommendation with a measured re-run.
// Every bundled workload (internal/workload) plugs into the same loop.

// Target builds the advisor's rebuild-and-re-run target for a workload
// instance, compiled with -xhwcprof, on cfg (nil: the study machine).
func Target(spec workload.Spec, cfg *machine.Config) (advisor.Target, error) {
	spec, l, err := spec.Resolve()
	if err != nil {
		return advisor.Target{}, err
	}
	c := StudyMachine()
	if cfg != nil {
		c = *cfg
	}
	return advisor.Target{
		Sources: l.Sources(),
		Options: cc.Options{Name: l.Program, HWCProf: true},
		Input:   spec.Workload.Generate(spec.Size, spec.Seed),
		Machine: &c,
	}, nil
}

// NBodyIntervals picks overflow intervals for an n-body baseline of the
// given size (the n-body entry of the workload table).
func NBodyIntervals(papers int) PaperIntervals { return workload.NBody.Intervals(papers) }

// AdviseParams configure one closed advisor loop. The baseline is
// collected at the workload's intervals for the instance size.
type AdviseParams struct {
	Spec    workload.Spec
	Machine *machine.Config // nil: the study machine
	Advisor advisor.Options
}

// AdviseRun is a completed loop: baseline profile, the baseline run's
// output vector, ranked advice, and the measured validation of each
// recommendation.
type AdviseRun struct {
	Baseline *analyzer.Analyzer
	Output   []int64
	Advice   *advisor.Advice
	Valid    *advisor.Validation
}

// Advise runs the full closed loop on a workload: the paper's
// two-experiment baseline profile, advisor analysis, and one validation
// re-run per recommendation plus a combined run. Each workload's output
// vector is layout invariant, so the output-identity gate applies
// unchanged.
func Advise(ctx context.Context, p AdviseParams) (*AdviseRun, error) {
	spec, _, err := p.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	target, err := Target(spec, p.Machine)
	if err != nil {
		return nil, err
	}
	prog, err := cc.Compile(target.Sources, target.Options)
	if err != nil {
		return nil, err
	}
	a, resA, _, err := ProfilePaperStyle(prog, target.Input, target.Machine, spec.Workload.Intervals(spec.Size))
	if err != nil {
		return nil, err
	}
	out := resA.Machine.OutputLongs()
	if err := spec.Workload.CheckOutput(out); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	adv, err := advisor.Analyze(a, p.Advisor)
	if err != nil {
		return nil, err
	}
	valid, err := advisor.Validate(ctx, target, adv, a)
	if err != nil {
		return nil, err
	}
	return &AdviseRun{Baseline: a, Output: out, Advice: adv, Valid: valid}, nil
}

// WriteReport renders the loop's report: the advice report (through the
// analyzer's report registry, so it is byte-identical to erprint's and
// profd's "advice" rendering) followed by the validation verdicts and
// the before/after function comparison.
func (r *AdviseRun) WriteReport(w io.Writer, topN int) error {
	if err := r.Baseline.Render(w, "advice", analyzer.RenderOpts{TopN: topN}); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return r.Valid.Render(w, r.Baseline, topN)
}
