package advisor

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/collect"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// Target is everything needed to rebuild and re-run the profiled
// program with a layout override applied: the closed-loop half of the
// advisor. The collect configuration (clock, counters, intervals) is
// not part of the target — it is derived from the baseline experiment,
// which guarantees CompareReport's same-interval requirement.
type Target struct {
	Sources []cc.Source
	Options cc.Options // base compile options; LayoutOverrides is filled per run
	Input   []int64
	Machine *machine.Config
}

// Verdicts for a validated recommendation.
const (
	VerdictAccepted = "accepted"
	VerdictRejected = "rejected"
)

// RecResult is the measured outcome of re-running the program with one
// recommendation applied.
type RecResult struct {
	Rec      Recommendation `json:"recommendation"`
	Verdict  string         `json:"verdict"`
	OutputOK bool           `json:"outputOk"` // transformed program computed the same result
	Before   uint64         `json:"before"`   // baseline metric overflows
	After    uint64         `json:"after"`    // metric overflows with the override
	DeltaPct float64        `json:"deltaPct"` // 100*(after-before)/before
	Err      string         `json:"err,omitempty"`

	Exp      *experiment.Experiment `json:"-"`
	Analysis *analyzer.Analyzer     `json:"-"`
}

// Validation is the outcome of validating an advice set.
type Validation struct {
	Metric   hwc.Event   `json:"-"`
	Results  []RecResult `json:"results"`
	Combined *RecResult  `json:"combined,omitempty"` // every accepted override applied at once
}

// Validate re-runs the target once per recommendation with the
// corresponding layout override applied, and once more with every
// accepted override combined. A recommendation is accepted when the
// transformed program produces identical output and does not regress
// the advice metric. The per-recommendation re-runs run concurrently on
// up to GOMAXPROCS goroutines; the combined run starts once every
// verdict is in.
func Validate(ctx context.Context, target Target, adv *Advice, base *analyzer.Analyzer) (*Validation, error) {
	metric, err := hwc.ParseEvent(adv.Metric)
	if err != nil {
		return nil, err
	}
	baseExp := expWithMetric(base, metric)
	if baseExp == nil {
		return nil, fmt.Errorf("advisor: baseline did not collect %v", metric)
	}
	before := base.Total().Events[metric]
	v := &Validation{Metric: metric}

	for _, rec := range adv.Recs {
		if rec.Override() != nil {
			v.Results = append(v.Results, RecResult{Rec: rec})
		}
	}

	// The re-runs are independent: workers pull result indices from a
	// shared counter and each fills its own slot, so the results keep
	// rank order whatever order they finish in.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(v.Results), runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(v.Results) {
					return
				}
				rec := v.Results[i].Rec
				r := runOverride(ctx, target, baseExp, metric, before,
					map[string]*cc.LayoutOverride{rec.Struct: rec.Override()}, rec.Kind+":"+rec.Struct)
				r.Rec = rec
				v.Results[i] = r
			}
		}()
	}
	wg.Wait()

	combined := make(map[string]*cc.LayoutOverride)
	for i := range v.Results {
		r := &v.Results[i]
		if r.Verdict != VerdictAccepted {
			continue
		}
		ov := r.Rec.Override()
		if prev := combined[r.Rec.Struct]; prev != nil {
			// Results are ranked, so the first (higher-scored) override
			// keeps its field; a pad composes with a reorder.
			if prev.Order == nil {
				prev.Order = ov.Order
			}
			if prev.PadTo == 0 {
				prev.PadTo = ov.PadTo
			}
			continue
		}
		cp := *ov
		combined[r.Rec.Struct] = &cp
	}
	if len(combined) > 0 {
		r := runOverride(ctx, target, baseExp, metric, before, combined, "combined")
		v.Combined = &r
	}
	return v, nil
}

// expWithMetric finds the baseline experiment whose counter
// configuration collected ev.
func expWithMetric(a *analyzer.Analyzer, ev hwc.Event) *experiment.Experiment {
	for _, e := range a.Exps {
		for _, cs := range e.Meta.Counters {
			if cs.Event == ev {
				return e
			}
		}
	}
	return nil
}

// runOverride compiles the target with the overrides, re-profiles it
// under the baseline experiment's collect configuration, and grades the
// result.
func runOverride(ctx context.Context, target Target, baseExp *experiment.Experiment,
	metric hwc.Event, before uint64, ovs map[string]*cc.LayoutOverride, label string) RecResult {
	r := RecResult{Verdict: VerdictRejected, Before: before}
	opts := target.Options
	opts.LayoutOverrides = ovs
	prog, err := cc.Compile(target.Sources, opts)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	bm := &baseExp.Meta
	res, err := collect.RunContext(ctx, prog, collect.Options{
		ClockProfile:        bm.ClockProfiling,
		ClockIntervalCycles: bm.ClockTickCycles,
		Counters:            bm.Counters,
		Machine:             target.Machine,
		Input:               target.Input,
		Label:               label,
	})
	if err != nil {
		r.Err = err.Error()
		return r
	}
	after, err := analyzer.New(res.Exp)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Exp = res.Exp
	r.Analysis = after
	r.After = after.Total().Events[metric]
	if before > 0 {
		r.DeltaPct = 100 * (float64(r.After) - float64(before)) / float64(before)
	}
	r.OutputOK = equalLongs(baseExp.Meta.Output, res.Exp.Meta.Output)
	if r.OutputOK && r.After <= before {
		r.Verdict = VerdictAccepted
	}
	return r
}

func equalLongs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Render writes the validation report: one verdict line per
// recommendation, then the before/after function comparison for the
// combined run.
func (v *Validation) Render(w io.Writer, base *analyzer.Analyzer, topN int) error {
	fmt.Fprintf(w, "Validation (%s):\n", evName(v.Metric))
	for i := range v.Results {
		r := &v.Results[i]
		line := fmt.Sprintf("  %-8s %-7s struct %-12s", r.Verdict, r.Rec.Kind, r.Rec.Struct)
		switch {
		case r.Err != "":
			line += " error: " + r.Err
		default:
			line += fmt.Sprintf(" %s overflows %d -> %d (%+.1f%%), output %s",
				evName(v.Metric), r.Before, r.After, r.DeltaPct, okStr(r.OutputOK))
		}
		fmt.Fprintln(w, line)
	}
	if v.Combined == nil {
		fmt.Fprintf(w, "  no recommendation accepted; nothing to combine\n")
		return nil
	}
	c := v.Combined
	fmt.Fprintf(w, "  %-8s %-7s all accepted overrides: %s overflows %d -> %d (%+.1f%%), output %s\n\n",
		c.Verdict, "combine", evName(v.Metric), c.Before, c.After, c.DeltaPct, okStr(c.OutputOK))
	if c.Analysis == nil {
		return nil
	}
	return analyzer.CompareReport(w, base, c.Analysis, analyzer.ByEvent(v.Metric), topN)
}

func evName(ev hwc.Event) string { return ev.String() }

func okStr(ok bool) string {
	if ok {
		return "identical"
	}
	return "DIFFERS"
}
