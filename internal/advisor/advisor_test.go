package advisor_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/machine"
	"dsprof/internal/workload"
)

// adviseSmoke runs the full closed loop once per test binary: MCF at
// smoke scale on the scaled machine, advice, and validation re-runs.
// The run is deterministic, so both tests share one loop.
var smokeOnce sync.Once
var smokeRun *core.AdviseRun
var smokeErr error

// smokeSpec is the MCF instance of the smoke loop; it runs on the
// scaled machine.
var smokeSpec = workload.Spec{Workload: workload.MCF, Layout: "paper", Size: 120, Seed: 20030717}

func smokeMachine() *machine.Config {
	cfg := machine.ScaledConfig()
	return &cfg
}

func adviseSmoke(t *testing.T) *core.AdviseRun {
	t.Helper()
	smokeOnce.Do(func() {
		smokeRun, smokeErr = core.Advise(context.Background(), core.AdviseParams{
			Spec:    smokeSpec,
			Machine: smokeMachine(),
			Advisor: advisor.Options{MaxRecs: 10},
		})
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smokeRun
}

func TestAdvisorMCFClosedLoop(t *testing.T) {
	run := adviseSmoke(t)

	// The advisor must propose transformations of the paper's hot
	// structs autonomously: a reorder or hot/cold split of arc or node.
	hot := false
	for _, r := range run.Advice.Recs {
		if (r.Struct == "arc" || r.Struct == "node") &&
			(r.Kind == advisor.KindReorder || r.Kind == advisor.KindSplit) {
			hot = true
		}
	}
	if !hot {
		t.Fatalf("no reorder/split of arc or node proposed: %+v", run.Advice.Recs)
	}

	// Validation must accept at least one recommendation and the
	// combined run must show a non-negative measured improvement with
	// identical program output.
	accepted := 0
	for _, r := range run.Valid.Results {
		if r.Verdict == advisor.VerdictAccepted {
			accepted++
			if !r.OutputOK {
				t.Errorf("accepted %s:%s with differing output", r.Rec.Kind, r.Rec.Struct)
			}
			if r.After > r.Before {
				t.Errorf("accepted %s:%s regressed %d -> %d", r.Rec.Kind, r.Rec.Struct, r.Before, r.After)
			}
		}
	}
	if accepted == 0 {
		t.Fatalf("no recommendation validated: %+v", run.Valid.Results)
	}
	c := run.Valid.Combined
	if c == nil || c.Verdict != advisor.VerdictAccepted {
		t.Fatalf("combined run not accepted: %+v", c)
	}
	if !c.OutputOK || c.After > c.Before {
		t.Errorf("combined run = %+v, want identical output and non-regressed overflows", c)
	}

	// The full report renders with verdict lines and the before/after
	// function comparison.
	var rep bytes.Buffer
	if err := run.WriteReport(&rep, 10); err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"Data-layout advice", "Validation (", "accepted", "combine", "<Total>"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAdvisorReportByteIdentical(t *testing.T) {
	run := adviseSmoke(t)
	// The advice report goes through the analyzer's report registry, so
	// every consumer (dsadvise, erprint, profd HTTP) renders these exact
	// bytes. Two renderings over the same analyzer must be identical.
	var a, b bytes.Buffer
	if err := run.Baseline.Render(&a, "advice", analyzer.RenderOpts{TopN: 10}); err != nil {
		t.Fatal(err)
	}
	if err := run.Baseline.Render(&b, "advice", analyzer.RenderOpts{TopN: 10}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("advice report not deterministic")
	}
	// The "advice" report is registered and listed for CLI usage errors.
	if !analyzer.ValidReport("advice") {
		t.Error("advice report not registered")
	}
	if !strings.Contains(analyzer.ReportUsage(), "advice") {
		t.Error("advice report missing from usage listing")
	}
	// JSON rendering is exposed too.
	if _, err := run.Baseline.RenderJSON("advice", analyzer.RenderOpts{TopN: 10}); err != nil {
		t.Errorf("advice JSON rendering: %v", err)
	}
}

// validateWith runs advisor.Validate on the smoke loop's advice and
// baseline with GOMAXPROCS set to procs, restoring the old value when
// the test ends.
func validateWith(t *testing.T, ctx context.Context, procs int) *advisor.Validation {
	t.Helper()
	run := adviseSmoke(t)
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	target, err := core.Target(smokeSpec, smokeMachine())
	if err != nil {
		t.Fatal(err)
	}
	v, err := advisor.Validate(ctx, target, run.Advice, run.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// runSummary is the comparable part of a RecResult: everything but the
// experiment and analyzer pointers, plus the re-run's event count per
// PIC.
type runSummary struct {
	Rec      advisor.Recommendation
	Verdict  string
	OutputOK bool
	Before   uint64
	After    uint64
	DeltaPct float64
	Err      string
	Events   [experiment.NumPICs]int
}

func summarize(r *advisor.RecResult) runSummary {
	s := runSummary{Rec: r.Rec, Verdict: r.Verdict, OutputOK: r.OutputOK,
		Before: r.Before, After: r.After, DeltaPct: r.DeltaPct, Err: r.Err}
	if r.Exp != nil {
		for pic := range s.Events {
			s.Events[pic] = r.Exp.EventCount(pic)
		}
	}
	return s
}

func TestAdvisorValidateParallelDeterminism(t *testing.T) {
	run := adviseSmoke(t)
	serial := validateWith(t, context.Background(), 1)
	parallel := validateWith(t, context.Background(), 4)

	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("%d results serial, %d parallel", len(serial.Results), len(parallel.Results))
	}
	if len(serial.Results) < 2 {
		t.Fatalf("%d validated recommendations; the test needs at least two re-runs to overlap", len(serial.Results))
	}
	for i := range serial.Results {
		s, p := summarize(&serial.Results[i]), summarize(&parallel.Results[i])
		if !reflect.DeepEqual(s, p) {
			t.Errorf("result %d:\n serial   %+v\n parallel %+v", i, s, p)
		}
		if s.Err == "" && s.Events == [experiment.NumPICs]int{} {
			t.Errorf("result %d re-run recorded no events", i)
		}
	}
	if (serial.Combined == nil) != (parallel.Combined == nil) {
		t.Fatalf("combined: serial %v, parallel %v", serial.Combined, parallel.Combined)
	}
	if serial.Combined != nil {
		if s, p := summarize(serial.Combined), summarize(parallel.Combined); !reflect.DeepEqual(s, p) {
			t.Errorf("combined:\n serial   %+v\n parallel %+v", s, p)
		}
	}

	var a, b bytes.Buffer
	if err := serial.Render(&a, run.Baseline, 10); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Render(&b, run.Baseline, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("validation reports differ:\n--- serial\n%s\n--- parallel\n%s", a.Bytes(), b.Bytes())
	}
}

func TestAdvisorValidateCancelled(t *testing.T) {
	adviseSmoke(t)
	start := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	t0 := time.Now()
	v := validateWith(t, ctx, 4)
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("cancelled Validate took %v", d)
	}
	if len(v.Results) == 0 {
		t.Fatal("no results")
	}
	for i, r := range v.Results {
		if r.Err == "" {
			t.Errorf("result %d (%s:%s) has no error under a cancelled context", i, r.Rec.Kind, r.Rec.Struct)
		}
	}
	if v.Combined != nil {
		t.Errorf("combined run under a cancelled context: %+v", v.Combined)
	}

	// Every worker has exited: the goroutine count settles back.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > start {
		t.Errorf("%d goroutines after Validate, %d before", n, start)
	}
}
