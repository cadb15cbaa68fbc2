// Command dsbench is dsprof's benchmark: a single-process, closed-loop
// program with one client that runs a workload's ops back to back for a
// fixed time, checks every op's outputs, and prints end-to-end metrics
// (or, with -trace 1, per-layer metrics from spans and a CPU profile).
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dsprof/internal/core"
	"dsprof/internal/machine"
)

// prepareReps is how often set-up is repeated; setup_s reports the
// median.
const prepareReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dsbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", 20030717, "workload seed: every input is generated from it")
	seconds := fl.Float64("seconds", 10, "how long to run timed ops")
	trace := fl.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
	out := fl.String("out", ".bench_out", "directory for results, spans and profiles")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || fl.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "dsbench: need -workload (%s), -trace 0|1 and -seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	b := &bench{
		name:    *name,
		w:       mk(),
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		dir:     filepath.Join(*out, *name, fmt.Sprintf("seed%d-trace%d", *seed, *trace)),
	}
	if err := b.run(stdout); err != nil {
		fmt.Fprintf(stderr, "dsbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one run of one workload.
type bench struct {
	name    string
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	dir     string

	procs    int
	setup    float64
	warm     *opResult
	timed    []*opResult
	tracedOp []bool
	tr       *tracer
	split    split
	runOnce  float64 // unarmed core.RunOnce of the profiled program, seconds
}

func (b *bench) run(stdout io.Writer) error {
	b.procs = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(b.procs)
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	expDir := filepath.Join(b.dir, "exp")
	if err := os.MkdirAll(expDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(expDir)
	if b.traced {
		b.tr = newTracer()
	}
	env := &opEnv{dir: expDir, workers: b.procs}
	heap := startHeapWatch(5 * time.Millisecond)
	defer heap.stop()

	// Set-up: generate the input and its reference solution, several
	// times, then one warm-up op whose outputs every timed op must
	// reproduce.
	var preps []float64
	for i := 0; i < prepareReps; i++ {
		t0 := time.Now()
		if err := b.w.prepare(b.seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		preps = append(preps, time.Since(t0).Seconds())
	}
	b.warm = b.runOp(env, heap, 0, false)
	b.setup = median(preps) + b.warm.seconds

	// Timed ops, back to back. A traced run alternates traced and
	// untraced ops, so the tracing overhead is measured in one process.
	minOps := 1
	if b.traced {
		minOps = 2
	}
	start := time.Now()
	for i := 1; time.Since(start).Seconds() < b.seconds || len(b.timed) < minOps; i++ {
		traced := b.traced && i%2 == 1
		r := b.runOp(env, heap, i, traced)
		r.baseline = nil // only the warm-up op's program is re-run unarmed
		b.timed = append(b.timed, r)
		b.tracedOp = append(b.tracedOp, traced)
		b.checkSame(r)
	}
	if b.traced && b.warm.failure == nil {
		if err := b.baselineRun(); err != nil {
			return err
		}
	}
	return b.report(stdout)
}

// runOp runs one op with the heap at its floor, recording its time,
// heap high-water and (when traced) spans and CPU profile. Once the
// timer stops it runs the op's checks, then measures the heap the op's
// analysis retains. An op that errors is returned as a failed result.
func (b *bench) runOp(env *opEnv, heap *heapWatch, i int, traced bool) *opResult {
	runtime.GC()
	env.tr = nil
	var prof bytes.Buffer
	if traced {
		env.tr = b.tr
		b.tr.setOp(i)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return &opResult{failure: err}
		}
	}
	heap.reset()
	t0 := time.Now()
	var r *opResult
	err := env.tr.do("op", func() (err error) {
		r, err = b.w.op(env)
		return err
	})
	secs := time.Since(t0).Seconds()
	peak := heap.peak()
	if traced {
		pprof.StopCPUProfile()
		if perr := b.addProfile(i, prof.Bytes()); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		r = &opResult{failure: err}
	}
	for _, check := range r.checks {
		if err := env.tr.do("dsbench.check", check); err != nil {
			r.fail("%v", err)
		}
	}
	r.checks = nil
	runtime.GC()
	r.retainedMiB = liveMiB()
	r.analysis = nil
	r.seconds = secs
	r.peakMiB = float64(peak) / (1 << 20)
	return r
}

// addProfile stores one op's CPU profile next to the results and adds
// it to the run's split.
func (b *bench) addProfile(op int, data []byte) error {
	if err := os.WriteFile(filepath.Join(b.dir, fmt.Sprintf("cpu-op%d.pprof", op)), data, 0o644); err != nil {
		return err
	}
	p, err := parseCPUProfile(data)
	if err != nil {
		return err
	}
	b.split.add(p)
	return nil
}

// checkSame fails an op whose simulated counts or rendered reports
// differ from the warm-up op's: the simulation is deterministic, so any
// difference is a bug.
func (b *bench) checkSame(r *opResult) {
	if r.failure != nil || b.warm.failure != nil {
		return
	}
	if !slices.Equal(r.stats, b.warm.stats) {
		r.fail("machine.Stats differ from the warm-up op's")
	}
	if r.digest != b.warm.digest {
		r.fail("rendered reports differ from the warm-up op's")
	}
}

// baselineRun times one unarmed core.RunOnce of the profiled program
// and input, the denominator of collect.dilation.
func (b *bench) baselineRun() error {
	base := b.warm.baseline
	if base == nil {
		return fmt.Errorf("the warm-up op profiled no program")
	}
	runtime.GC()
	var m *machine.Machine
	err := b.tr.do("core.RunOnce", func() (err error) {
		t0 := time.Now()
		m, err = core.RunOnce(base.prog, base.input, &base.cfg)
		b.runOnce = time.Since(t0).Seconds()
		return err
	})
	if err != nil {
		return fmt.Errorf("unarmed run: %w", err)
	}
	if want := b.warm.directStats[0].Instrs; m.Stats().Instrs != want {
		return fmt.Errorf("unarmed run retired %d instructions, the profiled run %d", m.Stats().Instrs, want)
	}
	return nil
}

func liveMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapWatch samples the bytes in host heap objects in the background and
// keeps the high-water mark since the last reset.
type heapWatch struct {
	max  atomic.Uint64
	done chan struct{}
	wait chan struct{}
}

func startHeapWatch(every time.Duration) *heapWatch {
	h := &heapWatch{done: make(chan struct{}), wait: make(chan struct{})}
	go func() {
		defer close(h.wait)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapWatch) reset() { h.max.Store(0); h.sample() }

func (h *heapWatch) peak() uint64 { h.sample(); return h.max.Load() }

func (h *heapWatch) stop() { close(h.done); <-h.wait }

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
