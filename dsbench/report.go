package main

// report.go turns a run's ops into metrics, prints them by name with
// their units, stores everything next to the CPU profiles, and ends
// stdout with the one-line JSON result.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dsprof/internal/machine"
)

// endToEndNames and layerNames are the metrics of the final JSON line
// with -trace 0 and -trace 1; BENCHMARK.json declares the same lists.
var (
	endToEndNames = []string{"op_s", "sim_mips", "events_per_s", "retained_heap_mb", "attribution_exact_pct", "setup_s"}
	layerNames    = []string{
		"machine.instrs", "machine.cycles", "machine.ic_misses", "machine.ipc", "machine.ns_per_instr",
		"machine.cpu_pct", "machine.translated_cpu_pct", "machine.interp_cpu_pct", "machine.step_cpu_pct",
		"cache.loads", "cache.stores", "cache.dc_miss_pct", "cache.ec_refs", "cache.ec_miss_pct",
		"cache.ec_stall_cycles", "cache.cpu_pct",
		"tlb.misses", "tlb.cpu_pct", "mem.cpu_pct",
		"hwc.events_pic0", "hwc.events_pic1", "hwc.events_per_minstr", "hwc.cpu_pct",
		"collect.run_s", "collect.runs", "collect.cpu_pct", "collect.dilation",
		"experiment.save_s", "experiment.open_s", "experiment.spool_bytes", "experiment.shards", "experiment.cpu_pct",
		"analyzer.reduce_s", "analyzer.render_s", "analyzer.effectiveness_pct", "analyzer.cpu_pct",
		"cc.compile_s", "cc.compiles", "cc.cpu_pct",
		"runtime.cpu_pct", "trace.overhead_pct",
	}
)

// objtrackReports are the reports internal/objtrack registers.
var objtrackReports = []string{"site-heat", "obj-timeline", "dead-objects"}

// results is everything a run measured, as stored in results.json.
type results struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Procs     int      `json:"procs"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Ops       []opRow  `json:"ops"`
	// Sim is the warm-up op's simulated counts, summed over its collects;
	// every timed op is checked to reproduce them exactly.
	Sim       machine.Stats `json:"sim"`
	SimEvents [2]int        `json:"sim_events_per_pic"`
	EndToEnd  []metric      `json:"end_to_end"`
	PerLayer  []metric      `json:"per_layer,omitempty"`
	Extra     []metric      `json:"workload_metrics,omitempty"`
	Traffic   *traffic      `json:"traffic,omitempty"`
	Phases    []phase       `json:"phases,omitempty"`
	CPUSplit  *cpuSplit     `json:"cpu_split,omitempty"`
}

type opRow struct {
	Op       int     `json:"op"`
	Seconds  float64 `json:"seconds"`
	PeakMiB  float64 `json:"peak_heap_mb"`
	Retained float64 `json:"retained_heap_mb"`
	Traced   bool    `json:"traced"`
	Failure  string  `json:"failure,omitempty"`
}

// traffic is the workload's traffic-property row: what one op's
// primary profile (experiment A) looks like to the simulator.
type traffic struct {
	SimInstrs       uint64  `json:"sim_instrs"`
	EventsPerMinstr float64 `json:"events_per_minstr"`
	ECReadMisses    uint64  `json:"ec_read_misses"`
	DTLBMisses      uint64  `json:"dtlb_misses"`
	Engine          string  `json:"engine"`
	IntendedEngine  string  `json:"intended_engine"`
	CachesStartCold bool    `json:"caches_start_empty"`
}

type cpuSplit struct {
	TotalSeconds float64            `json:"total_s"`
	FlatPct      map[string]float64 `json:"flat_pct_by_module"`
	EnginePct    map[string]float64 `json:"cum_pct_by_engine"`
}

func (b *bench) report(stdout io.Writer) error {
	res := results{Workload: b.name, Seed: b.seed, Seconds: b.seconds, Traced: b.traced, Procs: b.procs}
	for i, r := range append([]*opResult{b.warm}, b.timed...) {
		row := opRow{Op: i, Seconds: r.seconds, PeakMiB: r.peakMiB, Retained: r.retainedMiB}
		if i > 0 {
			row.Traced = b.tracedOp[i-1]
		}
		res.Attempted++
		if r.failure != nil {
			res.Failed++
			row.Failure = r.failure.Error()
			res.Failures = append(res.Failures, fmt.Sprintf("op %d: %v", i, r.failure))
		}
		res.Ops = append(res.Ops, row)
	}
	res.Correct = res.Failed == 0
	res.Sim, res.SimEvents = sumStats(b.warm.stats), b.warm.perPIC
	res.EndToEnd, res.Extra = b.endToEnd(res.Failed, res.Attempted)
	if b.traced {
		layer, extra := b.perLayer()
		res.PerLayer = layer
		res.Extra = append(res.Extra, extra...)
		res.Traffic = b.traffic()
		res.Phases = phases(b.tr.spans)
		res.CPUSplit = &cpuSplit{TotalSeconds: float64(b.split.totalNanos) / 1e9, FlatPct: map[string]float64{}, EnginePct: map[string]float64{}}
		for m := range b.split.flat {
			res.CPUSplit.FlatPct[m] = b.split.flatPct(m)
		}
		for _, e := range engineEntry {
			res.CPUSplit.EnginePct[e.engine] = b.split.enginePct(e.engine)
		}
		if err := writeJSON(filepath.Join(b.dir, "spans.json"), b.tr.spans); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(b.dir, "results.json"), res); err != nil {
		return err
	}
	printResults(stdout, &res, b.dir)

	final, names := res.EndToEnd, endToEndNames
	if b.traced {
		final, names = res.PerLayer, layerNames
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	for _, m := range final {
		line.Metrics[m.Name] = map[string]any{"value": finite(m.Value), "unit": m.Unit}
	}
	for _, n := range names {
		if line.Metrics[n] == nil || len(line.Metrics) != len(names) {
			return fmt.Errorf("internal error: metrics %v do not match the declared %v", final, names)
		}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(js))
	return nil
}

// timedOK returns the timed ops that passed every check and were traced
// (or not) as asked.
func (b *bench) timedOK(traced bool) []*opResult {
	var out []*opResult
	for i, r := range b.timed {
		if r.failure == nil && b.tracedOp[i] == traced {
			out = append(out, r)
		}
	}
	return out
}

// endToEnd computes the user-visible metrics from the untraced timed ops,
// plus the workload-specific ones that are not on every workload.
func (b *bench) endToEnd(failed, attempted int) (e2e, extra []metric) {
	ops := b.timedOK(false)
	var secs, instrs, events float64
	var times, retained []float64
	peak := 0.0
	for _, r := range ops {
		retained = append(retained, r.retainedMiB)
		secs += r.seconds
		times = append(times, r.seconds)
		instrs += float64(sumStats(r.stats).Instrs)
		events += float64(r.events)
		peak = max(peak, r.peakMiB)
	}
	w := b.warm
	e2e = []metric{
		{"op_s", median(times), "s"},
		{"sim_mips", instrs / secs / 1e6, "Minstr/s"},
		{"events_per_s", events / secs, "1/s"},
		{"retained_heap_mb", median(retained), "MiB"},
		{"attribution_exact_pct", pct(w.btExact, w.btEvents), "%"},
		{"setup_s", b.setup, "s"},
	}
	extra = []metric{
		{"ops", float64(len(times)), "count"},
		{"peak_heap_mb", peak, "MiB"},
		{"fail_ratio", float64(failed) / float64(attempted), "ratio"},
	}
	if p, v, ok := highPercentile(times, 10); ok {
		extra = append(extra, metric{fmt.Sprintf("op_s_p%g", p), v, "s"})
	}
	if w.recs > 0 {
		extra = append(extra, metric{"advice_gain_pct", w.adviceGain, "%"})
	}
	return e2e, extra
}

// perLayer computes the per-layer metrics from the traced ops' spans,
// the run's CPU profile and the simulator's exact counts.
func (b *bench) perLayer() (layer, extra []metric) {
	var ids []int
	var times []float64
	for i, r := range b.timed {
		if r.failure == nil && b.tracedOp[i] {
			ids = append(ids, i+1)
			times = append(times, r.seconds)
		}
	}
	sp := b.tr.spans
	spanS := func(name string) float64 { return median(perOp(sp, name, ids)) }
	w := b.warm
	st := sumStats(w.stats)
	direct := sumStats(w.directStats)
	collectS := spanS("collect.Run")
	renderS := spanS("analyzer.Render")
	var untraced []float64
	for _, r := range b.timedOK(false) {
		untraced = append(untraced, r.seconds)
	}
	s := &b.split
	layer = []metric{
		{"machine.instrs", float64(st.Instrs), "count"},
		{"machine.cycles", float64(st.Cycles), "count"},
		{"machine.ic_misses", float64(st.ICMisses), "count"},
		{"machine.ipc", ratio(st.Instrs, st.Cycles), "instr/cycle"},
		{"machine.ns_per_instr", 1e9 * collectS / float64(direct.Instrs), "ns"},
		{"machine.cpu_pct", s.flatPct("machine"), "%"},
		{"machine.translated_cpu_pct", s.enginePct("translated"), "%"},
		{"machine.interp_cpu_pct", s.enginePct("interp"), "%"},
		{"machine.step_cpu_pct", s.enginePct("step"), "%"},
		{"cache.loads", float64(st.Loads), "count"},
		{"cache.stores", float64(st.Stores), "count"},
		{"cache.dc_miss_pct", 100 * ratio(st.DCRdMisses, st.Loads), "%"},
		{"cache.ec_refs", float64(st.ECRefs), "count"},
		{"cache.ec_miss_pct", 100 * ratio(st.ECRdMisses, st.ECRefs), "%"},
		{"cache.ec_stall_cycles", float64(st.ECStallCycles), "count"},
		{"cache.cpu_pct", s.flatPct("cache"), "%"},
		{"tlb.misses", float64(st.DTLBMisses), "count"},
		{"tlb.cpu_pct", s.flatPct("tlb"), "%"},
		{"mem.cpu_pct", s.flatPct("mem"), "%"},
		{"hwc.events_pic0", float64(w.perPIC[0]), "count"},
		{"hwc.events_pic1", float64(w.perPIC[1]), "count"},
		{"hwc.events_per_minstr", 1e6 * ratio(uint64(w.events), st.Instrs), "1/Minstr"},
		{"hwc.cpu_pct", s.flatPct("hwc"), "%"},
		{"collect.run_s", collectS, "s"},
		{"collect.runs", float64(w.collects), "count"},
		{"collect.cpu_pct", s.flatPct("collect"), "%"},
		{"collect.dilation", collectS / float64(len(w.directStats)) / b.runOnce, "x"},
		{"experiment.save_s", spanS("experiment.Save"), "s"},
		{"experiment.open_s", spanS("experiment.Open"), "s"},
		{"experiment.spool_bytes", float64(w.spoolBytes), "B"},
		{"experiment.shards", float64(w.shards), "count"},
		{"experiment.cpu_pct", s.flatPct("experiment"), "%"},
		{"analyzer.reduce_s", spanS("analyzer.NewWithConfig"), "s"},
		{"analyzer.render_s", renderS, "s"},
		{"analyzer.effectiveness_pct", 100 * w.effNum / w.effDen, "%"},
		{"analyzer.cpu_pct", s.flatPct("analyzer"), "%"},
		{"cc.compile_s", spanS("cc.Compile"), "s"},
		{"cc.compiles", float64(w.compiles), "count"},
		{"cc.cpu_pct", s.flatPct("cc"), "%"},
		{"runtime.cpu_pct", s.flatPct("runtime"), "%"},
		{"trace.overhead_pct", 100 * (median(times) - median(untraced)) / median(untraced), "%"},
	}

	// Layers only some workloads exercise.
	if w.recs > 0 {
		extra = append(extra,
			metric{"advisor.analyze_s", spanS("advisor.Analyze"), "s"},
			metric{"advisor.validate_s", spanS("advisor.Validate"), "s"},
			metric{"advisor.reruns", float64(w.collects - len(w.directStats)), "count"},
			metric{"advisor.accepted", float64(w.accepted), "count"},
			metric{"advisor.cpu_pct", s.flatPct("advisor"), "%"})
	}
	if w.provRecords > 0 {
		var objS float64
		for _, name := range renderedReports(sp) {
			base, _, _ := strings.Cut(name, "=")
			if slices.Contains(objtrackReports, base) {
				objS += spanS("analyzer.Render:" + name)
			}
		}
		extra = append(extra,
			metric{"objtrack.render_s", objS, "s"},
			metric{"objtrack.build_s", spanS("objtrack.Build"), "s"},
			metric{"objtrack.records", float64(w.provRecords), "count"},
			metric{"objtrack.joined_pct", pct(w.joined, w.joined+w.unjoined), "%"},
			metric{"objtrack.cpu_pct", s.flatPct("objtrack"), "%"})
	}
	for _, name := range renderedReports(sp) {
		extra = append(extra, metric{"analyzer.render_s." + name, spanS("analyzer.Render:" + name), "s"})
	}
	return layer, extra
}

// renderedReports lists the report tokens rendered under spans, in
// order of first rendering.
func renderedReports(spans []span) []string {
	var out []string
	for _, s := range spans {
		if name, ok := strings.CutPrefix(s.Name, "analyzer.Render:"); ok && !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	return out
}

func (b *bench) traffic() *traffic {
	w := b.warm
	var a machine.Stats
	if len(w.directStats) > 0 {
		a = w.directStats[0]
	}
	st := sumStats(w.stats)
	return &traffic{
		SimInstrs:       a.Instrs,
		EventsPerMinstr: 1e6 * ratio(uint64(w.events), st.Instrs),
		ECReadMisses:    a.ECRdMisses,
		DTLBMisses:      a.DTLBMisses,
		Engine:          b.split.dominantEngine(),
		IntendedEngine:  b.w.engine(),
		// Every collect.Run builds a fresh machine.New, so its caches
		// and TLB start empty.
		CachesStartCold: true,
	}
}

func sumStats(ss []machine.Stats) machine.Stats {
	var t machine.Stats
	for _, s := range ss {
		t.Instrs += s.Instrs
		t.Cycles += s.Cycles
		t.ICMisses += s.ICMisses
		t.SyscallCycles += s.SyscallCycles
		t.Loads += s.Loads
		t.Stores += s.Stores
		t.DCRdMisses += s.DCRdMisses
		t.ECRefs += s.ECRefs
		t.ECRdMisses += s.ECRdMisses
		t.ECStallCycles += s.ECStallCycles
		t.DTLBMisses += s.DTLBMisses
		t.ClockTicks += s.ClockTicks
	}
	return t
}

func ratio(a, b uint64) float64 { return float64(a) / float64(b) }

func pct(a, b int) float64 { return 100 * float64(a) / float64(b) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResults writes the human-readable summary: every metric by name
// with its unit, then (traced) the traffic row, phase table and CPU
// split.
func printResults(w io.Writer, r *results, dir string) {
	fmt.Fprintf(w, "dsbench %s seed=%d seconds=%g trace=%v procs=%d\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Procs)
	for _, op := range r.Ops {
		tag := "timed"
		switch {
		case op.Op == 0:
			tag = "warm-up"
		case op.Traced:
			tag = "traced"
		}
		status := "ok"
		if op.Failure != "" {
			status = "FAILED: " + op.Failure
		}
		fmt.Fprintf(w, "op %-3d %-8s %9.4f s  peak heap %7.1f MiB  retained %7.2f MiB  %s\n",
			op.Op, tag, op.Seconds, op.PeakMiB, op.Retained, status)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	section("end-to-end (untraced ops)", r.EndToEnd)
	section("per-layer (traced ops)", r.PerLayer)
	section("workload-specific", r.Extra)
	if t := r.Traffic; t != nil {
		shift := "as intended"
		if t.Engine != t.IntendedEngine {
			shift = "SHIFTED from intended " + t.IntendedEngine
		}
		fmt.Fprintf(w, "traffic: sim_instrs=%d events/Minstr=%.2f ec_read_misses=%d dtlb_misses=%d engine=%s (%s) caches_start_empty=%v\n",
			t.SimInstrs, t.EventsPerMinstr, t.ECReadMisses, t.DTLBMisses, t.Engine, shift, t.CachesStartCold)
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(w, "phases (all traced spans): %-30s %5s %10s %10s\n", "name", "count", "total_s", "self_s")
		for _, p := range r.Phases {
			fmt.Fprintf(w, "  %-52s %5d %10.4f %10.4f\n", p.Name, p.Count, p.Total, p.Self)
		}
	}
	if c := r.CPUSplit; c != nil {
		var mods []string
		for m := range c.FlatPct {
			mods = append(mods, m)
		}
		slices.SortFunc(mods, func(a, b string) int {
			if c.FlatPct[a] != c.FlatPct[b] {
				if c.FlatPct[a] > c.FlatPct[b] {
					return -1
				}
				return 1
			}
			return strings.Compare(a, b)
		})
		fmt.Fprintf(w, "cpu profile %.2f s, flat by module:", c.TotalSeconds)
		for _, m := range mods {
			fmt.Fprintf(w, " %s=%.1f%%", m, c.FlatPct[m])
		}
		fmt.Fprintf(w, "\ncpu profile cumulative by engine: translated=%.1f%% interp=%.1f%% step=%.1f%%\n",
			c.EnginePct["translated"], c.EnginePct["interp"], c.EnginePct["step"])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	fmt.Fprintf(w, "results in %s\n", dir)
}
