// Command benchdiff compares two of ptbench's machine-readable outputs
// (BENCH_<id>.json) run-by-run and prints per-metric percent deltas.
// With -threshold it exits non-zero when any metric regresses by more
// than the given percentage — lower-is-better metrics (virtual time,
// footprints, dispatch cost) growing, or higher-is-better metrics
// (speedup) shrinking — making it usable as a CI regression gate:
//
//	ptbench -json fig1
//	benchdiff -threshold 10 baseline/BENCH_fig1.json BENCH_fig1.json
//	benchdiff -threshold 10 -metric sched.lock.wait old.json new.json
//
// -metric restricts the comparison to a comma-separated list of metric
// names; sched.lock.wait (the scheduler-lock wait histogram sum from
// the run's metrics snapshot) lets CI gate contention as well as
// runtime. Runs are matched by (bench, policy, procs, live_threads)
// and, when present, the scheduler batch size, the sharded-scheduler
// marker with its steal window, and the execution backend; runs present
// in only one file are reported but are not failures. When the old
// file holds several runs under one key (BENCH_10.json carries one row
// per former native engine), each metric is compared against the best
// of them. Native-backend rows are host wall-clock measurements:
// their deltas are printed but never trip the threshold (sim rows,
// being deterministic, still gate), and the wall_ms and
// ns_per_dispatch metrics are report-only on every backend by default
// — the dispatch sweep gates on vops_per_dispatch, the deterministic
// virtual structure-operation count, instead.
//
// The one exception is an explicit same-host wall-clock budget:
// naming wall_ms with -metric arms it as a real gate, native rows
// included, on row pairs whose repeat is at least 9 on both sides —
// an opt-in that keeps default all-metric diffs (often against a
// baseline recorded on another host) from gating wall clocks, while
// letting CI bound a freshly measured same-host comparison:
//
//	benchdiff -threshold 75 -metric wall_ms old.json new.json
//
// -max name=value[,name=value...] adds an absolute ceiling: every run
// in the NEW file whose named metric is present must not exceed value.
// Unlike -threshold it is not relative to the old file and it applies
// to native rows too — it is how CI gates the native-obs tracer
// overhead (a bound on overhead_pct, which is already a ratio of two
// same-host wall times and therefore host-comparable):
//
//	benchdiff -max overhead_pct=10 BENCH_7.json BENCH_native-obs.json
//
// Exit status: 0 when within threshold and ceilings, 1 on regression
// or exceeded ceiling, 2 on usage or unreadable input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric describes one compared quantity.
type metric struct {
	name string
	// higherIsBetter flips the regression direction (speedup).
	higherIsBetter bool
	// reportOnly metrics print their deltas but never trip the
	// threshold (host-dependent wall-clock times).
	reportOnly bool
	// minRepeat, when nonzero, overrides reportOnly and the native
	// exemption: the metric gates — on every backend, native included —
	// when it is explicitly named in -metric AND both matched rows
	// report at least this many repetitions. Opting in by name keeps
	// default all-metric diffs (often cross-host) from gating wall
	// clocks; the repetition floor keeps single-shot medians from
	// gating on noise.
	minRepeat int
	get       func(r benchRun) (float64, bool)
}

// benchRun mirrors the numeric subset of harness.BenchRun that the
// diff compares (parsed loosely so schema growth never breaks it).
type benchRun struct {
	Bench               string  `json:"bench"`
	Policy              string  `json:"policy"`
	Procs               int     `json:"procs"`
	Batch               int     `json:"batch"`
	Backend             string  `json:"backend"`
	Repeat              int     `json:"repeat"`
	Shard               bool    `json:"shard"`
	StealWindow         int     `json:"steal_window"`
	Tracer              bool    `json:"tracer"`
	Sampler             bool    `json:"sampler"`
	LiveThreads         int     `json:"live_threads"`
	TimeCycles          float64 `json:"time_cycles"`
	WallMS              float64 `json:"wall_ms"`
	Speedup             float64 `json:"speedup"`
	HeapHWM             float64 `json:"heap_hwm_bytes"`
	StackHWM            float64 `json:"stack_hwm_bytes"`
	TotalHWM            float64 `json:"total_hwm_bytes"`
	NSDispatch          float64 `json:"ns_per_dispatch"`
	VOpsDispatch        float64 `json:"vops_per_dispatch"`
	OverheadPct         float64 `json:"overhead_pct"`
	TraceDropped        float64 `json:"trace_dropped"`
	SamplerOverheadPct  float64 `json:"sampler_overhead_pct"`
	LockWaitVsGlobalPct float64 `json:"lock_wait_vs_global_pct"`
	Metrics             *struct {
		Histograms map[string]struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	} `json:"metrics"`
	Analysis *struct {
		Work  float64 `json:"work_cycles"`
		Depth float64 `json:"depth_cycles"`
		S1    float64 `json:"serial_space_bytes"`
		Peak  float64 `json:"peak_bytes"`
	} `json:"analysis"`
}

type benchFile struct {
	Experiment string     `json:"experiment"`
	Runs       []benchRun `json:"runs"`
}

// wallGateMinRepeat is the repetition floor for the explicit wall_ms
// gate: medians over at least this many interleaved runs are stable
// enough on one host to carry a (generous) relative threshold.
const wallGateMinRepeat = 9

var metrics = []metric{
	{name: "time_cycles", get: func(r benchRun) (float64, bool) { return r.TimeCycles, r.TimeCycles > 0 }},
	// Wall clock is host-dependent, so a default all-metric diff (often
	// comparing against another host's committed baseline) only reports
	// it. Naming it with -metric on a same-host pair whose rows both
	// carry repeat >= 9 turns it into a real budget gate, native rows
	// included.
	{name: "wall_ms", reportOnly: true, minRepeat: wallGateMinRepeat,
		get: func(r benchRun) (float64, bool) { return r.WallMS, r.WallMS > 0 }},
	{name: "speedup", higherIsBetter: true, get: func(r benchRun) (float64, bool) { return r.Speedup, r.Speedup > 0 }},
	{name: "heap_hwm_bytes", get: func(r benchRun) (float64, bool) { return r.HeapHWM, r.HeapHWM > 0 }},
	{name: "stack_hwm_bytes", get: func(r benchRun) (float64, bool) { return r.StackHWM, r.StackHWM > 0 }},
	{name: "total_hwm_bytes", get: func(r benchRun) (float64, bool) { return r.TotalHWM, r.TotalHWM > 0 }},
	// Wall ns per dispatch depends on the host that ran the sweep;
	// vops_per_dispatch is the deterministic virtual structure-operation
	// count and carries the gate instead.
	{name: "ns_per_dispatch", reportOnly: true, get: func(r benchRun) (float64, bool) { return r.NSDispatch, r.NSDispatch > 0 }},
	{name: "vops_per_dispatch", get: func(r benchRun) (float64, bool) { return r.VOpsDispatch, r.VOpsDispatch > 0 }},
	// Tracer overhead is a ratio of two same-host wall times, so the
	// absolute -max ceiling gates it; a relative delta between two hosts'
	// overhead percentages is noise, hence report-only here. Negative
	// values (measurement noise on an effectively free tracer) are valid.
	{name: "overhead_pct", reportOnly: true, get: func(r benchRun) (float64, bool) { return r.OverheadPct, r.Tracer }},
	// Sampler overhead follows the same pattern: a same-host wall-time
	// ratio gated by -max, noise as a cross-file delta.
	{name: "sampler_overhead_pct", reportOnly: true, get: func(r benchRun) (float64, bool) { return r.SamplerOverheadPct, r.Sampler }},
	// Dropped trace events on any traced row. Zero is the expected value
	// (presence of the tracer, not positivity, gates it), so a -max
	// ceiling of 0 fails the moment a live-obs row starts dropping.
	{name: "trace_dropped", reportOnly: true, get: func(r benchRun) (float64, bool) { return r.TraceDropped, r.Tracer }},
	{name: "analysis.work_cycles", get: func(r benchRun) (float64, bool) {
		return fromAnalysis(r, func(a struct{ Work, Depth, S1, Peak float64 }) float64 { return a.Work })
	}},
	{name: "analysis.depth_cycles", get: func(r benchRun) (float64, bool) {
		return fromAnalysis(r, func(a struct{ Work, Depth, S1, Peak float64 }) float64 { return a.Depth })
	}},
	{name: "analysis.serial_space_bytes", get: func(r benchRun) (float64, bool) {
		return fromAnalysis(r, func(a struct{ Work, Depth, S1, Peak float64 }) float64 { return a.S1 })
	}},
	{name: "analysis.peak_bytes", get: func(r benchRun) (float64, bool) {
		return fromAnalysis(r, func(a struct{ Work, Depth, S1, Peak float64 }) float64 { return a.Peak })
	}},
	// Native lock wait relative to the matching global-store baseline row
	// (the contention-sharded experiment). A same-host ratio like the
	// overhead percentages: gated by an absolute -max ceiling, reported
	// only as a cross-file delta. Zero (an uncontended pair) is valid, so
	// presence of the shard marker gates it.
	{name: "lock_wait_vs_global_pct", reportOnly: true, get: func(r benchRun) (float64, bool) {
		return r.LockWaitVsGlobalPct, r.Shard && r.Backend == "native"
	}},
	// Contention: total virtual time spent waiting on the scheduler lock
	// (histogram sum from the run's metrics snapshot). Zero is a valid
	// value — an uncontended run is comparable and any growth is a
	// regression — so presence of the histogram, not positivity, gates it.
	{name: "sched.lock.wait", get: func(r benchRun) (float64, bool) {
		if r.Metrics == nil {
			return 0, false
		}
		h, ok := r.Metrics.Histograms["sched.lock.wait"]
		return h.Sum, ok
	}},
}

func fromAnalysis(r benchRun, f func(struct{ Work, Depth, S1, Peak float64 }) float64) (float64, bool) {
	if r.Analysis == nil {
		return 0, false
	}
	v := f(struct{ Work, Depth, S1, Peak float64 }{r.Analysis.Work, r.Analysis.Depth, r.Analysis.S1, r.Analysis.Peak})
	return v, v > 0
}

func key(r benchRun) string {
	k := fmt.Sprintf("%s|%s|p%d|n%d", r.Bench, r.Policy, r.Procs, r.LiveThreads)
	if r.Batch > 0 {
		k += fmt.Sprintf("|b%d", r.Batch)
	}
	if r.Shard {
		// Sharded rows carry their steal window so the contention-sharded
		// sweep's K arms never collide (w0 is the default window K=p).
		k += fmt.Sprintf("|shard|w%d", r.StealWindow)
	}
	if r.Backend != "" {
		k += "|" + r.Backend
	}
	if r.Tracer {
		k += "|tracer"
	}
	if r.Sampler {
		k += "|sampler"
	}
	return k
}

// gated reports whether a run participates in the regression gate.
// Native-backend rows are wall-clock measurements on whatever host ran
// them — they are printed for the record but never fail the diff.
func gated(r benchRun) bool { return r.Backend != "native" }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0, "fail (exit 1) when any metric regresses by more than this percent (0: report only)")
	metricFlag := fs.String("metric", "", "comma-separated metric names to compare (default: all); e.g. -metric sched.lock.wait")
	maxFlag := fs.String("max", "", "comma-separated absolute ceilings name=value on runs in new.json; applies to native rows too, e.g. -max overhead_pct=10")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold pct] [-metric name,...] [-max name=value,...] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	ceilings, err := parseMax(*maxFlag)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v (known metrics: %s)\n", err, strings.Join(metricNames(), ", "))
		return 2
	}
	compared := metrics
	// explicit marks metrics the user named with -metric: the opt-in
	// that arms minRepeat gating.
	explicit := make(map[string]bool)
	if *metricFlag != "" {
		byName := make(map[string]metric, len(metrics))
		for _, m := range metrics {
			byName[m.name] = m
		}
		compared = nil
		for _, name := range strings.Split(*metricFlag, ",") {
			name = strings.TrimSpace(name)
			m, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "benchdiff: unknown -metric %q (known: %s)\n",
					name, strings.Join(metricNames(), ", "))
				return 2
			}
			compared = append(compared, m)
			explicit[name] = true
		}
	}
	oldF, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newF, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if oldF.Experiment != newF.Experiment {
		fmt.Fprintf(stderr, "benchdiff: comparing different experiments: %q vs %q\n",
			oldF.Experiment, newF.Experiment)
		return 2
	}

	oldRuns := make(map[string][]benchRun)
	for _, r := range oldF.Runs {
		k := key(r)
		oldRuns[k] = append(oldRuns[k], r)
	}
	var keys []string
	newRuns := make(map[string]benchRun)
	for _, r := range newF.Runs {
		k := key(r)
		newRuns[k] = r
		keys = append(keys, k)
	}
	sort.Strings(keys)

	regressed := false
	for _, k := range keys {
		nr := newRuns[k]
		olds, ok := oldRuns[k]
		if !ok {
			fmt.Fprintf(stdout, "%s: only in %s\n", k, fs.Arg(1))
			continue
		}
		for _, m := range compared {
			or, ov, oOK := best(m, olds)
			nv, nOK := m.get(nr)
			if !oOK || !nOK {
				continue
			}
			var delta float64
			switch {
			case ov != 0:
				delta = 100 * (nv - ov) / ov
			case nv != 0:
				// From zero to nonzero: infinite relative growth — always
				// past any threshold for a lower-is-better metric.
				delta = math.Inf(1)
				if nv < 0 {
					delta = math.Inf(-1)
				}
			}
			worse := delta
			if m.higherIsBetter {
				worse = -delta
			}
			mark := ""
			if *threshold > 0 && worse > *threshold {
				eligible := gated(nr) && !m.reportOnly
				if m.minRepeat > 0 && explicit[m.name] &&
					or.Repeat >= m.minRepeat && nr.Repeat >= m.minRepeat {
					// Explicitly selected wall-clock budget on repeated
					// medians: gates even on native rows.
					eligible = true
				}
				if eligible {
					mark = "  REGRESSION"
					regressed = true
				} else {
					mark = "  (reported, not gated)"
				}
			}
			if math.Abs(delta) >= 0.005 || mark != "" {
				fmt.Fprintf(stdout, "%-40s %-28s %14.6g -> %14.6g  %+7.2f%%%s\n",
					k, m.name, ov, nv, delta, mark)
			}
		}
	}
	for k := range oldRuns {
		if _, ok := newRuns[k]; !ok {
			fmt.Fprintf(stdout, "%s: only in %s\n", k, fs.Arg(0))
		}
	}
	// Absolute ceilings check every run of the new file, including
	// native rows the relative threshold exempts.
	exceeded := false
	for _, k := range keys {
		nr := newRuns[k]
		for _, c := range ceilings {
			v, ok := c.m.get(nr)
			if !ok {
				continue
			}
			if v > c.limit {
				fmt.Fprintf(stdout, "%-40s %-28s %14.6g > max %g  EXCEEDED\n", k, c.m.name, v, c.limit)
				exceeded = true
			}
		}
	}
	if regressed {
		fmt.Fprintf(stderr, "benchdiff: regressions beyond %.1f%%\n", *threshold)
		return 1
	}
	if exceeded {
		fmt.Fprintf(stderr, "benchdiff: absolute ceilings exceeded\n")
		return 1
	}
	return 0
}

// best returns the old run with the best value of m among runs (the
// lowest, or the highest for higher-is-better metrics), and that value;
// ok is false when no run carries the metric.
func best(m metric, runs []benchRun) (r benchRun, v float64, ok bool) {
	for _, c := range runs {
		cv, cok := m.get(c)
		if !cok {
			continue
		}
		if !ok || (m.higherIsBetter && cv > v) || (!m.higherIsBetter && cv < v) {
			r, v, ok = c, cv, true
		}
	}
	return r, v, ok
}

// ceiling is one parsed -max entry.
type ceiling struct {
	m     metric
	limit float64
}

// parseMax parses "-max name=value[,name=value...]" against the known
// metric set.
func parseMax(s string) ([]ceiling, error) {
	if s == "" {
		return nil, nil
	}
	byName := make(map[string]metric, len(metrics))
	for _, m := range metrics {
		byName[m.name] = m
	}
	var out []ceiling
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -max entry %q: want name=value", part)
		}
		m, known := byName[strings.TrimSpace(name)]
		if !known {
			return nil, fmt.Errorf("unknown -max metric %q", name)
		}
		limit, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -max value in %q: %v", part, err)
		}
		out = append(out, ceiling{m: m, limit: limit})
	}
	return out, nil
}

func metricNames() []string {
	var names []string
	for _, m := range metrics {
		names = append(names, m.name)
	}
	return names
}

func load(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
