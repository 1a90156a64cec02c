// Command pttrace runs a small fork/join program under a chosen
// scheduler with event tracing enabled and renders a per-processor
// Gantt chart — a direct way to *see* the difference between the
// breadth-first FIFO queue and the depth-first space-efficient
// scheduler. It can also export the run for interactive inspection:
// Chrome trace-event JSON (load in https://ui.perfetto.dev or
// chrome://tracing), a JSONL event stream, and the space-over-time
// profile as CSV. With -analyze it reconstructs the run DAG and
// reports W, D, W/D, S₁, and the attributed critical path; with -in it
// skips the run and works from a previously recorded JSONL trace.
//
//	pttrace [-policy adf|adf-treap|adf-shard|fifo|lifo|ws|dfd|rr] [-backend sim|native]
//	        [-procs 4] [-depth 5] [-width 100]
//	        [-out trace.json] [-events events.jsonl] [-space space.csv]
//	        [-dot dag.dot] [-analyze] [-in events.jsonl]
//	        [-follow url-or-path]
//
// With -backend native the same program runs on real goroutines: the
// trace records wall-clock nanoseconds (the JSONL header and every
// export carry the unit), and -dot is unavailable — the DAG recorder is
// sim-only; analyze the recorded trace instead.
//
// With -follow, pttrace tails a streaming JSONL trace while the run
// that produces it is still going: give it the live debug endpoint's
// /trace?follow=1 URL (a native run with Config.DebugAddr set) or the
// path of a file the stream is being redirected into. It prints
// envelope crossings and the terminal run-end as they arrive.
//
// Exit status: 0 on success, 2 for usage errors — including an empty
// or truncated -in trace file, and a followed stream that ends without
// a run-end — and 1 for runtime/I/O failures (a followed run ending in
// deadlock or panic included).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spthreads/internal/analyze"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pttrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policy := fs.String("policy", "adf", "scheduler: fifo, lifo, adf, adf-treap, adf-shard, ws, dfd, rr")
	backend := fs.String("backend", "sim", "execution backend: sim (deterministic virtual time) or native (goroutines, wall clock)")
	procs := fs.Int("procs", 4, "virtual processors")
	depth := fs.Int("depth", 5, "fork-tree depth (2^depth leaves)")
	width := fs.Int("width", 100, "gantt chart width in buckets")
	outPath := fs.String("out", "", "write the run as Chrome trace-event JSON (Perfetto/chrome://tracing) to this file")
	eventsPath := fs.String("events", "", "write the raw event stream as JSONL to this file")
	spacePath := fs.String("space", "", "write the space-over-time profile as CSV to this file")
	dotPath := fs.String("dot", "", "also write the computation DAG as Graphviz DOT to this file")
	doAnalyze := fs.Bool("analyze", false, "reconstruct the run DAG and report W, D, W/D, S1, and the critical path")
	inPath := fs.String("in", "", "analyze/render a recorded JSONL trace instead of running a program")
	followSrc := fs.String("follow", "", "tail a streaming JSONL trace until its run-end: an http(s):// URL (a live debug endpoint's /trace?follow=1) or the path of a growing file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pttrace [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *followSrc != "" {
		// Follow mode: everything else describes a run or an offline
		// render; the tail needs only its source.
		if *inPath != "" || *outPath != "" || *eventsPath != "" || *spacePath != "" || *dotPath != "" || *doAnalyze {
			fmt.Fprintln(stderr, "pttrace: -follow tails a live stream and cannot be combined with -in, -out, -events, -space, -dot, or -analyze")
			fs.Usage()
			return 2
		}
		return runFollow(*followSrc, stdout, stderr)
	}

	if *inPath != "" {
		// Offline mode: everything must come from the trace file. The
		// space profile and the DAG builder only exist on live runs.
		if *spacePath != "" || *dotPath != "" {
			fmt.Fprintln(stderr, "pttrace: -space and -dot need a live run and cannot be combined with -in")
			fs.Usage()
			return 2
		}
		return runOffline(*inPath, *procs, *width, *outPath, *eventsPath, *doAnalyze, stdout, stderr, fs.Usage)
	}

	if !validPolicy(*policy) {
		fmt.Fprintf(stderr, "pttrace: unknown policy %q (valid: %s)\n\n", *policy, policyNames())
		fs.Usage()
		return 2
	}
	if !validBackend(*backend) {
		fmt.Fprintf(stderr, "pttrace: unknown backend %q (valid: sim, native)\n\n", *backend)
		fs.Usage()
		return 2
	}
	native := pthread.Backend(*backend) == pthread.BackendNative
	if native && *dotPath != "" {
		fmt.Fprintln(stderr, "pttrace: the DAG recorder is sim-only; on -backend native use -events and feed the trace to ptanalyze")
		fs.Usage()
		return 2
	}

	rec := pthread.NewTraceRecorder(1 << 20)
	reg := pthread.NewMetrics()
	prof := pthread.NewSpaceProfiler(0)
	var g *pthread.DAGBuilder
	if *dotPath != "" {
		g = pthread.NewDAGBuilder()
	}
	cfg := pthread.Config{
		Procs:        *procs,
		Policy:       pthread.Policy(*policy),
		Backend:      pthread.Backend(*backend),
		DefaultStack: pthread.SmallStackSize,
		Tracer:       rec,
		DAG:          g,
		Metrics:      reg,
		SpaceProf:    prof,
	}

	var tree func(t *pthread.T, d int)
	tree = func(t *pthread.T, d int) {
		t.Charge(5000)
		if d == 0 {
			a := t.Malloc(32 << 10)
			t.TouchAll(a)
			t.Charge(40000)
			t.Free(a)
			return
		}
		t.Par(
			func(ct *pthread.T) { tree(ct, d-1) },
			func(ct *pthread.T) { tree(ct, d-1) },
		)
	}
	stats, err := pthread.Run(cfg, func(t *pthread.T) { tree(t, *depth) })
	if err != nil {
		fmt.Fprintf(stderr, "pttrace: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "policy=%s backend=%s procs=%d: %d threads, peak live %d, time %v, heap HWM %d B\n\n",
		*policy, *backend, *procs, stats.ThreadsCreated, stats.PeakLive, stats.Time, stats.HeapHWM)
	if g != nil {
		if err := os.WriteFile(*dotPath, []byte(g.DOT()), 0o644); err != nil {
			fmt.Fprintf(stderr, "pttrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "DAG: work %v, span %v, parallelism %.1f, S1 %d B -> %s\n\n",
			g.TotalWork(), g.Span(), float64(g.TotalWork())/float64(g.Span()), g.SerialSpace(1), *dotPath)
	}
	fmt.Fprint(stdout, rec.Gantt(*procs, *width))

	fmt.Fprintln(stdout, "\nspace over virtual time:")
	fmt.Fprint(stdout, prof.Curves(*width))

	if m := stats.Metrics; m != nil {
		fmt.Fprintf(stdout, "\nmetrics: dispatches=%d quota-preempts=%d dummy-forks=%d",
			m.Counters["sched.dispatches"], m.Counters["sched.quota.preempts"],
			m.Counters["sched.dummy.forks"])
		if h, ok := m.Histograms["sched.dispatch.wait"]; ok {
			// Sim histograms observe virtual cycles, native ones wall ns.
			suffix := "cy"
			if native {
				suffix = "ns"
			}
			fmt.Fprintf(stdout, " dispatch-wait-p50=%d%s p99=%d%s", h.P50, suffix, h.P99, suffix)
		}
		if gv, ok := m.Gauges["adf.placeholders"]; ok {
			fmt.Fprintf(stdout, " max-placeholders=%d", gv.Max)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "\nbusiest threads (by dispatch count):")
	sum := rec.Summary()
	shown := 0
	for i := len(sum) - 1; i >= 0 && shown < 5; i-- {
		s := sum[i]
		if s.Dispatches < 2 {
			continue
		}
		fmt.Fprintf(stdout, "  thread %-4d dispatched %d times, lifetime %s\n",
			s.Thread, s.Dispatches, rec.Unit().FormatDuration(int64(s.Lifetime)))
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(stdout, "  (every thread ran in a single dispatch)")
	}

	if *doAnalyze {
		var quota int64
		switch pthread.Policy(*policy) {
		case pthread.PolicyADF, pthread.PolicyADFShard:
			quota = pthread.DefaultMemQuota
		}
		rep, err := analyze.Analyze(rec, analyze.Options{
			Policy:       *policy,
			Procs:        *procs,
			Quota:        quota,
			DefaultStack: pthread.SmallStackSize,
			PeakHeap:     stats.HeapHWM,
			PeakStack:    stats.StackHWM,
			Peak:         stats.TotalHWM,
		})
		if err != nil {
			fmt.Fprintf(stderr, "pttrace: analyze: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "\nrun DAG analysis:")
		rep.WriteText(stdout)
	}

	if *outPath != "" {
		if err := writeFile(*outPath, func(f io.Writer) error {
			return rec.WriteChrome(f, *procs, spaceCounters(prof, native))
		}); err != nil {
			fmt.Fprintf(stderr, "pttrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote Chrome trace -> %s (load in https://ui.perfetto.dev)\n", *outPath)
	}
	if *eventsPath != "" {
		if err := writeFile(*eventsPath, rec.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "pttrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d events as JSONL -> %s\n", len(rec.Events()), *eventsPath)
	}
	if *spacePath != "" {
		if err := writeFile(*spacePath, prof.WriteCSV); err != nil {
			fmt.Fprintf(stderr, "pttrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote space profile CSV -> %s\n", *spacePath)
	}
	return 0
}

// runOffline serves -in: load a recorded trace and render/export/
// analyze it. An empty or truncated trace is a usage error (exit 2) —
// every downstream view would be silently wrong.
func runOffline(inPath string, procs, width int, outPath, eventsPath string, doAnalyze bool, stdout, stderr io.Writer, usage func()) int {
	f, err := os.Open(inPath)
	if err != nil {
		fmt.Fprintf(stderr, "pttrace: %v\n", err)
		return 1
	}
	rec, rerr := trace.ReadJSONL(f)
	f.Close()
	if rerr != nil {
		fmt.Fprintf(stderr, "pttrace: %s: %v\n", inPath, rerr)
		usage()
		return 2
	}
	if len(rec.Events()) == 0 {
		fmt.Fprintf(stderr, "pttrace: %s: empty trace (no events)\n", inPath)
		usage()
		return 2
	}
	// Infer the processor count from the events unless overridden.
	maxProc := -1
	for _, e := range rec.Events() {
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
	}
	if procs <= 0 || maxProc+1 > procs {
		procs = maxProc + 1
	}
	if procs <= 0 {
		procs = 1
	}

	fmt.Fprintf(stdout, "trace %s: %d events, %d processors\n\n", inPath, len(rec.Events()), procs)
	fmt.Fprint(stdout, rec.Gantt(procs, width))

	if doAnalyze {
		rep, err := analyze.Analyze(rec, analyze.Options{Procs: procs})
		if err != nil {
			fmt.Fprintf(stderr, "pttrace: %s: %v\n", inPath, err)
			usage()
			return 2
		}
		fmt.Fprintln(stdout, "\nrun DAG analysis:")
		rep.WriteText(stdout)
	}

	if outPath != "" {
		if err := writeFile(outPath, func(f io.Writer) error {
			return rec.WriteChrome(f, procs, nil)
		}); err != nil {
			fmt.Fprintf(stderr, "pttrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote Chrome trace -> %s (load in https://ui.perfetto.dev)\n", outPath)
	}
	if eventsPath != "" {
		if err := writeFile(eventsPath, rec.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "pttrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "rewrote %d events as JSONL -> %s\n", len(rec.Events()), eventsPath)
	}
	return 0
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spaceCounters converts the space profile into Chrome counter tracks
// (downsampled so huge runs stay loadable). The profiler always stamps
// samples in virtual cycles — the native backend converts wall time at
// the calibrated rate — so for a wall-ns trace the timestamps convert
// back to nanoseconds to share the events' time base.
func spaceCounters(prof *pthread.SpaceProfiler, toWallNS bool) []trace.CounterSample {
	samples := prof.Downsample(2048)
	at := func(t vtime.Time) vtime.Time {
		if toWallNS {
			return vtime.Time(int64(t) * 1000 / vtime.CyclesPerMicrosecond)
		}
		return t
	}
	out := make([]trace.CounterSample, 0, 2*len(samples))
	for _, s := range samples {
		out = append(out,
			trace.CounterSample{At: at(s.At), Name: "space (bytes)", Series: map[string]int64{
				"heap": s.Heap, "stack": s.Stack,
			}},
			trace.CounterSample{At: at(s.At), Name: "live threads", Series: map[string]int64{
				"live": int64(s.Live),
			}})
	}
	return out
}

func validBackend(name string) bool {
	for _, b := range pthread.Backends() {
		if string(b) == name {
			return true
		}
	}
	return false
}

func validPolicy(name string) bool {
	for _, p := range pthread.Policies() {
		if string(p) == name {
			return true
		}
	}
	return false
}

func policyNames() string {
	var s string
	for i, p := range pthread.Policies() {
		if i > 0 {
			s += ", "
		}
		s += string(p)
	}
	return s
}
