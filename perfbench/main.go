// Command perfbench is the repository benchmark: it runs one workload
// as a closed loop of back-to-back pthread.Run executions for a fixed
// time and prints every metric by name and unit, then, as the last line
// of standard output, one JSON result. Executions and set-up are timed
// in CPU time of the whole process, which the hypervisor's CPU steal
// on a shared host does not inflate; wall time is printed alongside.
//
//	perfbench --workload fork-flat --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it prints the per-layer metrics: the first half of the
// time runs untraced (the baseline for the tracing overhead, and the
// Go runtime's allocation and GC cost), the second half wraps every
// call into the library in spans and attaches a metrics registry. The
// spans of the last verified traced execution are written under --spans-dir.
// See README.md for the workloads and the metric-to-layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"spthreads/pthread"
)

const (
	// setups is how many times a run generates its inputs, computes the
	// reference result and warms up; setup_s is their median.
	setups = 5
	// warmups is the number of verified executions in each set-up.
	warmups = 3
	// minExecs keeps the p90 of execution time backed by at least ten
	// executions beyond it.
	minExecs = 100
	// deadline bounds a whole run, so a hung execution fails the run
	// instead of outliving its caller's time limit.
	deadline = 170 * time.Second
)

func main() {
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fork-flat, fork-tree, pipeline or sim-matmul")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "measured time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, have %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, have %v", *seconds)
	}
	b := &bench{w: w, seed: *seed, sz: fullSizes}
	if err := b.setup(); err != nil {
		return err
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res = b.endToEnd(d)
	} else {
		var ss []span
		res, ss = b.perLayer(d)
		if err := saveSpans(*spansDir, w.name, *seed, ss); err != nil {
			return err
		}
	}
	return printResult(stdout, res)
}

// bench is one run of one workload.
type bench struct {
	w      workload
	seed   int64
	sz     sizes
	prog   program
	setupS []float64
}

// setup generates the inputs and the reference result and warms up,
// several times over; the last program is the one measured. Each
// set-up is timed in process CPU time, the first from process start.
func (b *bench) setup() error {
	start := time.Duration(0)
	for i := 0; i < setups; i++ {
		p, err := b.w.setup(b.seed, b.sz)
		if err != nil {
			return err
		}
		for j := 0; j < warmups; j++ {
			if _, err := execute(p, nil, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		now := cpuTime()
		b.setupS = append(b.setupS, (now - start).Seconds())
		b.prog = p
		start = now
	}
	return nil
}

// execute runs one execution and verifies it; only pthread.Run is
// timed, in wall time and in process CPU time. A non-nil registry is
// attached to the run.
func execute(p program, r *recorder, reg *pthread.Metrics) (exec, error) {
	fn := p.body(r)
	cfg := p.config()
	cfg.Metrics = reg
	if r != nil {
		r.reset()
	}
	c0, t0 := cpuTime(), time.Now()
	st, err := pthread.Run(cfg, fn)
	wall, cpu := time.Since(t0), cpuTime()-c0
	if err == nil {
		err = p.check()
	}
	return exec{st: st, wall: wall, cpu: cpu}, err
}

// exec is one execution's statistics and costs.
type exec struct {
	st        pthread.Stats
	wall, cpu time.Duration
}

// cpuTime is the CPU time the process has used: every thread's, the Go
// scheduler's and the garbage collector's, without time the hypervisor
// stole from the virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with these arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loop is a closed loop of executions lasting d (and at least minExecs
// executions); each successful one is passed to each.
func (b *bench) loop(d time.Duration, r *recorder, each func(e exec)) (attempted, failed int) {
	end := time.Now().Add(d)
	for attempted < minExecs || time.Now().Before(end) {
		var reg *pthread.Metrics
		if r != nil {
			reg = pthread.NewMetrics()
		}
		e, err := execute(b.prog, r, reg)
		attempted++
		if err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintln(os.Stderr, "perfbench: execution failed:", err)
			}
			continue
		}
		each(e)
	}
	return attempted, failed
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are printed with the metrics but kept out of the JSON.
	Notes []string `json:"-"`
}

func (res *result) set(name string, v float64, unit string) {
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd measures the untraced run.
func (b *bench) endToEnd(d time.Duration) result {
	var wall, cpu, peak []float64
	att, fail := b.loop(d, nil, func(e exec) {
		wall = append(wall, ms(e.wall))
		cpu = append(cpu, ms(e.cpu))
		peak = append(peak, float64(e.st.TotalHWM))
	})
	res := result{Correct: fail == 0, Attempted: att, Failed: fail}
	res.set("exec_cpu_ms.p50", quantile(cpu, 0.5), "ms")
	res.set("exec_cpu_ms.p90", quantile(cpu, 0.9), "ms")
	res.Notes = append(res.Notes,
		fmt.Sprintf("exec_ms.p50 (wall, not gated) %.6g ms", quantile(wall, 0.5)),
		fmt.Sprintf("exec_ms.p90 (wall, not gated) %.6g ms", quantile(wall, 0.9)))
	res.set("peak_mem_bytes", quantile(peak, 0.5), "B")
	res.set("exec_ok_frac", float64(att-fail)/float64(att), "frac")
	res.set("setup_s", quantile(b.setupS, 0.5), "s")
	return res
}

// Go runtime counters read around each untimed execution.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime(s []metrics.Sample) [4]float64 {
	metrics.Read(s)
	var v [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

// perLayer measures the untraced baseline for half of d, then the
// traced run for the other half. It returns the per-layer metrics and
// the spans of the last verified traced execution.
func (b *bench) perLayer(d time.Duration) (result, []span) {
	sim := b.prog.config().Backend != pthread.BackendNative
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		samples[i].Name = n
	}

	// Untraced half: execution time, and the Go runtime's allocation
	// and GC cost per thread the library creates.
	var base []float64
	var allocB, allocObj, threads float64
	var hostPerThread, baseWall []float64
	r0 := readRuntime(samples)
	last := r0
	att, fail := b.loop(d/2, nil, func(e exec) {
		now := readRuntime(samples)
		base = append(base, ms(e.cpu))
		baseWall = append(baseWall, ms(e.wall))
		allocB += now[0] - last[0]
		allocObj += now[1] - last[1]
		threads += float64(e.st.ThreadsCreated)
		hostPerThread = append(hostPerThread, float64(e.cpu)/float64(e.st.ThreadsCreated))
		last = now
	})
	r1 := readRuntime(samples)

	// Traced half. The first executions size the span buffer.
	r := newRecorder()
	for i := 0; i < 2; i++ {
		_, _ = execute(b.prog, r, nil) // failures are counted in the loop
	}
	agg := newLayerAgg()
	var traced, tracedWall []float64
	var ss []span
	var lastSt pthread.Stats
	var waits, rewaits int
	att2, fail2 := b.loop(d/2, r, func(e exec) {
		traced = append(traced, ms(e.cpu))
		tracedWall = append(tracedWall, ms(e.wall))
		if wc, ok := b.prog.(waitCounter); ok {
			w, rw := wc.waitStats()
			waits += w
			rewaits += rw
		}
		if spans, ok := r.spans(); ok {
			agg.add(spans)
			ss = append(ss[:0], spans...) // the recorder's buffer is reused
		}
		agg.addStats(e.st, sim)
		lastSt = e.st
	})
	res := result{Correct: fail+fail2 == 0, Attempted: att + att2, Failed: fail + fail2}

	// Span metrics are named for the backend the calls went to; the
	// other backend's read 0.
	nat := func(key string) float64 {
		if sim {
			return 0
		}
		return agg.median(key)
	}
	nativeCreate, simCreate := agg.median("create.p50"), 0.0
	if sim {
		nativeCreate, simCreate = 0, nativeCreate
	}
	res.set("native.create.ns.p50", nativeCreate, "ns")
	res.set("sim.create.ns.p50", simCreate, "ns")
	res.set("native.join.ns.p50", nat("join.p50"), "ns")
	res.set("native.create.count", nat("create.count"), "count")
	res.set("native.create.ns.late_vs_early", nat("create.late_vs_early"), "ratio")
	res.set("native.malloc.ns.p50", nat("malloc.p50"), "ns")
	res.set("native.free.ns.p50", nat("free.p50"), "ns")
	res.set("native.malloc.count", nat("malloc.count"), "count")
	res.set("native.mutex.lock.ns.p50", nat("mutex.lock.p50"), "ns")
	res.set("native.mutex.lock.ns.p90", nat("mutex.lock.p90"), "ns")
	res.set("native.cond.wait.ns.p50", nat("cond.wait.p50"), "ns")
	res.set("native.cond.signal.ns.p50", nat("cond.signal.p50"), "ns")
	res.set("sched.dispatches", agg.median("sched.dispatches"), "count")
	res.set("sched.lock.wait.ns.sum", nat("sched.lock.wait.sum"), "ns")
	res.set("sched.dispatch.wait.ns.p50", nat("sched.dispatch.wait.p50"), "ns")
	res.set("sched.resume.handoff.ns.p50", nat("sched.resume.handoff.p50"), "ns")
	res.set("dummy_threads", agg.median("dummy_threads"), "count")
	for _, l := range selfLayers {
		res.set("self."+l.name+".ms_per_exec", agg.median("self."+l.name)/1e6, "ms")
	}

	rewait := 0.0
	if waits > 0 {
		rewait = float64(rewaits) / float64(waits)
	}
	res.set("cond.rewait_frac", rewait, "frac")

	perThread := func(x float64) float64 {
		if threads == 0 {
			return 0
		}
		return x / threads
	}
	res.set("go.alloc_bytes_per_thread", perThread(allocB), "B")
	res.set("go.alloc_objects_per_thread", perThread(allocObj), "count")
	gcFrac := 0.0
	if tot := r1[3] - r0[3]; tot > 0 {
		gcFrac = (r1[2] - r0[2]) / tot
	}
	res.set("gc.cpu_frac", gcFrac, "frac")

	var idle, lockwait, vtimeMS, hostNS float64
	if sim {
		bd := lastSt.Breakdown()
		idle, lockwait = bd["idle"], bd["lockwait"]
		vtimeMS = lastSt.Time.Seconds() * 1e3
		hostNS = quantile(hostPerThread, 0.5)
	}
	res.set("sim.host_ns_per_thread", hostNS, "ns")
	res.set("sim.idle_frac", idle, "frac")
	res.set("sim.lockwait_frac", lockwait, "frac")
	res.set("sim.vtime_ms", vtimeMS, "ms")

	overhead := func(base, traced []float64) float64 {
		if p := quantile(base, 0.5); p > 0 {
			return (quantile(traced, 0.5)/p - 1) * 100
		}
		return 0
	}
	res.set("bench.trace_overhead_pct", overhead(base, traced), "%")
	res.Notes = append(res.Notes, fmt.Sprintf("trace overhead on exec_ms.p50 (wall) %.4g%%", overhead(baseWall, tracedWall)))
	return res, ss
}

// waitCounter is a program whose last execution counted its condition
// waits and the wake-ups that found the condition still false.
type waitCounter interface {
	waitStats() (waits, rewaits int)
}

func saveSpans(dir, workload string, seed int64, ss []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, ss); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printResult prints each metric on its own line, then the JSON result
// as the last line.
func printResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "executions attempted %d, failed %d, exec_fail_frac %g\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, n := range res.Notes {
		fmt.Fprintln(w, n)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", enc)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile interpolates linearly between the closest ranks; 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
