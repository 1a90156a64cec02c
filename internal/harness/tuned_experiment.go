package harness

// The native-tuned experiment: the seven-benchmark matrix at fine
// thread granularity on the native backend, reporting the median wall
// time per program. It keeps the id under which BENCH_10.json
// committed its baseline; the wall times are host-dependent and gated
// only by the generous same-host wall_ms threshold.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"spthreads/internal/barneshut"
	"spthreads/internal/dtree"
	"spthreads/internal/fft"
	"spthreads/internal/fmm"
	"spthreads/internal/matmul"
	"spthreads/internal/spmv"
	"spthreads/internal/volrend"
	"spthreads/pthread"
)

func init() {
	register(Experiment{
		ID:    "native-tuned",
		Title: tunedTitle,
		What:  "Native thread-lifecycle cost (DESIGN 14): pooled loops and record arenas on fine-grained programs",
		Run:   runNativeTuned,
		JSON:  jsonNativeTuned,
	})
}

const tunedTitle = "Native thread lifecycle, wall clock per fine-grained program"

// tunedProcs is the default sweep: the acceptance point p=4. The
// lifecycle's cost is a per-fork and per-allocation constant factor,
// so one contended processor count exposes it; -procs widens the sweep
// when wanted.
var tunedProcs = []int{4}

// tunedBenches is the lifecycle-cost workload matrix: all seven paper
// benchmarks, at deliberately finer thread granularity than the
// scale's default sizes. The measurement must drive the per-thread and
// per-allocation paths hard enough to rise above host noise — the
// fine-grained regime the paper's runtime exists to make cheap.
// Compute sizes stay small; thread counts go up (each program forks
// hundreds to tens of thousands of threads).
func tunedBenches(paper bool) []struct {
	name string
	prog func(*pthread.T)
} {
	mm := matmul.Config{N: 256, Leaf: 16}
	bh := barneshut.Config{N: 3000, Steps: 1, InsertChunk: 32, SubtreeLeaves: 2}
	dt := dtree.Config{Gen: dtree.GenConfig{Instances: 20000, Attrs: 4}, MinLeaf: 125}
	ff := fft.Config{LogN: 14, Threads: 256}
	sp := spmv.Config{Gen: spmv.GenConfig{Nodes: 6000, TargetNNZ: 30000}, Iterations: 10, FineThreads: 256}
	fm := fmm.Config{N: 2000, Levels: 4, NeighborChunk: 5, CellBatch: 1}
	vr := volrend.Config{Gen: volrend.GenConfig{W: 64}, ImageSize: 128, Frames: 1, TilesPerThread: 1}
	if paper {
		mm = matmul.Config{N: 512, Leaf: 16}
		bh = barneshut.Config{N: 12000, Steps: 1, InsertChunk: 32, SubtreeLeaves: 2}
		dt = dtree.Config{Gen: dtree.GenConfig{Instances: 133999, Attrs: 4}, MinLeaf: 250}
		ff = fft.Config{LogN: 18, Threads: 512}
		sp = spmv.Config{Iterations: 20, FineThreads: 512}
		fm = fmm.Config{N: 10000, Levels: 5, NeighborChunk: 5, CellBatch: 1}
		vr = volrend.Config{Gen: volrend.GenConfig{W: 128}, ImageSize: 256, Frames: 1, TilesPerThread: 1}
	}
	return []struct {
		name string
		prog func(*pthread.T)
	}{
		{"matmul", matmul.Fine(mm)},
		{"bhut", barneshut.Fine(bh)},
		{"dtree", dtree.Fine(dt)},
		{"fft", fft.Program(ff)},
		{"spmv", spmv.Fine(sp)},
		{"fmm", fmm.Fine(fm)},
		{"volrend", volrend.Fine(vr)},
	}
}

// tunedMeasurement is one repetition's outcome.
type tunedMeasurement struct {
	st pthread.Stats
	ms float64
}

func tunedOnce(procs int, prog func(*pthread.T)) tunedMeasurement {
	// Start every repetition from a collected heap so a GC cycle
	// inherited from the previous run cannot land inside this
	// measurement.
	runtime.GC()
	cfg := backendConfig(pthread.BackendNative, procs)
	cfg.Metrics = pthread.NewMetrics()
	start := time.Now()
	st := run(cfg, prog)
	return tunedMeasurement{st: st, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
}

// tunedRun measures prog repeat times and returns the median-wall-time
// repetition.
func tunedRun(procs int, prog func(*pthread.T), repeat int) tunedMeasurement {
	runs := make([]tunedMeasurement, 0, repeat)
	for i := 0; i < repeat; i++ {
		runs = append(runs, tunedOnce(procs, prog))
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].ms < runs[j].ms })
	return runs[len(runs)/2]
}

func runNativeTuned(w io.Writer, opt Options) error {
	repeat := opt.repeatCount()
	fmt.Fprintf(w, "Native backend, ADF policy; wall clock is the median of %d run(s) per row.\n", repeat)
	fmt.Fprintln(w)
	tb := newTable(w)
	tb.row("bench", "procs", "wall ms", "threads", "peak KB")
	for _, b := range tunedBenches(opt.paper()) {
		for _, p := range opt.procs(tunedProcs) {
			m := tunedRun(p, b.prog, repeat)
			tb.row(b.name, p, fmt.Sprintf("%.2f", m.ms), m.st.ThreadsCreated,
				fmt.Sprintf("%.0f", float64(m.st.TotalHWM)/1024))
		}
	}
	tb.flush()
	return nil
}

func jsonNativeTuned(opt Options) (*BenchResult, error) {
	repeat := opt.repeatCount()
	res := &BenchResult{Experiment: "native-tuned", Scale: scaleName(opt), Title: tunedTitle}
	for _, b := range tunedBenches(opt.paper()) {
		for _, p := range opt.procs(tunedProcs) {
			m := tunedRun(p, b.prog, repeat)
			row := statsRun(pthread.PolicyADF, p, m.st)
			row.Bench = b.name
			row.Backend = string(pthread.BackendNative)
			row.WallMS = m.ms
			row.Repeat = repeat
			// Native virtual time is wall-derived and host-dependent;
			// leave only the wall clock.
			row.TimeCycles, row.TimeUS = 0, 0
			res.Runs = append(res.Runs, row)
		}
	}
	return res, nil
}
