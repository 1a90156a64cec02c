package analyze_test

import (
	"bytes"
	"strings"
	"testing"

	"spthreads/internal/analyze"
	"spthreads/internal/matmul"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// The tests in this file check the trace analyzer against the machine's
// own online accounting (pthread.Stats) on real sim runs.

// runTraced runs main on the sim with a trace recorder attached and
// analyzes the recorded trace.
func runTraced(t *testing.T, cfg pthread.Config, main func(*pthread.T)) (pthread.Stats, *analyze.Report) {
	t.Helper()
	rec := pthread.NewTraceRecorder(0)
	cfg.Tracer = rec
	st, err := pthread.Run(cfg, main)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze.Analyze(rec, analyze.Options{DefaultStack: cfg.DefaultStack})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedEvents != 0 {
		t.Fatalf("%d trace events dropped: the comparison needs the whole run", rep.DroppedEvents)
	}
	return st, rep
}

// matmulCfg is fine-grained matmul under ADF with the quota off (pure
// execution, no dummy threads) and the paper's small stacks.
func matmulCfg(procs int) pthread.Config {
	return pthread.Config{
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		MemQuota:     1 << 30,
		DefaultStack: pthread.SmallStackSize,
	}
}

var matmulProgram = matmul.Fine(matmul.Config{N: 128, Leaf: 32})

// TestSerialSpacePredictsMeasurement: the analyzer's serial depth-first
// replay reproduces the footprint high-water mark (heap plus stacks) of
// an actual 1-processor depth-first execution exactly.
func TestSerialSpacePredictsMeasurement(t *testing.T) {
	st, rep := runTraced(t, matmulCfg(1), matmulProgram)
	if rep.SerialSpace != st.TotalHWM {
		t.Errorf("replayed S1 = %d B, measured 1-processor footprint = %d B", rep.SerialSpace, st.TotalHWM)
	}
}

// TestMatchesRuntimeStats: on a 4-processor run the reconstructed DAG
// has every created thread, and its work and depth agree with the
// machine's online Work and Span.
func TestMatchesRuntimeStats(t *testing.T) {
	st, rep := runTraced(t, matmulCfg(4), matmulProgram)
	if int64(rep.Threads) != st.ThreadsCreated {
		t.Errorf("reconstructed threads %d != created %d", rep.Threads, st.ThreadsCreated)
	}
	// W sums each thread's dispatch-to-close occupancy, which also
	// covers the scheduler and lock-wait time (ProcStats.Sched and
	// LockWait) charged while the thread holds its processor; Stats.Work
	// counts only user work, thread operations and memory time. So
	// W >= Stats.Work; this run measures 1.086x (1.087x at p=1). The
	// 1.15 ceiling leaves room for cost-model changes but fails on a
	// double-counted segment class or on scheduler time doubling.
	if w, sw := float64(rep.Work), float64(st.Work); w < sw || w > 1.15*sw {
		t.Errorf("trace work %v vs stats work %v: want within [1, 1.15]x", rep.Work, st.Work)
	}
	// The online span and the replayed depth attribute join-time costs
	// slightly differently (measured 4.107 vs 4.046 ms).
	if d, s := float64(rep.Depth), float64(st.Span); d < 0.9*s || d > 1.1*s {
		t.Errorf("trace depth %v vs runtime span %v (>10%% apart)", rep.Depth, st.Span)
	}
}

// TestDepthScalesWithTreeDepth (property-flavored): a deeper fork tree
// has a longer depth, but depth grows linearly in tree depth while work
// grows exponentially.
func TestDepthScalesWithTreeDepth(t *testing.T) {
	build := func(depth int) *analyze.Report {
		var rec func(tt *pthread.T, d int)
		rec = func(tt *pthread.T, d int) {
			tt.Charge(200000) // dwarf the per-thread overheads
			if d == 0 {
				return
			}
			tt.Par(
				func(ct *pthread.T) { rec(ct, d-1) },
				func(ct *pthread.T) { rec(ct, d-1) },
			)
		}
		_, rep := runTraced(t, pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
			rec(tt, depth)
		})
		return rep
	}
	shallow := build(3)
	deep := build(6)
	if deep.Depth <= shallow.Depth {
		t.Errorf("depth(6) = %v <= depth(3) = %v", deep.Depth, shallow.Depth)
	}
	if deep.Work <= 4*shallow.Work {
		t.Errorf("work should grow ~8x: %v vs %v", deep.Work, shallow.Work)
	}
	if float64(deep.Depth) > 3*float64(shallow.Depth) {
		t.Errorf("depth grew too fast: %v vs %v", deep.Depth, shallow.Depth)
	}
}

// TestDOTHandBuiltGraph checks W, D, S1 and the DOT rendering on a
// hand-built serial trace: root works 10, forks A (works 30, allocates
// 96 B and frees it), forks B (works 20), joins both, works 5.
func TestDOTHandBuiltGraph(t *testing.T) {
	const stack = 8 << 10
	rec := trace.NewRecorder(0)
	create := func(at vtime.Time, id, parent int64) {
		rec.RecordArg(at, 0, id, trace.KindCreate, parent)
		rec.RecordArg(at, 0, id, trace.KindStackAlloc, stack)
	}
	create(0, 1, 0)
	rec.Record(0, 0, 1, trace.KindDispatch)
	create(10, 2, 1)
	rec.Record(10, 0, 1, trace.KindPreempt)
	rec.Record(10, 0, 2, trace.KindDispatch)
	rec.RecordArg(40, 0, 2, trace.KindAlloc, 96)
	rec.RecordArg(40, 0, 2, trace.KindFree, 96)
	rec.Record(40, 0, 2, trace.KindExit)
	rec.Record(40, 0, 1, trace.KindDispatch)
	create(40, 3, 1)
	rec.Record(40, 0, 1, trace.KindPreempt)
	rec.Record(40, 0, 3, trace.KindDispatch)
	rec.Record(60, 0, 3, trace.KindExit)
	rec.Record(60, 0, 1, trace.KindDispatch)
	rec.RecordArg(60, 0, 1, trace.KindJoin, 2)
	rec.RecordArg(60, 0, 1, trace.KindJoin, 3)
	rec.Record(65, 0, 1, trace.KindExit)

	rep, err := analyze.Analyze(rec, analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work != 65 {
		t.Errorf("W = %d, want 65", rep.Work)
	}
	// Depth: root's 10, then the longer child (30), then the tail 5.
	if rep.Depth != 45 {
		t.Errorf("D = %d, want 45", rep.Depth)
	}
	// Serial depth-first: the root's and A's stacks plus A's 96 B.
	if want := int64(2*stack + 96); rep.SerialSpace != want {
		t.Errorf("S1 = %d, want %d", rep.SerialSpace, want)
	}

	var buf bytes.Buffer
	if err := analyze.WriteDOT(&buf, rec); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, frag := range []string{
		"digraph computation {",
		`t2 [label="t2\n0.2us"];`, // 30 cycles at 167 cycles/us
		"t1 -> t2;", "t1 -> t3;",
		"t2 -> t1 [style=dashed];", "t3 -> t1 [style=dashed];",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
	if err := analyze.WriteDOT(&buf, trace.NewRecorder(0)); err == nil {
		t.Error("WriteDOT accepted an empty trace")
	}
}
