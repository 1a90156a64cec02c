package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldBench = `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 1000000, "total_hwm_bytes": 5000000, "speedup": 3.5},
    {"policy": "fifo", "procs": 4, "time_cycles": 1100000, "total_hwm_bytes": 9000000}
  ]
}`

// TestNoRegression: small improvements and identical runs pass.
func TestNoRegression(t *testing.T) {
	newBench := `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 990000, "total_hwm_bytes": 5000000, "speedup": 3.6},
    {"policy": "fifo", "procs": 4, "time_cycles": 1100000, "total_hwm_bytes": 9000000}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", newBench)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "time_cycles") {
		t.Errorf("diff output missing changed metric:\n%s", out.String())
	}
}

// TestRegressionFails: time growing past the threshold exits 1 and
// names the regression.
func TestRegressionFails(t *testing.T) {
	newBench := `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 1300000, "total_hwm_bytes": 5000000, "speedup": 3.5},
    {"policy": "fifo", "procs": 4, "time_cycles": 1100000, "total_hwm_bytes": 9000000}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", newBench)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output missing REGRESSION marker:\n%s", out.String())
	}
}

// TestSpeedupDirection: speedup shrinking is the regression, not
// growing.
func TestSpeedupDirection(t *testing.T) {
	newBench := `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 1000000, "total_hwm_bytes": 5000000, "speedup": 2.0},
    {"policy": "fifo", "procs": 4, "time_cycles": 1100000, "total_hwm_bytes": 9000000}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", newBench)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (speedup fell 43%%)\nstdout: %s", code, out.String())
	}
}

// TestZeroThresholdReportsOnly: without -threshold the tool never
// fails, it only reports.
func TestZeroThresholdReportsOnly(t *testing.T) {
	newBench := `{
  "experiment": "fig5",
  "runs": [
    {"policy": "adf", "procs": 4, "time_cycles": 9000000, "total_hwm_bytes": 5000000, "speedup": 0.5}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", newBench)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 without threshold\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "only in") {
		t.Errorf("output missing unmatched-run note:\n%s", out.String())
	}
}

// TestExperimentMismatchExits2: comparing different experiments is a
// usage error.
func TestExperimentMismatchExits2(t *testing.T) {
	other := `{"experiment": "fig9", "runs": [{"policy": "adf"}]}`
	var out, errb bytes.Buffer
	code := run([]string{writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", other)}, &out, &errb)
	if code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
}

// TestUsage: wrong arity and unreadable files exit 2.
func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("run() = %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errb); code != 2 {
		t.Fatalf("run(missing) = %d, want 2", code)
	}
}

// TestLockWaitMetric: the scheduler-lock wait histogram sum from the
// metrics snapshot is compared, -metric restricts the diff to it, and
// batch sizes key separate runs.
func TestLockWaitMetric(t *testing.T) {
	oldC := `{"experiment": "contention", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 64, "batch": 1, "time_cycles": 1000,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 100, "sum": 50000}}}},
	  {"bench": "matmul", "policy": "adf", "procs": 64, "batch": 64, "time_cycles": 900,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 10, "sum": 1000}}}}
	]}`
	newC := `{"experiment": "contention", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 64, "batch": 1, "time_cycles": 1000,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 100, "sum": 50000}}}},
	  {"bench": "matmul", "policy": "adf", "procs": 64, "batch": 64, "time_cycles": 2500,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 50, "sum": 9000}}}}
	]}`
	// Restricted to sched.lock.wait: the batch=64 row's 9x growth fails;
	// time_cycles' growth is ignored under -metric.
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10", "-metric", "sched.lock.wait",
		writeJSON(t, "old.json", oldC), writeJSON(t, "new.json", newC)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (lock wait grew 9x)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "sched.lock.wait") {
		t.Errorf("output missing sched.lock.wait metric:\n%s", out.String())
	}
	if strings.Contains(out.String(), "time_cycles") {
		t.Errorf("-metric sched.lock.wait still compared time_cycles:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "|b64") {
		t.Errorf("run key missing batch component:\n%s", out.String())
	}
}

// TestMetricFlagUnknownName: a bogus -metric name is a usage error that
// lists the known metrics.
func TestMetricFlagUnknownName(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-metric", "bogus",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", oldBench)}, &out, &errb)
	if code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "sched.lock.wait") {
		t.Errorf("error does not list known metrics:\n%s", errb.String())
	}
}

// TestZeroToNonzeroLockWait: a metric going from zero (uncontended) to
// nonzero is a regression at any threshold.
func TestZeroToNonzeroLockWait(t *testing.T) {
	oldC := `{"experiment": "contention", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 8, "batch": 4,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 0, "sum": 0}}}}
	]}`
	newC := `{"experiment": "contention", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 8, "batch": 4,
	   "metrics": {"histograms": {"sched.lock.wait": {"count": 5, "sum": 800}}}}
	]}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "50", "-metric", "sched.lock.wait",
		writeJSON(t, "old.json", oldC), writeJSON(t, "new.json", newC)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (0 -> 800)\nstdout: %s", code, out.String())
	}
}

// TestAnalysisMetricsCompared: analysis sub-metrics participate in the
// diff.
func TestAnalysisMetricsCompared(t *testing.T) {
	oldA := `{"experiment": "bound-audit", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 8, "analysis": {"work_cycles": 1000, "depth_cycles": 100, "serial_space_bytes": 500, "peak_bytes": 600}}
	]}`
	newA := `{"experiment": "bound-audit", "runs": [
	  {"bench": "matmul", "policy": "adf", "procs": 8, "analysis": {"work_cycles": 1000, "depth_cycles": 100, "serial_space_bytes": 500, "peak_bytes": 900}}
	]}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "20",
		writeJSON(t, "old.json", oldA), writeJSON(t, "new.json", newA)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (peak grew 50%%)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "analysis.peak_bytes") {
		t.Errorf("output missing analysis metric:\n%s", out.String())
	}
}

// TestNativeRunsNotGated: a native-backend row blowing past the
// threshold is reported but does not fail the diff; a sim row in the
// same file still gates.
func TestNativeRunsNotGated(t *testing.T) {
	oldB := `{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 10.0},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "sim", "wall_ms": 12.0, "time_cycles": 1000000}
  ]
}`
	// Native wall clock 3x slower, and even the sim row's host wall
	// clock moved: neither is a gate (wall_ms is report-only).
	newOK := `{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 30.0},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "sim", "wall_ms": 30.0, "time_cycles": 1000000}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldB), writeJSON(t, "new.json", newOK)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (native 3x slower is not a gate)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "not gated") {
		t.Errorf("output missing the reported-not-gated marker:\n%s", out.String())
	}

	// The sim row's virtual time regressing still fails.
	newBad := `{
  "experiment": "backends",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 10.0},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "sim", "wall_ms": 12.0, "time_cycles": 2000000}
  ]
}`
	out.Reset()
	errb.Reset()
	code = run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldB), writeJSON(t, "new.json", newBad)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (sim rows still gate)\nstdout: %s", code, out.String())
	}
}

// TestBackendInKey: rows differing only in backend are distinct runs.
func TestBackendInKey(t *testing.T) {
	oldB := `{
  "experiment": "backends",
  "runs": [{"policy": "adf", "procs": 4, "bench": "matmul", "backend": "sim", "time_cycles": 1000000}]
}`
	newB := `{
  "experiment": "backends",
  "runs": [{"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 5.0}]
}`
	var out, errb bytes.Buffer
	code := run([]string{writeJSON(t, "old.json", oldB), writeJSON(t, "new.json", newB)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "only in") {
		t.Errorf("backend-mismatched rows matched each other:\n%s", out.String())
	}
}

// TestDispatchGatesOnVOps: wall ns per dispatch is host-dependent and
// must never trip the gate, while the deterministic virtual-op count
// does — the treap-vs-depa microbench row is gated on structure work,
// not on whatever machine ran CI.
func TestDispatchGatesOnVOps(t *testing.T) {
	oldB := `{
  "experiment": "dispatch",
  "runs": [
    {"policy": "adf", "procs": 1, "live_threads": 10000, "ns_per_dispatch": 50, "vops_per_dispatch": 2.0},
    {"policy": "adf-treap", "procs": 1, "live_threads": 10000, "ns_per_dispatch": 80, "vops_per_dispatch": 18.0}
  ]
}`
	// Wall time doubles (noisy host) but vops hold: must pass.
	noisyWall := `{
  "experiment": "dispatch",
  "runs": [
    {"policy": "adf", "procs": 1, "live_threads": 10000, "ns_per_dispatch": 100, "vops_per_dispatch": 2.0},
    {"policy": "adf-treap", "procs": 1, "live_threads": 10000, "ns_per_dispatch": 160, "vops_per_dispatch": 18.0}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldB), writeJSON(t, "new.json", noisyWall)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (ns_per_dispatch is report-only)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "ns_per_dispatch") {
		t.Errorf("wall delta not reported:\n%s", out.String())
	}

	// Virtual ops regress (a structure change made dispatch do more
	// work): must fail.
	vopsRegressed := `{
  "experiment": "dispatch",
  "runs": [
    {"policy": "adf", "procs": 1, "live_threads": 10000, "ns_per_dispatch": 50, "vops_per_dispatch": 9.0},
    {"policy": "adf-treap", "procs": 1, "live_threads": 10000, "ns_per_dispatch": 80, "vops_per_dispatch": 18.0}
  ]
}`
	out.Reset()
	errb.Reset()
	code = run([]string{"-threshold", "10",
		writeJSON(t, "old.json", oldB), writeJSON(t, "new.json", vopsRegressed)}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (vops_per_dispatch gates)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "vops_per_dispatch") {
		t.Errorf("vops regression not named:\n%s", out.String())
	}
}

// obsBench builds a native-obs style file with tracer-off/on row pairs;
// pct is the on-row overhead percentage.
func obsBench(pct float64) string {
	return fmt.Sprintf(`{
  "experiment": "native-obs",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 100},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native", "wall_ms": 105,
     "tracer": true, "trace_events": 65000, "overhead_pct": %g}
  ]
}`, pct)
}

// TestMaxCeilingGatesNativeRows: -max applies to native rows the
// relative threshold exempts; tracer-on and tracer-off rows are
// distinct keys (no collision).
func TestMaxCeilingGatesNativeRows(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10", "-max", "overhead_pct=10",
		writeJSON(t, "old.json", obsBench(4.5)), writeJSON(t, "new.json", obsBench(6.0))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (6%% under a 10%% ceiling)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "only in") {
		t.Errorf("tracer rows collided or went unmatched:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-max", "overhead_pct=10",
		writeJSON(t, "old.json", obsBench(4.5)), writeJSON(t, "new.json", obsBench(17.2))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (17.2%% over a 10%% ceiling)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "EXCEEDED") || !strings.Contains(out.String(), "overhead_pct") {
		t.Errorf("ceiling violation not named:\n%s", out.String())
	}
}

// TestMaxOnlyChecksRowsWithMetric: a ceiling on overhead_pct ignores
// tracer-off rows (no overhead value) and other experiments entirely.
func TestMaxOnlyChecksRowsWithMetric(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-max", "overhead_pct=0.001",
		writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", oldBench)}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (no rows carry overhead_pct)\nstdout: %s", code, out.String())
	}
}

// TestMaxParseErrors: malformed or unknown -max entries exit 2.
func TestMaxParseErrors(t *testing.T) {
	for _, bad := range []string{"overhead_pct", "nope=10", "overhead_pct=abc"} {
		var out, errb bytes.Buffer
		code := run([]string{"-max", bad,
			writeJSON(t, "old.json", oldBench), writeJSON(t, "new.json", oldBench)}, &out, &errb)
		if code != 2 {
			t.Errorf("-max %q: run = %d, want 2\nstderr: %s", bad, code, errb.String())
		}
	}
}

// TestOverheadPctReportOnlyRelative: overhead_pct growing between two
// files never trips the relative threshold (it is host noise); only
// -max gates it.
func TestOverheadPctReportOnlyRelative(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", obsBench(2.0)), writeJSON(t, "new.json", obsBench(8.0))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (overhead_pct relative delta is report-only)\nstdout: %s", code, out.String())
	}
}

// liveObsBench builds a live-obs style file: an unsampled and a sampled
// arm of the same bench, the sampled row carrying sampler_overhead_pct
// and trace_dropped.
func liveObsBench(ovhPct, dropped float64) string {
	return fmt.Sprintf(`{
  "experiment": "live-obs",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "dtree", "backend": "native", "wall_ms": 600,
     "tracer": true, "trace_events": 190000},
    {"policy": "adf", "procs": 4, "bench": "dtree", "backend": "native", "wall_ms": 620,
     "tracer": true, "sampler": true, "samples": 22, "trace_events": 190000,
     "trace_dropped": %g, "sampler_overhead_pct": %g}
  ]
}`, dropped, ovhPct)
}

// TestSamplerRowsDistinctKeys: sampler-on and sampler-off arms of the
// same bench are separate runs, not a key collision.
func TestSamplerRowsDistinctKeys(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", liveObsBench(5, 0)), writeJSON(t, "new.json", liveObsBench(6, 0))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "only in") {
		t.Errorf("sampler rows collided or went unmatched:\n%s", out.String())
	}
}

// TestSamplerOverheadCeiling: -max sampler_overhead_pct gates the
// sampled arm like overhead_pct gates the traced arm.
func TestSamplerOverheadCeiling(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-max", "sampler_overhead_pct=10",
		writeJSON(t, "old.json", liveObsBench(5, 0)), writeJSON(t, "new.json", liveObsBench(14.5, 0))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (14.5%% over a 10%% ceiling)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "sampler_overhead_pct") || !strings.Contains(out.String(), "EXCEEDED") {
		t.Errorf("ceiling violation not named:\n%s", out.String())
	}
}

// TestTraceDroppedZeroCeiling: a live-obs row going from zero drops to
// any drops fails -max trace_dropped=0 — the drain's zero-loss
// guarantee is part of the gate, and -max (unlike the relative
// threshold) applies to native rows.
func TestTraceDroppedZeroCeiling(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-max", "trace_dropped=0",
		writeJSON(t, "old.json", liveObsBench(5, 0)), writeJSON(t, "new.json", liveObsBench(5, 0))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 with zero drops\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-max", "trace_dropped=0",
		writeJSON(t, "old.json", liveObsBench(5, 0)), writeJSON(t, "new.json", liveObsBench(5, 283))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (283 drops over a 0 ceiling)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "trace_dropped") || !strings.Contains(out.String(), "EXCEEDED") {
		t.Errorf("drop violation not named:\n%s", out.String())
	}
}

// shardBench builds a contention-sharded file: a global batched row,
// two sharded sim arms distinguished only by steal window, and a native
// sharded row carrying the lock-wait percentage.
func shardBench(lockWait float64, pct float64) string {
	return fmt.Sprintf(`{
  "experiment": "contention-sharded",
  "runs": [
    {"policy": "adf", "procs": 256, "bench": "matmul", "batch": 64, "time_cycles": 2000000, "speedup": 20,
     "metrics": {"histograms": {"sched.lock.wait": {"count": 900, "sum": 800000}}}},
    {"policy": "adf-shard", "procs": 256, "bench": "matmul", "shard": true, "steal_window": 1,
     "time_cycles": 1900000, "speedup": 21,
     "metrics": {"histograms": {"sched.lock.wait": {"count": 100, "sum": %g}}}},
    {"policy": "adf-shard", "procs": 256, "bench": "matmul", "shard": true, "steal_window": 256,
     "time_cycles": 1800000, "speedup": 22,
     "metrics": {"histograms": {"sched.lock.wait": {"count": 90, "sum": 90000}}}},
    {"policy": "adf-shard", "procs": 256, "bench": "matmul", "shard": true, "steal_window": 0,
     "backend": "native", "wall_ms": 120, "lock_wait_vs_global_pct": %g}
  ]
}`, lockWait, pct)
}

// TestShardRowsDistinctKeys: the K arms of the sharded sweep differ
// only in steal window; the run key must keep them (and the global
// baseline and the native row) from colliding.
func TestShardRowsDistinctKeys(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", shardBench(100000, 25)),
		writeJSON(t, "new.json", shardBench(100000, 25))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "only in") {
		t.Errorf("sharded rows collided or went unmatched:\n%s", out.String())
	}
}

// TestShardLockWaitGated: sched.lock.wait growth on a sharded sim row
// trips the relative threshold like any other sim row.
func TestShardLockWaitGated(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10", "-metric", "sched.lock.wait",
		writeJSON(t, "old.json", shardBench(100000, 25)),
		writeJSON(t, "new.json", shardBench(200000, 25))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (lock wait doubled)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "shard|w1") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("sharded lock-wait regression not keyed/named:\n%s", out.String())
	}
}

// TestLockWaitVsGlobalCeiling: the native lock-wait ratio is report-only
// relatively (host-dependent) but gated by -max, mirroring the overhead
// percentages; 100 means "no worse than the global store".
func TestLockWaitVsGlobalCeiling(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", shardBench(100000, 25)),
		writeJSON(t, "new.json", shardBench(100000, 95))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (relative pct change is report-only)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"-max", "lock_wait_vs_global_pct=100",
		writeJSON(t, "old.json", shardBench(100000, 25)),
		writeJSON(t, "new.json", shardBench(100000, 140))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (140%% over a 100%% ceiling)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "lock_wait_vs_global_pct") || !strings.Contains(out.String(), "EXCEEDED") {
		t.Errorf("ceiling violation not named:\n%s", out.String())
	}
}

// legacyTunedBench builds a BENCH_10-shaped file: two native rows of
// the same configuration, one per former engine, which now share a key.
func legacyTunedBench(refMS, tunedMS float64, repeat int) string {
	return fmt.Sprintf(`{
  "experiment": "native-tuned",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native",
     "engine": "reference", "wall_ms": %g, "repeat": %d},
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native",
     "engine": "tuned", "wall_ms": %g, "repeat": %d, "wall_vs_reference_pct": 90}
  ]
}`, refMS, repeat, tunedMS, repeat)
}

// wallBench builds a fresh native-tuned file: one native row.
func wallBench(ms float64, repeat int) string {
	return fmt.Sprintf(`{
  "experiment": "native-tuned",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native",
     "wall_ms": %g, "repeat": %d}
  ]
}`, ms, repeat)
}

// TestBestOldRowPerMetric: several old rows under one key are one
// baseline, compared per metric against its best value — the lowest
// for lower-is-better metrics, the highest for higher-is-better ones —
// and never reported as unmatched.
func TestBestOldRowPerMetric(t *testing.T) {
	speed := func(vs ...float64) string {
		var rows []string
		for _, v := range vs {
			rows = append(rows, fmt.Sprintf(`{"policy": "adf", "procs": 8, "speedup": %g}`, v))
		}
		return `{"experiment": "fig1", "runs": [` + strings.Join(rows, ",") + `]}`
	}
	for _, tc := range []struct {
		name, metric, threshold, old, new string
		want                              int
	}{
		// 120 ms is +20% over the worse old row (100), inside a 25%
		// budget, but +33% over the best (90): a regression in either
		// row order.
		{"wall best last", "wall_ms", "25", legacyTunedBench(100, 90, 9), wallBench(120, 9), 1},
		{"wall best first", "wall_ms", "25", legacyTunedBench(90, 100, 9), wallBench(120, 9), 1},
		{"wall within budget", "wall_ms", "25", legacyTunedBench(100, 90, 9), wallBench(110, 9), 0},
		// Higher-is-better: 3.5 is 12.5% below the best old speedup 4.
		{"speedup best last", "speedup", "10", speed(3, 4), speed(3.5), 1},
		{"speedup best first", "speedup", "10", speed(4, 3), speed(3.5), 1},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"-threshold", tc.threshold, "-metric", tc.metric,
			writeJSON(t, "old.json", tc.old), writeJSON(t, "new.json", tc.new)}, &out, &errb)
		if code != tc.want {
			t.Errorf("%s: run = %d, want %d\nstdout: %s", tc.name, code, tc.want, out.String())
		}
		if strings.Contains(out.String(), "only in") {
			t.Errorf("%s: duplicate old rows reported as unmatched:\n%s", tc.name, out.String())
		}
	}
}

// TestWallMSDefaultNotGated: without naming wall_ms in -metric, even a
// repeat>=9 native wall-clock blowup stays report-only — default
// all-metric diffs are often cross-host comparisons.
func TestWallMSDefaultNotGated(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "10",
		writeJSON(t, "old.json", legacyTunedBench(100, 90, 9)),
		writeJSON(t, "new.json", wallBench(300, 9))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (wall_ms not explicitly selected)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "not gated") {
		t.Errorf("output missing the reported-not-gated marker:\n%s", out.String())
	}
}

// TestWallMSExplicitGateOnNativeRows: -metric wall_ms on a repeated
// same-host pair is a real budget — a native row past the threshold
// fails the diff despite the usual native exemption.
func TestWallMSExplicitGateOnNativeRows(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "50", "-metric", "wall_ms",
		writeJSON(t, "old.json", legacyTunedBench(100, 90, 9)),
		writeJSON(t, "new.json", wallBench(250, 9))}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (native wall grew 178%% past a 50%% budget)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "|native") {
		t.Errorf("regression not keyed to the native row:\n%s", out.String())
	}

	// Within budget: passes.
	out.Reset()
	errb.Reset()
	code = run([]string{"-threshold", "50", "-metric", "wall_ms",
		writeJSON(t, "old.json", legacyTunedBench(100, 90, 9)),
		writeJSON(t, "new.json", wallBench(100, 9))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (10%% drift under a 50%% budget)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
}

// TestWallMSGateNeedsRepeats: the explicit wall gate only arms when
// both rows' medians cover at least 9 repetitions — single-shot wall
// times are too noisy to gate even same-host.
func TestWallMSGateNeedsRepeats(t *testing.T) {
	for _, tc := range []struct{ oldRep, newRep int }{{1, 9}, {9, 1}, {3, 3}} {
		var out, errb bytes.Buffer
		code := run([]string{"-threshold", "50", "-metric", "wall_ms",
			writeJSON(t, "old.json", legacyTunedBench(100, 90, tc.oldRep)),
			writeJSON(t, "new.json", wallBench(250, tc.newRep))}, &out, &errb)
		if code != 0 {
			t.Errorf("repeat %d->%d: run = %d, want 0 (below the repeat floor)\nstdout: %s",
				tc.oldRep, tc.newRep, code, out.String())
		}
	}
}

// TestWallMSZeroToNonzero: a row whose wall clock appears from zero
// (an old sim-style row without wall_ms) must not register an
// infinite regression — absence, not zero, is the baseline state.
func TestWallMSZeroToNonzero(t *testing.T) {
	oldB := `{
  "experiment": "native-tuned",
  "runs": [
    {"policy": "adf", "procs": 4, "bench": "matmul", "backend": "native",
     "repeat": 9}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "50", "-metric", "wall_ms",
		writeJSON(t, "old.json", oldB),
		writeJSON(t, "new.json", wallBench(90, 9))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (old row has no wall_ms to compare)\nstdout: %s", code, out.String())
	}
}

// TestWallMSMissingPair: a row with no old-file counterpart is reported
// as unmatched, never gated.
func TestWallMSMissingPair(t *testing.T) {
	oldB := `{
  "experiment": "native-tuned",
  "runs": [
    {"policy": "adf", "procs": 8, "bench": "matmul", "backend": "native",
     "wall_ms": 100, "repeat": 9}
  ]
}`
	var out, errb bytes.Buffer
	code := run([]string{"-threshold", "50", "-metric", "wall_ms",
		writeJSON(t, "old.json", oldB),
		writeJSON(t, "new.json", wallBench(250, 9))}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (row unmatched)\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "only in") {
		t.Errorf("unmatched row not reported:\n%s", out.String())
	}
}
