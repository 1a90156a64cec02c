package pthread_test

// Config validation: Run must reject invalid configurations with a
// descriptive error instead of misbehaving at runtime. One test per
// rejection rule in newBackend.

import (
	"strings"
	"testing"
	"time"

	"spthreads/pthread"
)

func mustReject(t *testing.T, cfg pthread.Config, want string) {
	t.Helper()
	_, err := pthread.Run(cfg, func(*pthread.T) {})
	if err == nil {
		t.Fatalf("Run accepted %+v, want error containing %q", cfg, want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to contain %q", err, want)
	}
}

func TestRejectNegativeProcs(t *testing.T) {
	mustReject(t, pthread.Config{Procs: -1}, "negative Procs")
}

func TestRejectUnknownSchedMode(t *testing.T) {
	mustReject(t, pthread.Config{SchedMode: "hierarchical"}, `unknown SchedMode "hierarchical"`)
}

func TestRejectUnknownPolicy(t *testing.T) {
	mustReject(t, pthread.Config{Policy: "fair-share"}, "fair-share")
}

func TestRejectUnknownBackend(t *testing.T) {
	mustReject(t, pthread.Config{Backend: "threads"}, `unknown Backend "threads"`)
}

func TestRejectBatchedModeWithoutBatchNexter(t *testing.T) {
	for _, mode := range []pthread.SchedMode{pthread.SchedVolunteer, pthread.SchedDedicated} {
		mustReject(t, pthread.Config{Policy: pthread.PolicyFIFO, SchedMode: mode},
			"batch-capable policy")
	}
}

func TestBatchOfOneDegeneratesToDirect(t *testing.T) {
	// SchedBatch = 1 is the documented escape hatch: it runs the direct
	// scheduler, so any policy is acceptable.
	cfg := pthread.Config{Policy: pthread.PolicyFIFO, SchedMode: pthread.SchedVolunteer, SchedBatch: 1}
	if _, err := pthread.Run(cfg, func(*pthread.T) {}); err != nil {
		t.Fatalf("SchedBatch=1 rejected: %v", err)
	}
}

func TestRejectNativeDAG(t *testing.T) {
	// The DAG recorder stays sim-only; the error must name the
	// alternative (trace the run, analyze offline).
	cfg := pthread.Config{Backend: pthread.BackendNative, DAG: pthread.NewDAGBuilder()}
	mustReject(t, cfg, "run with Tracer and feed the trace to ptanalyze")
}

func TestRejectSimSampleInterval(t *testing.T) {
	// Live introspection is native-only; each option gets its own rule
	// naming the constraint and the post-mortem alternative.
	cfg := pthread.Config{SampleInterval: 100 * time.Millisecond}
	mustReject(t, cfg, "SampleInterval needs the native backend")
}

func TestRejectSimSpaceEnvelope(t *testing.T) {
	cfg := pthread.Config{SpaceEnvelope: 1 << 20}
	mustReject(t, cfg, "SpaceEnvelope needs the native backend")
}

func TestRejectSimDebugAddr(t *testing.T) {
	cfg := pthread.Config{DebugAddr: "127.0.0.1:0"}
	mustReject(t, cfg, "DebugAddr needs the native backend")
}

func TestRejectNegativeSampleInterval(t *testing.T) {
	cfg := pthread.Config{Backend: pthread.BackendNative, SampleInterval: -time.Second}
	mustReject(t, cfg, "negative SampleInterval")
}

func TestRejectNegativeSpaceEnvelope(t *testing.T) {
	cfg := pthread.Config{Backend: pthread.BackendNative, SpaceEnvelope: -1}
	mustReject(t, cfg, "negative SpaceEnvelope")
}

func TestNativeTracerAccepted(t *testing.T) {
	// Lifting the old blanket rejection: a native run with a Tracer
	// attached records a wall-ns event stream ending in a clean run-end.
	rec := pthread.NewTraceRecorder(1 << 16)
	cfg := pthread.Config{Backend: pthread.BackendNative, Procs: 2, Tracer: rec}
	if _, err := pthread.Run(cfg, func(t *pthread.T) { t.Charge(100) }); err != nil {
		t.Fatalf("native run with Tracer rejected: %v", err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("no events recorded")
	}
}

func TestEmptyConfigDefaults(t *testing.T) {
	// The zero Config runs: 1 proc, ADF, sim backend, direct mode.
	st, err := pthread.Run(pthread.Config{}, func(t *pthread.T) { t.Charge(100) })
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if st.Policy != string(pthread.PolicyADF) {
		t.Errorf("default policy = %q, want adf", st.Policy)
	}
}
