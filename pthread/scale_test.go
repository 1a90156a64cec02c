package pthread_test

// Scale invariance of the fork path: a thread's create cost must not
// grow with the number of forks its parent has already made. Go bytes
// allocated per thread stand in for that cost — they are deterministic
// enough to gate, and an ordering check that walks a growing label
// shows up in them directly.

import (
	"runtime"
	"testing"

	"spthreads/pthread"
)

// forkAllJoinAll runs a root that forks n empty children and then joins
// them all, and returns the Go heap bytes allocated per thread.
func forkAllJoinAll(t *testing.T, cfg pthread.Config, n int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := pthread.Run(cfg, func(th *pthread.T) {
		hs := make([]*pthread.Thread, n)
		for i := range hs {
			hs[i] = th.Create(func(*pthread.T) {})
		}
		th.JoinAll(hs...)
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Run(n=%d): %v", n, err)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestForkScaleInvariance: on one processor, Go bytes allocated per
// thread for a flat fork-all/join-all root at 16n stay within 1.25× of
// the value at n, under the ADF-family policies on both backends.
func TestForkScaleInvariance(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation distorts allocation counts")
	}
	const n = 2000
	for _, c := range []struct {
		name string
		cfg  pthread.Config
	}{
		{"sim/adf", pthread.Config{Policy: pthread.PolicyADF}},
		{"sim/adf-shard", pthread.Config{Policy: pthread.PolicyADFShard}},
		{"native/adf", pthread.Config{Backend: pthread.BackendNative, Policy: pthread.PolicyADF}},
		{"native/adf-shard", pthread.Config{Backend: pthread.BackendNative, Policy: pthread.PolicyADFShard}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Procs = 1
			c.cfg.DefaultStack = pthread.SmallStackSize
			small := forkAllJoinAll(t, c.cfg, n)
			large := forkAllJoinAll(t, c.cfg, 16*n)
			t.Logf("bytes/thread: n=%d %.0f, n=%d %.0f (ratio %.2f)", n, small, 16*n, large, large/small)
			if large > 1.25*small {
				t.Fatalf("bytes/thread grew %.2f× from n=%d to n=%d (%.0f → %.0f B), want ≤ 1.25×",
					large/small, n, 16*n, small, large)
			}
		})
	}
}
