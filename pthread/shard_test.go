package pthread_test

// Machine-level oracles for the sharded scheduler (Policy adf-shard):
// dispatch-identity against the global ADF policy where the design
// promises it, the bounded-deviation steal property replayed from a
// recorded trace, the config validation rules, and the steal-count
// metric on both policies that steal.

import (
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/trace"
	"spthreads/pthread"
)

// shardFib is a deterministic fork/join workload with enough compute
// per node that dispatch decisions interleave with running threads.
func shardFib(t *pthread.T, n int, out *int64) {
	t.Charge(200)
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	c := t.Create(func(ct *pthread.T) { shardFib(ct, n-1, &a) })
	shardFib(t, n-2, &b)
	t.MustJoin(c)
	*out = a + b
}

func runShardTrace(t *testing.T, cfg pthread.Config, n int) []pthread.TraceEvent {
	t.Helper()
	rec := pthread.NewTraceRecorder(1 << 20)
	cfg.Tracer = rec
	var res int64
	if _, err := pthread.Run(cfg, func(th *pthread.T) { shardFib(th, n, &res) }); err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; raise the recorder cap", rec.Dropped())
	}
	return rec.Events()
}

func dispatchSeq(events []pthread.TraceEvent) []int64 {
	var seq []int64
	for _, e := range events {
		if e.Kind == trace.KindDispatch {
			seq = append(seq, e.Thread)
		}
	}
	return seq
}

// TestShardP1DispatchMatchesADF: at p=1 the sharded scheduler is one
// DePa heap, so the full dispatch sequence must be bit-identical to the
// global ADF policy on both backends.
func TestShardP1DispatchMatchesADF(t *testing.T) {
	for _, backend := range []pthread.Backend{pthread.BackendSim, pthread.BackendNative} {
		adf := dispatchSeq(runShardTrace(t, pthread.Config{
			Backend: backend, Procs: 1, Policy: pthread.PolicyADF}, 12))
		sh := dispatchSeq(runShardTrace(t, pthread.Config{
			Backend: backend, Procs: 1, Policy: pthread.PolicyADFShard}, 12))
		if len(adf) != len(sh) {
			t.Fatalf("%s: dispatch counts differ: adf=%d shard=%d", backend, len(adf), len(sh))
		}
		for i := range adf {
			if adf[i] != sh[i] {
				t.Fatalf("%s: dispatch %d diverged: adf ran %d, shard ran %d",
					backend, i, adf[i], sh[i])
			}
		}
	}
}

// TestShardStrictTraceIdentical: strict mode reports a global policy, so
// the sim machine applies the exact adf charging and the whole event
// stream — timestamps included — must be byte-identical to adf at any p.
func TestShardStrictTraceIdentical(t *testing.T) {
	for _, procs := range []int{2, 4} {
		adf := runShardTrace(t, pthread.Config{Procs: procs, Policy: pthread.PolicyADF}, 12)
		sh := runShardTrace(t, pthread.Config{
			Procs: procs, Policy: pthread.PolicyADFShard, ShardStrict: true}, 12)
		if len(adf) != len(sh) {
			t.Fatalf("p=%d: event counts differ: adf=%d shard-strict=%d", procs, len(adf), len(sh))
		}
		for i := range adf {
			if adf[i] != sh[i] {
				t.Fatalf("p=%d: event %d diverged: adf=%+v shard-strict=%+v",
					procs, i, adf[i], sh[i])
			}
		}
	}
}

// TestShardStealWithinWindowFromTrace replays a sim trace of a sharded
// run and checks the tentpole property at every KindSteal event: the
// stolen thread's rank in the left-to-right ready order is at most K.
// Labels are reconstructed by replaying KindCreate events (Arg is the
// parent id) through core.DepaLabel.Fork, exactly as the runtime
// assigns them; the ready set follows the dispatch/preempt/wake events.
func TestShardStealWithinWindowFromTrace(t *testing.T) {
	const window = 2
	events := runShardTrace(t, pthread.Config{
		Procs: 8, Policy: pthread.PolicyADFShard, StealWindow: window}, 14)

	labels := make(map[int64]*core.DepaLabel)
	ready := make(map[int64]bool)
	steals := 0
	for i, e := range events {
		switch e.Kind {
		case trace.KindCreate:
			if e.Arg == 0 {
				// Root: sole head insert, so the anchor value is arbitrary.
				l := core.HeadDepaLabel(0)
				labels[e.Thread] = &l
				ready[e.Thread] = true
				continue
			}
			parent := labels[e.Arg]
			if parent == nil {
				t.Fatalf("event %d: create of %d from unknown parent %d", i, e.Thread, e.Arg)
			}
			l := parent.Fork()
			labels[e.Thread] = &l
			// The child runs immediately (sharded forks always preempt the
			// parent); it never enters the ready order.
		case trace.KindPreempt, trace.KindWake:
			ready[e.Thread] = true
		case trace.KindDispatch:
			delete(ready, e.Thread)
		case trace.KindSteal:
			steals++
			stolen := labels[e.Thread]
			if stolen == nil {
				t.Fatalf("event %d: steal of unlabeled thread %d", i, e.Thread)
			}
			if !ready[e.Thread] {
				t.Fatalf("event %d: steal of non-ready thread %d", i, e.Thread)
			}
			rank := 0
			for id := range ready {
				if id != e.Thread && labels[id].Compare(*stolen) < 0 {
					rank++
				}
			}
			if rank > window {
				t.Fatalf("event %d: stole rank-%d thread %d, window %d", i, rank, e.Thread, window)
			}
		}
	}
	if steals == 0 {
		t.Fatal("no steals observed at p=8; the property test exercised nothing")
	}
}

// Config validation for the shard knobs, one test per rejection rule.

func TestRejectStealWindowWithoutShard(t *testing.T) {
	mustReject(t, pthread.Config{StealWindow: 4},
		"StealWindow requires the sharded scheduler")
}

func TestRejectShardStrictWithoutShard(t *testing.T) {
	mustReject(t, pthread.Config{ShardStrict: true},
		"ShardStrict requires the sharded scheduler")
}

func TestRejectNegativeStealWindow(t *testing.T) {
	mustReject(t, pthread.Config{Policy: pthread.PolicyADFShard, StealWindow: -1},
		"negative StealWindow")
}

func TestRejectShardWithBatchedMode(t *testing.T) {
	mustReject(t, pthread.Config{Policy: pthread.PolicyADFShard, SchedMode: pthread.SchedVolunteer},
		"mutually exclusive")
}

// TestStealCountMetric: both stealing policies expose their steal
// traffic as sched.steal.count; the sharded policy additionally counts
// window rejections.
func TestStealCountMetric(t *testing.T) {
	for _, tc := range []struct {
		policy pthread.Policy
		window int
	}{
		{pthread.PolicyADFShard, 1},
		{pthread.PolicyWS, 0},
	} {
		reg := pthread.NewMetrics()
		cfg := pthread.Config{Procs: 8, Policy: tc.policy, StealWindow: tc.window, Metrics: reg}
		var res int64
		if _, err := pthread.Run(cfg, func(th *pthread.T) { shardFib(th, 14, &res) }); err != nil {
			t.Fatalf("%s: %v", tc.policy, err)
		}
		snap := reg.Snapshot()
		n, ok := snap.Counters["sched.steal.count"]
		if !ok {
			t.Fatalf("%s: sched.steal.count missing from %v", tc.policy, snap.Counters)
		}
		if n == 0 {
			t.Errorf("%s: no steals counted at p=8", tc.policy)
		}
		if tc.policy == pthread.PolicyADFShard {
			if _, ok := snap.Counters["sched.steal.window_reject"]; !ok {
				t.Errorf("%s: sched.steal.window_reject missing", tc.policy)
			}
		}
	}
}

// TestShardNativeRuns: the sharded native backend completes a real
// fork/join workload at several worker counts and steal windows with
// correct results (run under -race in CI, covering the per-shard lock
// and Dekker wakeup paths).
func TestShardNativeRuns(t *testing.T) {
	for _, procs := range []int{1, 4, 16} {
		for _, window := range []int{0, 1} {
			cfg := pthread.Config{
				Backend: pthread.BackendNative, Procs: procs,
				Policy: pthread.PolicyADFShard, StealWindow: window,
			}
			var res int64
			if _, err := pthread.Run(cfg, func(th *pthread.T) { shardFib(th, 14, &res) }); err != nil {
				t.Fatalf("p=%d w=%d: %v", procs, window, err)
			}
			if res != 377 {
				t.Fatalf("p=%d w=%d: fib(14) = %d, want 377", procs, window, res)
			}
		}
	}
}

// TestShardNativeStrict covers the strict (sequential-steal) native
// path plus the sleep path, whose sharded wake runs the three-phase
// push protocol.
func TestShardNativeStrict(t *testing.T) {
	cfg := pthread.Config{
		Backend: pthread.BackendNative, Procs: 4,
		Policy: pthread.PolicyADFShard, ShardStrict: true,
	}
	var res int64
	if _, err := pthread.Run(cfg, func(th *pthread.T) {
		th.Sleep(1000)
		shardFib(th, 12, &res)
	}); err != nil {
		t.Fatal(err)
	}
	if res != 144 {
		t.Fatalf("fib(12) = %d, want 144", res)
	}
}
