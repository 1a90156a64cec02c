// Package pthread is a Pthreads-style lightweight-threads library with
// pluggable, space-efficient scheduling, running on a deterministic
// simulated multiprocessor or natively on real goroutines.
//
// It reproduces the system studied in "Pthreads for Dynamic and
// Irregular Parallelism" (Narlikar & Blelloch, SC 1998): programs create
// one lightweight thread per parallel task — thousands of them — and the
// library schedules the threads onto virtual processors. The scheduling
// policy is selectable per run:
//
//   - PolicyFIFO — the original Solaris queue (breadth-first unfolding);
//   - PolicyLIFO — the paper's LIFO modification;
//   - PolicyADF  — the paper's space-efficient scheduler with memory
//     quotas and dummy-thread throttling (S_1 + O(p·D) space);
//   - PolicyWS   — a Cilk-style work-stealing baseline (p·S_1 space).
//
// A minimal program:
//
//	cfg := pthread.Config{Procs: 8, Policy: pthread.PolicyADF}
//	stats, err := pthread.Run(cfg, func(t *pthread.T) {
//		h := t.Create(func(t *pthread.T) { t.Charge(1000) })
//		t.MustJoin(h)
//	})
//
// Computation is charged in virtual cycles with Charge; memory is
// tracked through Malloc/Free/Touch. Run returns deterministic Stats —
// makespan, critical path, memory high-water marks, and per-processor
// time breakdowns — for a fixed Config.
//
// The execution substrate is selectable through Config.Backend: the
// default BackendSim runs on the deterministic virtual-time machine,
// while BackendNative runs the same program on real goroutines
// multiplexed over worker goroutines, scheduled by the same policies
// behind a real scheduler lock and timed by the wall clock (results are
// then machine- and load-dependent, not deterministic).
package pthread

import (
	"fmt"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/dag"
	"spthreads/internal/exec"
	"spthreads/internal/metrics"
	"spthreads/internal/native"
	"spthreads/internal/obs"
	"spthreads/internal/sched"
	"spthreads/internal/spaceprof"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Policy names a scheduling policy.
type Policy = sched.Kind

// Available scheduling policies.
const (
	PolicyFIFO = sched.FIFO
	PolicyLIFO = sched.LIFO
	PolicyADF  = sched.ADF
	// PolicyADFTreap is the ADF scheduler with its previous
	// order-statistic treap store instead of the default DePa fork-path
	// labels — identical dispatch order, kept selectable as a
	// differential oracle and for dispatch-cost comparison.
	PolicyADFTreap = sched.ADFTreap
	// PolicyADFShard is the ADF scheduler over per-worker ready shards
	// with bounded-deviation work stealing: same placeholder discipline
	// and dispatch order as PolicyADF at p=1, but the ready store (and on
	// the native backend the scheduler lock) is split per worker, with
	// steals restricted to threads within Config.StealWindow of the
	// global leftmost-ready position. It cannot be combined with the
	// batched SchedModes: sharding removes the global serial point that
	// batching only amortizes.
	PolicyADFShard = sched.ADFShard
	PolicyWS       = sched.WS
	// PolicyDFD is a simplified DFDeques scheduler: the paper's
	// future-work direction combining space efficiency with locality
	// (threads close in the computation graph run on the same
	// processor).
	PolicyDFD = sched.DFD
	// PolicyRR is POSIX SCHED_RR: a prioritized FIFO queue with
	// involuntary time slicing.
	PolicyRR = sched.RR
)

// Backend names an execution backend.
type Backend string

// Available execution backends.
const (
	// BackendSim is the deterministic virtual-time simulated machine
	// (the default; an empty Backend selects it).
	BackendSim Backend = "sim"
	// BackendNative runs lightweight threads as real goroutines on
	// worker goroutines, with wall-clock timing. Runs are not
	// deterministic; Tracer is supported (wall-ns timestamps via
	// per-worker event rings), the DAG recorder is not — analyze the
	// recorded trace with ptanalyze instead.
	BackendNative Backend = "native"
)

// Backends lists the selectable execution backends, for command-line
// validation and enumeration.
func Backends() []Backend { return []Backend{BackendSim, BackendNative} }

// Stack size presets: the Solaris library default and the paper's
// reduced one-page default.
const (
	DefaultStackSize = core.DefaultStackSize
	SmallStackSize   = core.SmallStackSize
)

// DefaultMemQuota is the ADF scheduler's default per-schedule allocation
// quota K.
const DefaultMemQuota = sched.DefaultMemQuota

// SchedMode selects the scheduler-lock discipline (see Config.SchedMode).
type SchedMode = core.SchedMode

// Scheduler-lock disciplines for global-queue policies.
const (
	// SchedDirect takes the global scheduler lock on every ready-queue
	// operation (the paper's original scheduler; the default).
	SchedDirect = core.SchedDirect
	// SchedVolunteer enables the paper's two-level Q_in/R/Q_out batching
	// with workers volunteering to run the scheduler pass on Q_out
	// underflow.
	SchedVolunteer = core.SchedVolunteer
	// SchedDedicated runs the batched scheduler pass on a dedicated
	// virtual scheduler processor; workers never touch the global lock.
	SchedDedicated = core.SchedDedicated
)

// Attr carries thread-creation attributes (stack size, priority,
// detached state, name), mirroring pthread_attr_t.
type Attr = core.Attr

// Alloc names a simulated heap allocation returned by T.Malloc.
type Alloc = core.Alloc

// Stats summarizes a completed run; see core.Stats for the fields.
type Stats = core.Stats

// Config describes one run.
type Config struct {
	// Procs is the number of virtual processors (default 1; under
	// BackendNative the number of worker goroutines, default
	// GOMAXPROCS). Negative values are rejected.
	Procs int
	// Policy selects the scheduler (default PolicyADF).
	Policy Policy
	// Backend selects the execution substrate (default BackendSim).
	Backend Backend
	// MemQuota overrides ADF's allocation quota K in bytes.
	MemQuota int64
	// DisableDummies turns off ADF's dummy-thread throttling.
	DisableDummies bool
	// DefaultStack is the default thread stack size (default 1 MB, the
	// Solaris library value; the paper recommends SmallStackSize).
	DefaultStack int64
	// PhysMem is simulated physical memory in bytes (default 2 GB).
	PhysMem int64
	// TLBEntries sizes the per-processor TLB model (default 64).
	TLBEntries int
	// Seed drives work-stealing victim selection (default 1).
	Seed int64
	// TimeSlice is the round-robin quantum for PolicyRR (default 10
	// virtual milliseconds).
	TimeSlice vtime.Duration
	// CostModel overrides the calibrated virtual-time cost model.
	CostModel *vtime.CostModel
	// MaxSteps aborts runaway simulations.
	MaxSteps int64
	// Quantum bounds the virtual time a thread runs between handoffs to
	// the coordinator (default 250 virtual microseconds); it controls
	// interleaving granularity, not scheduling.
	Quantum vtime.Duration
	// SchedMode selects the scheduler-lock discipline for global-queue
	// policies: SchedDirect (default, per-operation locking) or the
	// batched SchedVolunteer / SchedDedicated two-level schemes. The
	// batched modes require a policy with ordered batch removal
	// (PolicyADF).
	SchedMode SchedMode
	// SchedBatch is the per-processor Q_out capacity B for the batched
	// modes (default 8); SchedBatch = 1 degenerates to SchedDirect
	// exactly.
	SchedBatch int
	// StealWindow is the sharded scheduler's deviation bound K: a worker
	// out of local work may steal a thread only if at most K ready
	// threads precede it in the serial depth-first order. 0 selects the
	// default (Procs); negative values are rejected; it requires
	// PolicyADFShard.
	StealWindow int
	// ShardStrict puts the sharded scheduler in its sequential-steal
	// deterministic mode: every dispatch takes the globally leftmost
	// ready thread under global-lock charging, making sim schedules
	// bit-identical to PolicyADF at any proc count. A testing/debugging
	// mode; it requires PolicyADFShard.
	ShardStrict bool
	// Tracer, when non-nil, records scheduler events for later
	// inspection (Gantt charts, per-thread summaries, pttrace exports,
	// ptanalyze). On the sim backend timestamps are virtual cycles and
	// recording does not affect virtual time; on the native backend
	// workers record into per-worker lock-free rings with wall-clock-ns
	// timestamps, merged into the recorder (unit wall-ns) at run end.
	Tracer *trace.Recorder
	// DAG, when non-nil, records the computation graph for offline
	// analysis (work, span, serial space S1, DOT export); attach a
	// *dag.Builder from NewDAGBuilder. Sim backend only: on the native
	// backend, run with Tracer and feed the trace to ptanalyze.
	DAG *dag.Builder
	// Metrics, when non-nil, collects scheduler/memory instruments
	// (dispatch latencies, lock waits, quota preemptions, ADF
	// placeholder-list length, ...); the final snapshot is returned in
	// Stats.Metrics. Attach a registry from NewMetrics.
	Metrics *metrics.Registry
	// SpaceProf, when non-nil, samples the live heap/stack footprint and
	// thread count at every footprint change, producing the run's
	// space-over-time curve. Attach a profiler from NewSpaceProfiler.
	SpaceProf *spaceprof.Profiler
	// SampleInterval, when > 0, runs a live sampler goroutine that
	// snapshots the metrics registry and the scheduler's state at that
	// period while the run is hot (DebugAddr implies a 100ms default).
	// Native backend only: the sim is a single-goroutine virtual-time
	// execution with nothing to observe mid-run.
	SampleInterval time.Duration
	// SpaceEnvelope, when > 0, arms the live space watchdog with a
	// fitted S1 + c·p·D envelope in bytes (take it from a ptanalyze
	// report): each sample compares the live heap+stack footprint
	// against it, emitting a KindEnvelopeCross trace event and a
	// crossings counter on every rising edge. Native backend only.
	SpaceEnvelope int64
	// DebugAddr, when non-empty, serves the HTTP debug endpoint on that
	// address for the duration of the run: /metrics (Prometheus text
	// exposition), /statusz (live JSON status), /debug/pprof, and
	// /trace?follow=1 (streaming JSONL trace tail; needs Tracer).
	// Native backend only.
	DebugAddr string
}

// Policies lists every selectable scheduling policy name, in a stable
// order, for command-line validation and enumeration.
func Policies() []Policy { return sched.Kinds() }

// newBackend is the single constructor from a Config to an execution
// backend: it validates the configuration, builds the scheduling
// policy, and maps the public fields onto the selected backend's
// configuration. Every Run goes through here, so there is exactly one
// place where pthread.Config fields translate to runtime settings.
func newBackend(cfg Config) (exec.Backend, error) {
	if cfg.Procs < 0 {
		return nil, fmt.Errorf("pthread: negative Procs (%d)", cfg.Procs)
	}
	switch cfg.SchedMode {
	case "":
		cfg.SchedMode = core.SchedDirect
	case core.SchedDirect, core.SchedVolunteer, core.SchedDedicated:
	default:
		return nil, fmt.Errorf("pthread: unknown SchedMode %q", string(cfg.SchedMode))
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyADF
	}
	sharded := cfg.Policy == PolicyADFShard
	if !sharded {
		if cfg.StealWindow != 0 {
			return nil, fmt.Errorf("pthread: StealWindow requires the sharded scheduler (set Policy adf-shard; have policy %q)", cfg.Policy)
		}
		if cfg.ShardStrict {
			return nil, fmt.Errorf("pthread: ShardStrict requires the sharded scheduler (set Policy adf-shard; have policy %q)", cfg.Policy)
		}
	}
	if cfg.StealWindow < 0 {
		return nil, fmt.Errorf("pthread: negative StealWindow (%d)", cfg.StealWindow)
	}
	if sharded && cfg.SchedMode != core.SchedDirect {
		return nil, fmt.Errorf("pthread: Policy adf-shard and SchedMode %q are mutually exclusive: sharding removes the global scheduler lock the batched modes amortize", string(cfg.SchedMode))
	}
	pol, err := sched.New(cfg.Policy, sched.Options{
		MemQuota:       cfg.MemQuota,
		DisableDummies: cfg.DisableDummies,
		Procs:          max(cfg.Procs, 1),
		Seed:           cfg.Seed,
		TimeSlice:      cfg.TimeSlice,
		StealWindow:    cfg.StealWindow,
		ShardStrict:    cfg.ShardStrict,
		Metrics:        cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if cfg.SchedMode != core.SchedDirect && cfg.SchedBatch != 1 {
		// A batched scheduler-lock discipline needs ordered batch removal
		// from the ready structure; SchedBatch = 1 is the documented
		// degenerate-to-direct escape hatch.
		if _, ok := pol.(core.BatchNexter); !ok {
			return nil, fmt.Errorf("pthread: SchedMode %q requires a batch-capable policy (have %q; only adf supports batch removal)",
				string(cfg.SchedMode), cfg.Policy)
		}
	}
	if cfg.SampleInterval < 0 {
		return nil, fmt.Errorf("pthread: negative SampleInterval (%v)", cfg.SampleInterval)
	}
	if cfg.SpaceEnvelope < 0 {
		return nil, fmt.Errorf("pthread: negative SpaceEnvelope (%d)", cfg.SpaceEnvelope)
	}
	switch cfg.Backend {
	case "", BackendSim:
		// Live introspection is native-only by design, not omission: a
		// sim run is one goroutine stepping virtual time, so a sampler
		// would observe nothing between steps (and a debug endpoint
		// would dilate the run it reports on). Each option is rejected
		// with its own rule so a misconfigured run names the fix.
		if cfg.SampleInterval != 0 {
			return nil, fmt.Errorf("pthread: SampleInterval needs the native backend: the sim runs in virtual time with no live state to sample; use Metrics/Tracer for post-mortem inspection")
		}
		if cfg.SpaceEnvelope != 0 {
			return nil, fmt.Errorf("pthread: SpaceEnvelope needs the native backend: the sim's space bound is audited post-mortem (ptanalyze); the live watchdog watches wall-clock runs")
		}
		if cfg.DebugAddr != "" {
			return nil, fmt.Errorf("pthread: DebugAddr needs the native backend: the sim has no live run to serve; inspect Stats, Metrics, or the recorded trace instead")
		}
		ccfg := core.Config{
			Procs:        cfg.Procs,
			Policy:       pol,
			CostModel:    cfg.CostModel,
			DefaultStack: cfg.DefaultStack,
			PhysMem:      cfg.PhysMem,
			TLBEntries:   cfg.TLBEntries,
			MaxSteps:     cfg.MaxSteps,
			Quantum:      cfg.Quantum,
			SchedMode:    cfg.SchedMode,
			SchedBatch:   cfg.SchedBatch,
			Tracer:       cfg.Tracer,
			Metrics:      cfg.Metrics,
			SpaceProf:    cfg.SpaceProf,
		}
		if cfg.DAG != nil {
			ccfg.DAG = cfg.DAG
		}
		return exec.NewSim(ccfg)
	case BackendNative:
		if cfg.DAG != nil {
			return nil, fmt.Errorf("pthread: the DAG recorder needs the deterministic sim backend; run with Tracer and feed the trace to ptanalyze")
		}
		batch := 0
		if cfg.SchedMode == core.SchedVolunteer || cfg.SchedMode == core.SchedDedicated {
			batch = cfg.SchedBatch
			if batch == 0 {
				batch = core.DefaultSchedBatch
			}
		}
		return native.New(native.Config{
			Procs:        cfg.Procs,
			Policy:       pol,
			DefaultStack: cfg.DefaultStack,
			SchedBatch:   batch,
			Shard:        sharded,
			StealWindow:  cfg.StealWindow,
			ShardStrict:  cfg.ShardStrict,
			Metrics:      cfg.Metrics,
			Tracer:       cfg.Tracer,
			SpaceProf:    cfg.SpaceProf,
			Obs: obs.Options{
				SampleInterval: cfg.SampleInterval,
				EnvelopeBytes:  cfg.SpaceEnvelope,
				DebugAddr:      cfg.DebugAddr,
			},
		})
	default:
		return nil, fmt.Errorf("pthread: unknown Backend %q", string(cfg.Backend))
	}
}

// Run executes main as the root thread of a fresh run of the selected
// backend and returns the run's statistics. It is an error for the
// computation to deadlock, panic, exceed the step limit, or for the
// Config to be invalid.
func Run(cfg Config, main func(*T)) (Stats, error) {
	b, err := newBackend(cfg)
	if err != nil {
		return Stats{}, err
	}
	return b.Execute(func(th exec.Thread) {
		main(&T{th: th, b: b})
	})
}
