// Package native executes lightweight-thread programs on real
// goroutines — the execution backend the paper's artifact corresponds
// to, as opposed to the deterministic virtual-time simulation in
// internal/core.
//
// Each lightweight thread runs on a pooled goroutine that is parked on
// a channel whenever the scheduling policy has not assigned it a
// processor (pool.go has the lifecycle); p worker goroutines
// (Config.Procs, default GOMAXPROCS) pull threads from the shared
// policy structure and run exactly one at a time each, so at most p
// lightweight threads make progress concurrently — the same execution
// model as the paper's library on an 8-way SMP.
//
// The scheduling policies from internal/sched are reused unchanged:
// every policy call happens under the backend's scheduler lock (b.mu),
// which is a real sync.Mutex rather than the simulator's modeled lock.
// The ADF ordered placeholder list therefore becomes genuinely shared
// state, and the two-level Q_out batching (Config.SchedBatch) amortizes
// real lock acquisitions instead of simulated ones.
//
// Ordering invariant for blocking: a thread marks itself blocked in the
// policy (OnBlock, under b.mu) *before* registering with a sync
// object's waiter list. A waker can therefore only observe the waiter
// after its OnBlock, so the policy always sees OnBlock before the
// matching OnReady. The park/resume channels are unbuffered, which
// makes wake-before-park safe: a worker dispatching a freshly woken
// thread simply blocks in the resume send until the thread reaches its
// park.
//
// Timing is wall-clock: Charge still accounts the charged cycles into
// thread work/span (so speedup and parallelism remain comparable), but
// Stats.Time is the elapsed wall time converted to virtual cycles at
// the calibrated clock rate. Runs are not deterministic.
package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/metrics"
	"spthreads/internal/obs"
	"spthreads/internal/spaceprof"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// Config describes one native run.
type Config struct {
	// Procs is the number of worker goroutines (default GOMAXPROCS).
	Procs int
	// Policy is the scheduling policy (required). It is only ever
	// invoked under the backend's scheduler lock.
	Policy core.Policy
	// DefaultStack is the default simulated stack size charged per
	// thread (default core.DefaultStackSize).
	DefaultStack int64
	// SchedBatch, when > 1 and the policy implements core.BatchNexter,
	// enables per-worker batch refill: a worker pulls up to SchedBatch
	// threads from the policy in one critical section and runs them
	// without re-taking the scheduler lock. Ignored when Shard is set.
	SchedBatch int
	// Shard replaces the policy's ready structure with per-worker
	// DePa-ordered heaps behind per-worker locks (see shardStore): the
	// global scheduler mutex shrinks to lifecycle bookkeeping and ready
	// traffic spreads across the shards. The policy is then consulted
	// only for quota/dummy/time-slice parameters, and dispatch order is
	// the ADF (priority, DePa label) order with bounded-deviation steals.
	Shard bool
	// StealWindow is the sharded store's deviation bound K (<= 0 selects
	// Procs). Only meaningful with Shard.
	StealWindow int
	// ShardStrict makes every sharded dispatch take the globally leftmost
	// published entry (the sequential-steal test mode). Only meaningful
	// with Shard.
	ShardStrict bool
	// Metrics, when non-nil, receives the run's instrument values.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives the run's scheduler/memory events.
	// Workers record into per-worker lock-free rings (wall-clock-ns
	// timestamps); the rings are merged time-sorted into the recorder
	// when the run completes, with the recorder's unit set to wall-ns.
	Tracer *trace.Recorder
	// SpaceProf, when non-nil, samples the live footprint over time
	// (timestamps are wall time converted to virtual cycles).
	SpaceProf *spaceprof.Profiler
	// Obs enables live introspection (periodic metric sampling, the
	// space-envelope watchdog, the HTTP debug endpoint); the zero value
	// keeps everything post-mortem. When enabled together with Tracer,
	// the per-worker trace rings switch to small drained buffers and a
	// background collector streams them into the recorder during the
	// run, so long runs stop dropping events.
	Obs obs.Options
}

// Backend is one native run. It is single-shot: build one per Execute.
type Backend struct {
	procs        int
	policy       core.Policy
	batchNext    core.BatchNexter // non-nil only when batching is active
	batch        int
	quota        int64
	timeSlice    vtime.Duration
	defaultStack int64

	// mu is the scheduler lock: it guards the policy structure, the
	// thread-lifecycle fields below, and every counter not marked
	// atomic. cond signals idle workers when work becomes ready.
	mu   sync.Mutex
	cond *sync.Cond

	// shards, when non-nil, replaces the policy's ready structure with
	// the per-worker sharded store (Config.Shard); b.ready and the
	// batched Q_outs stay at zero then, and idleA mirrors b.idle into an
	// atomic for the store's lost-wakeup protocol.
	shards *shardStore
	idleA  atomic.Int64

	byTok     map[*core.Thread]*thread // live threads by policy token
	ready     int                      // threads in the policy's ready structure
	qoutN     int                      // threads parked in worker-local batches
	running   int                      // threads currently assigned to workers
	sleepers  int                      // threads parked on pending timers
	idle      int                      // workers waiting in cond.Wait
	live      int
	peakLive  int
	created   int64
	maxSpan   vtime.Duration
	err       error
	done      bool
	executed  bool
	endStatus int64 // trace.RunEnd* code; guarded by b.mu

	start time.Time

	mem mem // atomic footprint accounting

	// pool holds the thread lifecycle's loops and record arenas
	// (pool.go). nextIDA hands out thread ids without the scheduler
	// lock, so a fork takes b.mu once.
	pool    *threadPool
	nextIDA atomic.Int64

	// Atomic tallies flushed into the metrics registry at stats time
	// (these fire in thread context without the scheduler lock).
	allocTally    atomic.Int64
	freeTally     atomic.Int64
	dummyTally    atomic.Int64
	quotaTally    atomic.Int64
	dispatchTally atomic.Int64

	spMu      sync.Mutex // serializes SpaceProf samples
	spaceProf *spaceprof.Profiler
	registry  *metrics.Registry
	liveGauge *metrics.Gauge

	// Native scheduler observability (all nil-safe when detached).
	tracer       *tracer            // nil when no Config.Tracer
	traceRec     *trace.Recorder    // merge target at run end
	lockWait     *metrics.Histogram // wall ns blocked acquiring b.mu
	dispatchWait *metrics.Histogram // wall ns from ready to dispatch
	handoff      *metrics.Histogram // wall ns a resume send waited for the parked thread
	mutexWait    *metrics.Histogram // wall ns blocked in nativeMutex.Lock
	readyGauge   *metrics.Gauge     // threads in the policy's ready structure
	runningGauge *metrics.Gauge     // threads currently assigned to workers

	// observer is the live introspection subsystem (nil when Config.Obs
	// is zero); it samples the gauges above lock-free mid-run.
	observer *obs.Observer

	workers []*worker
	wg      sync.WaitGroup // workers
	twg     sync.WaitGroup // loop goroutines
}

// worker is one processor's local state. qout is only appended/popped
// by the owning worker, under b.mu.
type worker struct {
	qout       []*thread
	stats      core.ProcStats
	dispatches *metrics.Counter // per-worker dispatch count (nil-safe)
}

// New builds a native backend from cfg.
func New(cfg Config) (*Backend, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("native: Config.Policy is required")
	}
	procs := cfg.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	stack := cfg.DefaultStack
	if stack <= 0 {
		stack = core.DefaultStackSize
	}
	reg := cfg.Metrics
	if reg == nil && cfg.Obs.Enabled() {
		// The observer's sampler, watchdog, and endpoint all read live
		// instruments; a run observed without an explicit registry gets
		// a private one (its snapshot still lands in Stats.Metrics).
		reg = metrics.NewRegistry()
	}
	b := &Backend{
		procs:        procs,
		policy:       cfg.Policy,
		quota:        cfg.Policy.Quota(),
		timeSlice:    cfg.Policy.TimeSlice(),
		defaultStack: stack,
		byTok:        make(map[*core.Thread]*thread),
		spaceProf:    cfg.SpaceProf,
		registry:     reg,
		liveGauge:    reg.Gauge("threads.live"),
		workers:      make([]*worker, procs),
	}
	b.pool = newThreadPool(b, procs)
	b.cond = sync.NewCond(&b.mu)
	b.tracer = newTracer(cfg.Tracer, procs, cfg.Obs.Enabled())
	b.traceRec = cfg.Tracer
	b.lockWait = reg.Histogram("sched.lock.wait")
	b.dispatchWait = reg.Histogram("sched.dispatch.wait")
	b.handoff = reg.Histogram("sched.resume.handoff")
	b.mutexWait = reg.Histogram("sync.mutex.wait")
	b.readyGauge = reg.Gauge("sched.ready")
	b.runningGauge = reg.Gauge("sched.running")
	for i := range b.workers {
		b.workers[i] = &worker{
			dispatches: reg.Counter(fmt.Sprintf("sched.dispatches.w%d", i)),
		}
	}
	if cfg.Shard {
		b.shards = newShardStore(b, procs, cfg.StealWindow, cfg.ShardStrict)
	} else if cfg.SchedBatch > 1 {
		if bn, ok := cfg.Policy.(core.BatchNexter); ok {
			b.batchNext = bn
			b.batch = cfg.SchedBatch
		}
	}
	if cfg.Obs.Enabled() {
		var record func(kind trace.Kind, arg int64)
		var col *trace.Collector
		if b.tracer != nil {
			record = func(kind trace.Kind, arg int64) {
				b.tracer.record(-1, 0, kind, arg)
			}
			col = b.tracer.col
		}
		b.observer = obs.New(cfg.Obs, reg, b.liveState, record, col)
	}
	return b, nil
}

// liveState assembles the observer's point-in-time view from atomic
// reads only — the sampler never touches b.mu, so observing a run
// cannot perturb its scheduling.
func (b *Backend) liveState() obs.LiveState {
	ws := make([]int64, len(b.workers))
	for i, w := range b.workers {
		ws[i] = w.dispatches.Value()
	}
	return obs.LiveState{
		ElapsedNS:  time.Since(b.start).Nanoseconds(),
		Live:       b.liveGauge.Value(),
		Ready:      b.readyGauge.Value(),
		Running:    b.runningGauge.Value(),
		HeapBytes:  b.mem.liveHeap.Load(),
		StackBytes: b.mem.liveStack.Load(),
		Dispatches: b.dispatchTally.Load(),
		Workers:    ws,
	}
}

// Name implements exec.Backend.
func (b *Backend) Name() string { return "native" }

// Execute implements exec.Backend: it runs main as the root thread on
// b.procs workers and blocks until the run completes.
func (b *Backend) Execute(main func(exec.Thread)) (core.Stats, error) {
	if b.executed {
		return core.Stats{}, fmt.Errorf("native: backend already executed")
	}
	b.executed = true
	b.start = time.Now()
	if b.tracer != nil {
		b.tracer.start = b.start
		if b.tracer.col != nil {
			b.tracer.col.Start()
		}
	}
	if b.observer != nil {
		if err := b.observer.Start(); err != nil {
			if b.tracer != nil && b.tracer.col != nil {
				b.tracer.col.Finish(b.traceRec, trace.UnitWallNS)
			}
			return core.Stats{}, fmt.Errorf("native: observer: %w", err)
		}
	}

	root := b.newThread(-1, core.Attr{Name: "main"}, main)
	root.tok.Order = core.RootDepaLabel()
	b.chargeStack(root)
	b.tracer.record(-1, root.id, trace.KindCreate, 0) // Arg 0: no parent
	b.tracer.record(-1, root.id, trace.KindStackAlloc, root.stackSize)
	b.mu.Lock()
	b.admit(root)
	if b.shards == nil {
		b.policy.OnCreate(nil, root.tok)
	}
	root.state = core.StateReady
	if b.shards == nil {
		b.noteReady(root)
	}
	b.mu.Unlock()
	if b.shards != nil {
		b.shards.push(root, 0)
	}

	b.wg.Add(b.procs)
	for pid := 0; pid < b.procs; pid++ {
		go b.runWorker(pid)
	}
	b.wg.Wait()
	b.poisonParked()
	b.twg.Wait()
	// Stop the observer before the terminal record: its final watchdog
	// sample may still emit an envelope-cross event, which must precede
	// KindRunEnd in the merged trace.
	if b.observer != nil {
		b.observer.Stop()
	}
	// Every worker and thread goroutine has quiesced; only stray timers
	// may still fire, and those record nothing once b.done is set (they
	// check under b.mu, which orders their writes before the merge).
	b.mu.Lock()
	b.tracer.record(-1, 0, trace.KindRunEnd, b.endStatus)
	b.tracer.finish(b.traceRec)
	b.mu.Unlock()
	// Only now close the endpoint: tracer.finish broadcast the final
	// batch (run-end included) to live /trace followers, and the
	// graceful shutdown lets them finish writing it out.
	if b.observer != nil {
		b.observer.Shutdown()
	}
	return b.stats(), b.err
}

// runWorker is one processor loop: pull the next assigned thread, run
// it to its next handoff, and follow fork-child chains directly.
func (b *Backend) runWorker(pid int) {
	defer b.wg.Done()
	for {
		t := b.next(pid)
		if t == nil {
			return
		}
		for t != nil {
			msg := b.resumeThread(t)
			t = msg.next
		}
	}
}

// lock acquires the scheduler lock, recording how long the acquisition
// blocked (wall ns) when a registry is attached. The uncontended fast
// path observes 0, mirroring the sim's lock instruments, so the
// histogram's count doubles as an acquisition count.
func (b *Backend) lock() {
	if b.lockWait == nil {
		b.mu.Lock()
		return
	}
	if b.mu.TryLock() {
		b.lockWait.Observe(0)
		return
	}
	t0 := time.Now()
	b.mu.Lock()
	b.lockWait.Observe(time.Since(t0).Nanoseconds())
}

// noteReady counts t into the ready structure, maintaining the
// run-queue gauge and stamping the thread for dispatch-latency
// measurement. Caller holds b.mu and has already called the policy's
// OnCreate/OnReady.
func (b *Backend) noteReady(t *thread) {
	b.ready++
	b.readyGauge.Set(int64(b.ready))
	if b.dispatchWait != nil {
		t.readyAt = time.Now()
	}
}

// resumeThread hands the processor to t until t's next handoff. The
// thread adopts a pooled loop lazily on first dispatch, exactly when it
// first runs. Every resumeThread call follows exactly one
// markRunning for t, so the KindDispatch record is issued here — after
// the handoff, with markRunning's under-lock timestamp, while t is
// already running on its own goroutine. The capture happens before the
// handoff: once t runs it can block and be re-marked by another worker,
// which rewrites dispatchAt and pid.
func (b *Backend) resumeThread(t *thread) yieldMsg {
	b.lock()
	launch := !t.started
	t.started = true
	b.mu.Unlock()
	at, pid, id := t.dispatchAt, t.pid, t.id
	if launch {
		// Adopt a pooled loop as the thread's vehicle. The t.l write
		// happens-before the resume send, and any later worker's access
		// to t.l is ordered behind this dispatch through the scheduler
		// lock.
		l := b.pool.getLoop(pid)
		l.t = t
		t.l = l
		l.resume <- struct{}{}
	} else if b.handoff != nil {
		// The resume channel is unbuffered: the send completes when the
		// parked goroutine takes it, so this times the actual handoff.
		t0 := time.Now()
		t.l.resume <- struct{}{}
		b.handoff.Observe(time.Since(t0).Nanoseconds())
	} else {
		t.l.resume <- struct{}{}
	}
	b.tracer.recordAt(at, pid, id, trace.KindDispatch, 0)
	return <-t.l.yield
}

// next blocks until the policy assigns a thread to worker pid, the run
// completes, or a deadlock is detected.
func (b *Backend) next(pid int) *thread {
	if b.shards != nil {
		return b.nextSharded(pid)
	}
	w := b.workers[pid]
	b.lock()
	defer b.mu.Unlock()
	for {
		if b.done {
			return nil
		}
		if len(w.qout) > 0 {
			t := w.qout[0]
			copy(w.qout, w.qout[1:])
			w.qout = w.qout[:len(w.qout)-1]
			b.qoutN--
			b.markRunning(t, pid)
			return t
		}
		if b.ready > 0 {
			if b.batchNext != nil {
				toks := b.batchNext.NextBatch(pid, b.batch)
				if len(toks) > 0 {
					b.ready -= len(toks)
					b.readyGauge.Set(int64(b.ready))
					b.tracer.record(pid, 0, trace.KindBatchRefill, int64(len(toks)))
					for _, tok := range toks[1:] {
						w.qout = append(w.qout, b.byTok[tok])
						b.qoutN++
					}
					t := b.byTok[toks[0]]
					b.markRunning(t, pid)
					return t
				}
			} else if tok := b.policy.Next(pid); tok != nil {
				b.ready--
				b.readyGauge.Set(int64(b.ready))
				t := b.byTok[tok]
				b.markRunning(t, pid)
				return t
			}
		}
		if b.live == 0 {
			b.done = true
			b.cond.Broadcast()
			return nil
		}
		b.idle++
		if b.idle == b.procs && b.running == 0 && b.sleepers == 0 &&
			b.ready == 0 && b.qoutN == 0 {
			b.failLocked(fmt.Errorf("native: deadlock: %d threads live, none runnable", b.live),
				trace.RunEndDeadlock)
			b.idle--
			return nil
		}
		b.cond.Wait()
		b.idle--
	}
}

// nextSharded is next for the sharded store: take (own pop or bounded
// steal) happens entirely outside b.mu; only marking the thread running
// and the idle/deadlock protocol touch the scheduler lock. The idle
// mirror idleA plus the post-increment total re-check implement the
// sleeper half of the store's Dekker protocol.
func (b *Backend) nextSharded(pid int) *thread {
	for {
		if t := b.shards.take(pid); t != nil {
			b.lock()
			b.markRunning(t, pid)
			b.mu.Unlock()
			return t
		}
		b.lock()
		if b.done {
			b.mu.Unlock()
			return nil
		}
		if b.live == 0 {
			b.done = true
			b.cond.Broadcast()
			b.mu.Unlock()
			return nil
		}
		b.idle++
		b.idleA.Add(1)
		if b.shards.total.Load() > 0 {
			// Work appeared between the failed take and going idle.
			b.idle--
			b.idleA.Add(-1)
			b.mu.Unlock()
			continue
		}
		if b.idle == b.procs && b.running == 0 && b.sleepers == 0 {
			b.failLocked(fmt.Errorf("native: deadlock: %d threads live, none runnable", b.live),
				trace.RunEndDeadlock)
			b.idle--
			b.idleA.Add(-1)
			b.mu.Unlock()
			return nil
		}
		b.cond.Wait()
		b.idle--
		b.idleA.Add(-1)
		b.mu.Unlock()
	}
}

// addRunning adjusts the running-thread count and its lock-free gauge
// mirror (the observer samples the gauge without b.mu). Caller holds
// b.mu.
func (b *Backend) addRunning(d int) {
	b.running += d
	b.runningGauge.Set(int64(b.running))
}

// markRunning assigns t to worker pid. Caller holds b.mu.
func (b *Backend) markRunning(t *thread, pid int) {
	t.state = core.StateRunning
	t.pid = pid
	t.quotaLeft = b.quota
	t.sinceDispatch = 0
	b.addRunning(1)
	b.workers[pid].stats.Dispatches++
	b.workers[pid].dispatches.Inc()
	b.dispatchTally.Add(1)
	if b.dispatchWait != nil && !t.readyAt.IsZero() {
		b.dispatchWait.Observe(time.Since(t.readyAt).Nanoseconds())
		t.readyAt = time.Time{}
	}
	// The KindDispatch ring write is deferred to after the caller drops
	// b.mu (runWorker or the fork fast path); only the timestamp is
	// taken here so trace order still matches lock order.
	t.dispatchAt = b.tracer.now()
}

// blockPrep marks t blocked in the policy. It must be called on t's own
// goroutine, before t is registered with any waiter list, and must be
// followed by t.yieldPark.
func (b *Backend) blockPrep(t *thread) {
	b.lock()
	t.state = core.StateBlocked
	if b.shards == nil {
		// Sharded mode skips the policy: a running thread has no entry
		// in any shard heap, so there is nothing to mark blocked.
		b.policy.OnBlock(t.tok)
	}
	b.addRunning(-1)
	at, pid := b.tracer.now(), t.pid // pid before a waker redispatches t
	b.mu.Unlock()
	b.tracer.recordAt(at, pid, t.id, trace.KindBlock, 0)
}

// readyThread makes a blocked thread runnable again. pid is the waking
// processor. Call only from thread context (a twg-tracked goroutine):
// the deferred wake record relies on twg.Wait ordering it before the
// run-end merge — timer wakes go through wakeSleeper, which records
// under b.mu instead.
func (b *Backend) readyThread(t *thread, pid int) {
	b.lock()
	if b.done {
		b.mu.Unlock()
		return
	}
	t.state = core.StateReady
	if b.shards == nil {
		b.policy.OnReady(t.tok, pid)
		b.noteReady(t)
	}
	// Id snapshot: after the unlock (global path) or the shard push, t
	// can be dispatched, run to exit, and have its record recycled
	// before the KindWake emit below.
	at, id := b.tracer.now(), t.id
	if b.shards == nil {
		b.cond.Signal()
	}
	b.mu.Unlock()
	if b.shards != nil {
		// Shard locks never nest inside b.mu: the push (and its idle
		// signal) happens after the lifecycle section.
		b.shards.push(t, pid)
	}
	b.tracer.recordAt(at, pid, id, trace.KindWake, 0)
}

// preemptNow returns the calling thread to the ready structure and
// hands its processor back (quota exhaustion, yield, time slice).
func (b *Backend) preemptNow(t *thread) {
	b.lock()
	t.state = core.StateReady
	if b.shards == nil {
		b.policy.OnReady(t.tok, t.pid)
		b.noteReady(t)
	}
	b.addRunning(-1)
	at, pid := b.tracer.now(), t.pid // pid before another worker redispatches t
	if b.shards == nil {
		b.cond.Signal()
	}
	b.mu.Unlock()
	if b.shards != nil {
		b.shards.push(t, pid)
	}
	t.yieldParkEmit(yieldMsg{}, at, pid, trace.KindPreempt)
}

// admit registers a freshly created thread. Caller holds b.mu.
func (b *Backend) admit(t *thread) {
	b.byTok[t.tok] = t
	b.live++
	b.created++
	if b.live > b.peakLive {
		b.peakLive = b.live
	}
	b.liveGauge.Set(int64(b.live))
}

// exitThread performs exit bookkeeping on t's own goroutine and hands
// the worker back (the final yield send).
func (b *Backend) exitThread(t *thread) {
	b.freeStack(t)
	b.lock()
	t.state = core.StateExited
	t.done = true
	t.exitedSpan = t.span
	if t.span > b.maxSpan {
		b.maxSpan = t.span
	}
	if b.shards == nil {
		b.policy.OnExit(t.tok)
	}
	delete(b.byTok, t.tok)
	b.live--
	b.addRunning(-1)
	b.liveGauge.Set(int64(b.live))
	at, pid := b.tracer.now(), t.pid
	j := t.joiner
	var jid int64
	if j != nil {
		// Snapshot the joiner's trace id while b.mu still excludes its
		// dispatch: once the wake is published the joiner can run, exit,
		// and have its record recycled before the KindWake emit below.
		jid = j.id
		j.state = core.StateReady
		if b.shards == nil {
			b.policy.OnReady(j.tok, t.pid)
			b.noteReady(j)
			b.cond.Signal()
		}
	}
	if b.live == 0 {
		b.done = true
		b.cond.Broadcast()
	}
	b.mu.Unlock()
	if b.shards != nil && j != nil {
		// The joiner's exitedSpan/done reads are ordered by the b.mu
		// section above; only then may another worker dispatch it.
		b.shards.push(j, pid)
	}
	// Hand the worker back first; the exit and joiner-wake records then
	// land in the handoff's shadow, concurrent with the worker's next
	// dispatch. This goroutine still emits them before its twg.Done, so
	// the run-end merge observes them.
	t.l.yield <- yieldMsg{}
	b.tracer.recordAt(at, pid, t.id, trace.KindExit, 0)
	if j != nil {
		b.tracer.recordAt(at, pid, jid, trace.KindWake, 0)
	}
}

// newThread builds a thread without admitting it. pid is the creating
// worker (-1 for the root): it selects the record arena. The thread
// has no goroutine until a pooled loop adopts it at first dispatch.
func (b *Backend) newThread(pid int, attr core.Attr, fn func(exec.Thread)) *thread {
	if attr.Priority < 0 || attr.Priority >= core.NumPriorities {
		panic(fmt.Sprintf("native: priority %d out of range", attr.Priority))
	}
	stack := attr.StackSize
	if stack <= 0 {
		stack = b.defaultStack
	}
	id := b.nextIDA.Add(1)
	t := b.pool.getThread(pid)
	t.id = id
	t.tok.ID = id
	t.tok.Priority = attr.Priority
	t.attr = attr
	t.fn = fn
	t.detached = attr.Detached
	t.stackSize = stack
	t.refs.Store(threadRefs(attr.Detached))
	return t
}

// recordPanic records the first user panic and stops dispatching; the
// remaining parked threads are poisoned at shutdown.
func (b *Backend) recordPanic(t *thread, r any) {
	b.lock()
	b.failLocked(fmt.Errorf("native: %s panicked: %v", t.Name(), r), trace.RunEndPanic)
	b.mu.Unlock()
}

// failLocked records err and the matching trace.RunEnd* status (first
// error wins both) and wakes all workers. Caller holds b.mu.
func (b *Backend) failLocked(err error, status int64) {
	if b.err == nil {
		b.err = err
		b.endStatus = status
	}
	b.done = true
	b.cond.Broadcast()
}

// poisonParked unwinds every loop goroutine after the workers have
// exited (no thread is running then). The walk is over loops, not
// threads: every loop — idle in a pool or carrying a parked thread —
// is guaranteed to reach exactly one more resume receive, so one
// poison poke each (the unbuffered send blocks until the loop takes
// it) unwinds the whole fleet with no lost or doubled wakeups.
func (b *Backend) poisonParked() {
	b.pool.mu.Lock()
	all := b.pool.all
	b.pool.mu.Unlock()
	for _, l := range all {
		l.poison = true
		l.resume <- struct{}{}
	}
}

// stats assembles the run's statistics after all goroutines quiesced.
func (b *Backend) stats() core.Stats {
	elapsed := wallToV(time.Since(b.start))
	if r := b.registry; r != nil {
		r.Counter("sched.dispatches").Add(b.dispatchTally.Load())
		r.Counter("sched.quota.preempts").Add(b.quotaTally.Load())
		r.Counter("sched.dummy.forks").Add(b.dummyTally.Load())
		r.Counter("mem.allocs").Add(b.allocTally.Load())
		r.Counter("mem.frees").Add(b.freeTally.Load())
		r.Counter("pool.loops.created").Add(b.pool.loopsCreated.Load())
		r.Counter("pool.threads.recycled").Add(b.pool.recycled.Load())
		r.Counter("pool.threads.reused").Add(b.pool.reused.Load())
	}
	st := core.Stats{
		Policy:         b.policy.Name(),
		NumProcs:       b.procs,
		Time:           elapsed,
		Span:           b.maxSpan,
		ThreadsCreated: b.created,
		DummyThreads:   b.dummyTally.Load(),
		PeakLive:       b.peakLive,
		HeapHWM:        b.mem.heapHWM.Load(),
		StackHWM:       b.mem.stackHWM.Load(),
		TotalHWM:       b.mem.totalHWM.Load(),
		Procs:          make([]core.ProcStats, b.procs),
		Metrics:        b.registry.Snapshot(),
	}
	for i, w := range b.workers {
		ps := w.stats
		ps.Idle = elapsed - ps.Work
		if ps.Idle < 0 {
			ps.Idle = 0
		}
		st.Procs[i] = ps
		st.Work += ps.Work
	}
	return st
}

// sampleSpace records one space-profile point at the current wall time.
func (b *Backend) sampleSpace() {
	sp := b.spaceProf
	if sp == nil {
		return
	}
	b.lock()
	live := b.live
	b.mu.Unlock()
	b.spMu.Lock()
	sp.Sample(vtime.Time(wallToV(time.Since(b.start))),
		b.mem.liveHeap.Load(), b.mem.liveStack.Load(), live)
	b.spMu.Unlock()
}

// wallToV converts elapsed wall time to virtual cycles at the
// calibrated clock rate.
func wallToV(d time.Duration) vtime.Duration {
	return vtime.Duration(d.Nanoseconds() * vtime.CyclesPerMicrosecond / 1000)
}

// vToWall converts a virtual duration to wall time.
func vToWall(d vtime.Duration) time.Duration {
	return time.Duration(int64(d) * 1000 / vtime.CyclesPerMicrosecond)
}
