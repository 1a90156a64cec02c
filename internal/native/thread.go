package native

import (
	"fmt"
	"sync/atomic"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// thread is one lightweight thread: from its first dispatch it runs on
// a pooled loop goroutine, parked on the loop's unbuffered resume
// channel whenever it is not assigned a worker.
type thread struct {
	b       *Backend
	id      int64
	tok     *core.Thread // policy token (ID/Priority/SchedState/Order only)
	attr    core.Attr
	fn      func(exec.Thread)
	isDummy bool

	stackSize int64

	started bool // guarded by b.mu

	// Lifecycle fields (see pool.go). l is the pooled loop whose
	// goroutine and channels carry this thread's lifetime, adopted at
	// first dispatch; freeNext links the record in a worker arena; refs
	// counts the lifecycle holders (exiter + joiner) that must release
	// before the record can be recycled.
	l        *loop
	freeNext *thread
	refs     atomic.Int32

	state core.State // guarded by b.mu
	pid   int        // worker currently (or last) running this thread

	// Sharded-store heap slot (Config.Shard): key snapshot and heap index,
	// guarded by the owning shard's lock while the thread sits in a heap.
	// The label is copied at push time so later Forks by other threads
	// cannot disturb the ordering of a parked entry.
	heapLabel core.DepaLabel
	heapPri   int
	heapIdx   int

	// readyAt stamps the last transition into the ready structure, for
	// the dispatch-latency histogram (guarded by b.mu; zero when a
	// registry is not attached or the thread is not ready).
	readyAt time.Time

	// dispatchAt is the tracer timestamp captured by markRunning under
	// b.mu; the dispatching worker issues the KindDispatch ring write
	// after unlocking. Stable between markRunning and the resume because
	// the thread belongs to exactly one worker then.
	dispatchAt vtime.Time

	// Accounting written only in thread context while running.
	quotaLeft     int64
	work          vtime.Duration
	span          vtime.Duration
	sinceDispatch vtime.Duration

	// Join protocol, guarded by b.mu.
	done       bool
	detached   bool
	joiner     *thread
	joined     bool
	exitedSpan vtime.Duration

	tls map[any]any // only touched by the thread's own goroutine
}

// yieldMsg is a thread's handoff to its worker. next, when non-nil, is
// a freshly forked child the worker must run immediately (the paper's
// fork semantics).
type yieldMsg struct {
	next *thread
}

// threadExit is the panic payload used by Exit to unwind a thread.
type threadExit struct{}

// threadAbort unwinds parked threads when the run shuts down early.
type threadAbort struct{}

// exec.Thread implementation.

func (t *thread) ID() int64 { return t.id }

func (t *thread) Name() string {
	if t.attr.Name != "" {
		return t.attr.Name
	}
	if t.isDummy {
		return fmt.Sprintf("dummy-%d", t.id)
	}
	return fmt.Sprintf("thread-%d", t.id)
}

func (t *thread) TLSGet(key any) any {
	if t.tls == nil {
		return nil
	}
	return t.tls[key]
}

func (t *thread) TLSSet(key, val any) {
	if t.tls == nil {
		t.tls = make(map[any]any)
	}
	t.tls[key] = val
}

// yieldPark hands the worker msg and parks until redispatched. Must be
// called on the thread's own goroutine, after all scheduler
// bookkeeping for the handoff is done.
func (t *thread) yieldPark(msg yieldMsg) {
	t.l.yield <- msg
	<-t.l.resume
	if t.l.poison {
		panic(threadAbort{})
	}
}

// yieldParkEmit is yieldPark with one tracer event emitted in the
// handoff's shadow: the worker takes over at the yield send, so the
// ring write that follows runs concurrently with the successor instead
// of delaying it. Event values are explicit arguments (a closure would
// allocate); the write still precedes this goroutine's park, and hence
// the run-end merge.
func (t *thread) yieldParkEmit(msg yieldMsg, at vtime.Time, pid int, kind trace.Kind) {
	t.l.yield <- msg
	t.b.tracer.recordAt(at, pid, t.id, kind, 0)
	<-t.l.resume
	if t.l.poison {
		panic(threadAbort{})
	}
}
