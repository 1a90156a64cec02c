package native

import (
	"sync"
	"sync/atomic"

	"spthreads/internal/core"
)

// The native thread lifecycle (DESIGN §14). Fork never starts a
// goroutine or allocates channels: a thread adopts a pooled loop — one
// goroutine plus one resume/yield channel pair — at its first dispatch,
// and its record comes from a per-worker free-list arena. Both are
// recycled when the thread is done with them, so a fine-grained
// program's goroutine fleet tracks its peak concurrency, not its
// thread count.

// loop is a pooled thread-execution vehicle: one goroutine plus one
// resume/yield channel pair, reused across lightweight-thread
// lifetimes. While a thread runs, the loop's channels ARE the thread's
// park/handoff channels; when the thread exits, the loop parks itself
// back into its last worker's free list and waits for the next launch.
type loop struct {
	b      *Backend
	resume chan struct{} // worker -> loop/thread
	yield  chan yieldMsg // thread -> worker

	// t is the thread to run next, written by the launching worker
	// before the resume send and read by the loop after the matching
	// receive (channel happens-before). Only workers write it: once a
	// loop re-enters a free list its next owner may store here while
	// the loop is still unwinding the previous thread's exit path.
	t *thread

	// poison is set only after all workers exited; the shutdown resume
	// poke makes the loop (or its parked thread) observe it and unwind.
	poison bool

	next *loop // free-list link, owned by the Treiber stack
}

// run is the loop goroutine body. Exactly one park (<-l.resume) is
// outstanding at any moment — either here, between threads, or inside
// the current thread's yieldPark — which is what makes the one-poke
// poison protocol in poisonParked sufficient.
func (l *loop) run() {
	defer l.b.twg.Done()
	for {
		<-l.resume
		if l.poison {
			return
		}
		if l.runOne(l.t) {
			return // threadAbort: shutdown unwind, no recycle
		}
	}
}

// runOne executes one thread to completion on the loop's goroutine. It
// reports whether the run aborted (poison while the thread was parked
// mid-body).
func (l *loop) runOne(t *thread) (abort bool) {
	defer func() {
		r := recover()
		switch r.(type) {
		case nil, threadExit:
			// normal completion or pthread_exit unwind
		case threadAbort:
			abort = true
			return
		default:
			l.b.recordPanic(t, r)
		}
		// Republish the loop BEFORE the exit bookkeeping: exitThread's
		// joiner wake and final yield send let workers fork again, and
		// the loop must already be poppable then or those forks miss the
		// pool and launch fresh goroutines. (Recycling after the return
		// lost that race on ~10% of fine-grained forks, and every missed
		// loop parked forever with a grown stack the GC re-scanned each
		// cycle.) A worker that pops the loop now blocks in its
		// unbuffered launch send until this goroutine finishes the exit
		// path and parks, so reuse stays serialized; the popper owns l.t
		// from here on, which is why nothing below touches it.
		l.b.pool.putLoop(l, t.pid)
		l.b.exitThread(t) // bookkeeping + the final yield send
		l.b.releaseThread(t)
	}()
	t.fn(t)
	return false
}

// loopFree is one worker's Treiber stack of parked loops, padded so
// neighboring workers' heads do not share a cache line. Pushes are
// multi-producer (a loop recycles itself from whatever worker last ran
// its thread); pops are effectively single-consumer per head (only the
// worker dispatching on that pid launches from it), so the classic ABA
// hazard cannot bite.
type loopFree struct {
	head atomic.Pointer[loop]
	_    [64 - 8]byte
}

func (f *loopFree) push(l *loop) {
	for {
		h := f.head.Load()
		l.next = h
		if f.head.CompareAndSwap(h, l) {
			return
		}
	}
}

func (f *loopFree) pop() *loop {
	for {
		h := f.head.Load()
		if h == nil {
			return nil
		}
		n := h.next
		if f.head.CompareAndSwap(h, n) {
			h.next = nil
			return h
		}
	}
}

// recFree is one worker's Treiber stack of recycled thread records,
// same discipline as loopFree.
type recFree struct {
	head atomic.Pointer[thread]
	_    [64 - 8]byte
}

func (f *recFree) push(t *thread) {
	for {
		h := f.head.Load()
		t.freeNext = h
		if f.head.CompareAndSwap(h, t) {
			return
		}
	}
}

func (f *recFree) pop() *thread {
	for {
		h := f.head.Load()
		if h == nil {
			return nil
		}
		n := h.freeNext
		if f.head.CompareAndSwap(h, n) {
			h.freeNext = nil
			return h
		}
	}
}

// threadPool is the lifecycle's reuse state: per-worker loop pools,
// per-worker thread-record arenas, and the all-loops registry the
// shutdown poison walk uses.
type threadPool struct {
	b     *Backend
	loops []loopFree
	recs  []recFree

	mu  sync.Mutex // guards all
	all []*loop

	loopsCreated atomic.Int64 // loop goroutines ever launched
	recycled     atomic.Int64 // thread records returned to an arena
	reused       atomic.Int64 // thread records served from an arena
}

func newThreadPool(b *Backend, procs int) *threadPool {
	return &threadPool{
		b:     b,
		loops: make([]loopFree, procs),
		recs:  make([]recFree, procs),
	}
}

// getLoop returns a loop ready to receive a launch resume on worker
// pid, reusing a parked one when possible. A fresh loop's goroutine
// starts parked at its first resume receive, so the caller's send is
// uniform across both cases.
func (p *threadPool) getLoop(pid int) *loop {
	if l := p.loops[pid].pop(); l != nil {
		return l
	}
	l := &loop{
		b:      p.b,
		resume: make(chan struct{}),
		yield:  make(chan yieldMsg),
	}
	p.loopsCreated.Add(1)
	p.mu.Lock()
	p.all = append(p.all, l)
	p.mu.Unlock()
	p.b.twg.Add(1)
	go l.run()
	return l
}

// putLoop parks l into worker pid's free list.
func (p *threadPool) putLoop(l *loop, pid int) {
	p.loops[pid].push(l)
}

// getThread serves a thread record from worker pid's arena, allocating
// a fresh one when the arena is empty. pid < 0 (the root thread,
// created before any worker exists) always allocates.
func (p *threadPool) getThread(pid int) *thread {
	if pid >= 0 {
		if t := p.recs[pid].pop(); t != nil {
			p.reused.Add(1)
			return t
		}
	}
	return &thread{b: p.b, tok: &core.Thread{}}
}

// releaseThread drops one lifecycle reference on t and recycles the
// record into its last worker's arena when both holders are done. A
// record has 2 references when joinable (the exiting thread and the
// future joiner) and 1 when detached; each holder releases only after
// its last read of the record (trace emits for the exiter, the
// exitedSpan/id reads for the joiner), so a recycled record can never
// be observed through a stale pointer. Never-joined undetached records
// keep their joiner reference forever and simply leak, exactly like
// unjoined POSIX threads.
func (b *Backend) releaseThread(t *thread) {
	if t.refs.Add(-1) != 0 {
		return
	}
	pid := t.pid
	if pid < 0 || pid >= len(b.pool.recs) {
		return // root or never-dispatched record: do not pool
	}
	t.reset()
	b.pool.recycled.Add(1)
	b.pool.recs[pid].push(t)
}

// threadRefs is the initial lifecycle reference count for a record.
func threadRefs(detached bool) int32 {
	if detached {
		return 1
	}
	return 2
}

// reset scrubs a thread record before it re-enters an arena: every
// field except the backend pointer and the policy-token allocation is
// zeroed (TLS map, DePa label, loop, join state, trace identity,
// shard-heap slot — pool-reuse hygiene is by construction, not by
// field-by-field cleanup).
func (t *thread) reset() {
	b, tok := t.b, t.tok
	*t = thread{b: b, tok: tok}
	*tok = core.Thread{}
}
