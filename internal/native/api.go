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

// Thread-facing operations (exec.Backend). All run in thread context:
// on the goroutine of the thread passed as the first argument, while
// that thread holds a worker.

// nt unwraps an exec.Thread to this backend's representation.
func nt(t exec.Thread) *thread { return t.(*thread) }

// Fork implements exec.Backend. Under policies with the paper's fork
// semantics (OnCreate returns true) the parent is preempted and its
// worker runs the child immediately. The caller gets a handle, not the
// record: see handle.
func (b *Backend) Fork(pt exec.Thread, attr core.Attr, fn func(exec.Thread)) exec.Thread {
	h := &handle{detached: attr.Detached, name: attr.Name}
	b.fork(nt(pt), attr, fn, h)
	return h
}

// handle is the caller's reference to a forked thread. Records are
// recycled once their thread has exited and been joined (or exited, if
// detached), but a caller may keep its handle indefinitely. The handle
// therefore carries the identity the thread had at fork time, so ID
// stays right and Join refuses a second join or a detached target
// without touching a record that may already carry another thread.
type handle struct {
	t        *thread
	id       int64
	name     string
	detached bool
	joined   atomic.Bool
}

func (h *handle) ID() int64 { return h.id }

func (h *handle) Name() string {
	if h.name != "" {
		return h.name
	}
	return fmt.Sprintf("thread-%d", h.id)
}

// TLSGet and TLSSet exist to satisfy exec.Thread; thread-local storage
// is only reachable through the thread's own T, never a handle.
func (h *handle) TLSGet(key any) any  { panic("native: TLS through a thread handle") }
func (h *handle) TLSSet(key, val any) { panic("native: TLS through a thread handle") }

// fork creates and schedules a child of t. A nil h marks an internal
// dummy thread; otherwise h is filled in before the child can run (a
// detached child may exit and have its record recycled before fork
// returns).
func (b *Backend) fork(t *thread, attr core.Attr, fn func(exec.Thread), h *handle) {
	child := b.newThread(t.pid, attr, fn)
	child.isDummy = h == nil
	if h != nil {
		h.t, h.id = child, child.id
	}
	// DePa order maintenance: the label assignment is the whole point of
	// the scheme — it happens here on the parent's goroutine, before the
	// scheduler lock, with zero shared state. The policy reads the label
	// under b.mu, which orders the write ahead of every use.
	child.tok.Order = t.tok.Order.Fork()
	b.chargeStack(child)
	b.tracer.record(t.pid, child.id, trace.KindCreate, t.id)
	b.tracer.record(t.pid, child.id, trace.KindStackAlloc, child.stackSize)
	b.lock()
	b.admit(child)
	child.span = t.span
	if b.shards != nil {
		// Sharded fork path: always the paper's semantics (preempt the
		// parent, run the child now); the parent goes to this worker's
		// shard. The push happens after the b.mu section so the thread is
		// invisible to thieves until every mu-guarded write above landed.
		t.state = core.StateReady
		b.addRunning(-1)
		at, pid := b.tracer.now(), t.pid
		b.markRunning(child, pid)
		b.mu.Unlock()
		b.shards.push(t, pid)
		t.yieldParkEmit(yieldMsg{next: child}, at, pid, trace.KindPreempt)
		return
	}
	if b.policy.OnCreate(t.tok, child.tok) {
		// Parent preempted; this worker executes the child now.
		t.state = core.StateReady
		b.policy.OnReady(t.tok, t.pid)
		b.noteReady(t)
		b.addRunning(-1)
		at, pid := b.tracer.now(), t.pid // pid before another worker redispatches t
		b.markRunning(child, pid)
		b.cond.Signal() // the parent is dispatchable by another worker
		b.mu.Unlock()
		// The child's KindDispatch is recorded by resumeThread when the
		// worker takes it from the yield message; the parent's preempt is
		// emitted in the handoff's shadow.
		t.yieldParkEmit(yieldMsg{next: child}, at, pid, trace.KindPreempt)
		return
	}
	// The policy placed the child in its ready structure.
	child.state = core.StateReady
	b.noteReady(child)
	b.cond.Signal()
	b.mu.Unlock()
}

// Join implements exec.Backend (POSIX single-joiner semantics).
func (b *Backend) Join(pt exec.Thread, ptarget exec.Thread) error {
	t := nt(pt)
	if ptarget == nil {
		return fmt.Errorf("native: join with nil thread")
	}
	// A raw record (the root, or a handle from T.Self) names its thread
	// only until that thread is joined; Fork handles stay valid.
	target, ok := ptarget.(*thread)
	if !ok {
		h := ptarget.(*handle)
		switch {
		case h.t == t && h.id == t.id:
			return fmt.Errorf("native: %s cannot join itself", t.Name())
		case h.detached:
			return fmt.Errorf("native: %s is detached", h.Name())
		case !h.joined.CompareAndSwap(false, true):
			return fmt.Errorf("native: %s already joined", h.Name())
		}
		// First join through this handle of a joinable thread: the
		// record still holds its joiner reference, so it is this thread's.
		target = h.t
	}
	b.lock()
	switch {
	case target == t:
		b.mu.Unlock()
		return fmt.Errorf("native: %s cannot join itself", t.Name())
	case target.detached:
		b.mu.Unlock()
		return fmt.Errorf("native: %s is detached", target.Name())
	case target.joined:
		b.mu.Unlock()
		return fmt.Errorf("native: %s already joined", target.Name())
	case target.joiner != nil:
		b.mu.Unlock()
		return fmt.Errorf("native: %s already has a joiner", target.Name())
	}
	target.joined = true
	if !target.done {
		target.joiner = t
		t.state = core.StateBlocked
		if b.shards == nil {
			b.policy.OnBlock(t.tok)
		}
		b.addRunning(-1)
		at, pid := b.tracer.now(), t.pid // pid before the target's exit redispatches t
		b.mu.Unlock()
		b.tracer.recordAt(at, pid, t.id, trace.KindBlock, 0)
		t.yieldPark(yieldMsg{})
	} else {
		b.mu.Unlock()
	}
	// A join edge: the target's critical path feeds ours. target.done
	// was set before we were readied (or before we observed it under
	// b.mu), so exitedSpan is stable here.
	if target.exitedSpan > t.span {
		t.span = target.exitedSpan
	}
	b.tracer.record(t.pid, t.id, trace.KindJoin, target.id)
	// Joiner's last read of the record is above; drop its lifecycle
	// reference so the exiter (or this release) can recycle it.
	b.releaseThread(target)
	return nil
}

// Exit implements exec.Backend (pthread_exit).
func (b *Backend) Exit(t exec.Thread) {
	panic(threadExit{})
}

// Yield implements exec.Backend (sched_yield).
func (b *Backend) Yield(pt exec.Thread) {
	b.preemptNow(nt(pt))
}

// Charge accounts cycles of user computation against the thread's work
// and span. The cycles are bookkeeping (speedup and parallelism stay
// comparable with sim runs); native wall time passes on its own.
func (b *Backend) Charge(pt exec.Thread, cycles int64) {
	if cycles <= 0 {
		return
	}
	t := nt(pt)
	d := vtime.Duration(cycles)
	t.work += d
	t.span += d
	b.workers[t.pid].stats.Work += d
	if b.timeSlice > 0 {
		t.sinceDispatch += d
		if t.sinceDispatch >= b.timeSlice {
			b.preemptNow(t)
		}
	}
}

// Malloc allocates n accounted bytes, applying the policy's quota
// discipline: over-quota allocations fork dummy throttling threads and
// quota exhaustion preempts the caller — the mechanisms behind the
// S1 + O(p·D) bound run for real here.
func (b *Backend) Malloc(pt exec.Thread, n int64) core.Alloc {
	t := nt(pt)
	if n <= 0 {
		panic(fmt.Sprintf("native: Malloc(%d)", n))
	}
	if d := b.policy.AllocDummies(n); d > 0 {
		b.forkDummies(t, d)
	}
	addr := b.mem.allocHeap(n)
	b.allocTally.Add(1)
	b.tracer.record(t.pid, t.id, trace.KindAlloc, n)
	b.sampleSpace()
	a := core.Alloc{Addr: addr, Size: n}
	if b.quota > 0 {
		t.quotaLeft -= n
		if t.quotaLeft <= 0 {
			b.quotaTally.Add(1)
			b.tracer.record(t.pid, t.id, trace.KindQuotaExhausted, n)
			b.preemptNow(t)
		}
	}
	return a
}

// Free releases an accounted allocation.
func (b *Backend) Free(pt exec.Thread, a core.Alloc) {
	if a.Addr == 0 {
		return
	}
	t := nt(pt)
	b.mem.freeHeap(a.Size)
	b.freeTally.Add(1)
	b.tracer.record(t.pid, t.id, trace.KindFree, a.Size)
	b.sampleSpace()
}

// Touch validates the access range; the native backend has no TLB or
// paging model to charge.
func (b *Backend) Touch(pt exec.Thread, a core.Alloc, off, n int64) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > a.Size {
		panic(fmt.Sprintf("native: Touch [%d,%d) outside allocation of %d bytes", off, off+n, a.Size))
	}
}

// Prefault is a no-op natively (no page model).
func (b *Backend) Prefault(pt exec.Thread, a core.Alloc) {}

// Sleep parks the thread for at least d of virtual time, mapped to wall
// time at the calibrated clock rate.
func (b *Backend) Sleep(pt exec.Thread, d vtime.Duration) {
	t := nt(pt)
	if d <= 0 {
		b.preemptNow(t)
		return
	}
	b.lock()
	t.state = core.StateBlocked
	if b.shards == nil {
		b.policy.OnBlock(t.tok)
	}
	b.addRunning(-1)
	b.sleepers++
	b.tracer.record(t.pid, t.id, trace.KindBlock, 0)
	b.mu.Unlock()
	time.AfterFunc(vToWall(d), func() { b.wakeSleeper(t) })
	t.yieldPark(yieldMsg{})
}

// wakeSleeper readies a timer-parked thread.
func (b *Backend) wakeSleeper(t *thread) {
	if b.shards != nil {
		// Three-phase sharded wake: mark ready under b.mu, push outside
		// it (the shard lock never nests inside b.mu), then drop the
		// sleeper count. sleepers stays >0 through the push gap so the
		// deadlock detector cannot fire while the thread is in flight
		// between the two structures.
		b.lock()
		if b.done {
			b.sleepers--
			b.mu.Unlock()
			return
		}
		t.state = core.StateReady
		b.tracer.record(-1, t.id, trace.KindWake, 0)
		b.mu.Unlock()
		b.shards.push(t, t.pid)
		b.lock()
		b.sleepers--
		b.mu.Unlock()
		return
	}
	b.lock()
	b.sleepers--
	if b.done {
		b.mu.Unlock()
		return
	}
	t.state = core.StateReady
	b.policy.OnReady(t.tok, -1)
	b.noteReady(t)
	b.tracer.record(-1, t.id, trace.KindWake, 0)
	b.cond.Signal()
	b.mu.Unlock()
}

// Now returns elapsed wall time as virtual cycles.
func (b *Backend) Now(pt exec.Thread) vtime.Time {
	return vtime.Time(wallToV(time.Since(b.start)))
}

// forkDummies creates d no-op dummy threads as a binary tree rooted at
// a single child of t, mirroring the paper's allocation throttling:
// because each dummy fork preempts its parent under ADF, the
// allocating thread re-enters the ready list behind the dummies and
// other, lower-footprint threads get scheduled first.
func (b *Backend) forkDummies(t *thread, d int) {
	if d <= 0 {
		return
	}
	b.dummyTally.Add(int64(d))
	b.tracer.record(t.pid, t.id, trace.KindDummyFork, int64(d))
	b.forkDummySubtree(t, d)
}

func (b *Backend) forkDummySubtree(t *thread, count int) {
	attr := core.Attr{StackSize: core.SmallStackSize, Detached: true}
	b.fork(t, attr, func(dt exec.Thread) {
		rem := count - 1
		if rem <= 0 {
			return
		}
		left := rem / 2
		right := rem - left
		if left > 0 {
			b.forkDummySubtree(nt(dt), left)
		}
		if right > 0 {
			b.forkDummySubtree(nt(dt), right)
		}
	}, nil)
}
