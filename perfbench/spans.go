package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"spthreads/pthread"
)

// kind names the layer boundary a span wraps.
type kind uint8

const (
	kExec   kind = iota // the root thread's body: one execution
	kThread             // a created thread's body
	kCreate             // T.Create
	kJoin               // T.Join
	kLock               // Mutex.Lock
	kUnlock             // Mutex.Unlock
	kWait               // Cond.Wait
	kSignal             // Cond.Signal and Cond.Broadcast
	kMalloc             // T.Malloc
	kFree               // T.Free
	numKinds
)

var kindNames = [numKinds]string{"exec", "thread", "create", "join",
	"mutex.lock", "mutex.unlock", "cond.wait", "cond.signal", "malloc", "free"}

// span is one call across a layer boundary. Times are nanoseconds since
// the recorder's base; parent is the index of the span that caused it
// (the calling thread's body span, or for a thread body the Create span
// that forked it), -1 for the execution's root.
type span struct {
	start, end int64
	parent     int32
	kind       kind
}

// recorder keeps the spans of one execution in memory. It is safe
// across workers: a span's slot is reserved with one atomic add, and
// each slot is written only by the thread that reserved it. A nil
// *recorder is the untraced run: every wrapper then calls straight
// through to the library.
type recorder struct {
	base time.Time
	key  *pthread.Key // the calling thread's body span, as thread-local storage
	next atomic.Int32
	buf  []span
}

func newRecorder() *recorder {
	return &recorder{key: pthread.NewKey(), buf: make([]span, 1<<12)}
}

// reset prepares for the next execution. If the previous one reserved
// more slots than the buffer held, the buffer grows to fit it.
func (r *recorder) reset() {
	if n := int(r.next.Load()); n > len(r.buf) {
		r.buf = make([]span, 2*n)
	}
	r.next.Store(0)
	r.base = time.Now()
}

// spans returns the last execution's spans, or false if some did not
// fit in the buffer.
func (r *recorder) spans() ([]span, bool) {
	n := int(r.next.Load())
	if n > len(r.buf) {
		return nil, false
	}
	return r.buf[:n], true
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) open() int32 { return r.next.Add(1) - 1 }

func (r *recorder) finish(id int32, k kind, parent int32, start int64) {
	if int(id) < len(r.buf) {
		r.buf[id] = span{start: start, end: r.now(), parent: parent, kind: k}
	}
}

func (r *recorder) current(t *pthread.T) int32 {
	if id, ok := t.Specific(r.key).(int32); ok {
		return id
	}
	return -1
}

// call runs fn, the calling thread's call into the library, in a span
// of kind k.
func (r *recorder) call(t *pthread.T, k kind, fn func()) {
	parent := r.current(t)
	id, s := r.open(), r.now()
	fn()
	r.finish(id, k, parent, s)
}

// root wraps an execution's root thread function in the exec span.
func (r *recorder) root(fn func(*pthread.T)) func(*pthread.T) {
	if r == nil {
		return fn
	}
	return func(t *pthread.T) {
		id, s := r.open(), r.now()
		t.SetSpecific(r.key, id)
		fn(t)
		r.finish(id, kExec, -1, s)
	}
}

// create is T.Create. The child's body is a span whose parent is this
// Create span, so the part of the Create that ran the child is not
// counted as the Create's own time.
func (r *recorder) create(t *pthread.T, fn func(*pthread.T)) *pthread.Thread {
	if r == nil {
		return t.Create(fn)
	}
	parent := r.current(t)
	id, s := r.open(), r.now()
	h := t.Create(func(ct *pthread.T) {
		bid, bs := r.open(), r.now()
		ct.SetSpecific(r.key, bid)
		fn(ct)
		r.finish(bid, kThread, id, bs)
	})
	r.finish(id, kCreate, parent, s)
	return h
}

func (r *recorder) join(t *pthread.T, h *pthread.Thread) {
	if r == nil {
		t.MustJoin(h)
		return
	}
	r.call(t, kJoin, func() { t.MustJoin(h) })
}

// par forks one thread per function and joins them all, as T.Par does.
func (r *recorder) par(t *pthread.T, fns ...func(*pthread.T)) {
	hs := make([]*pthread.Thread, len(fns))
	for i, fn := range fns {
		hs[i] = r.create(t, fn)
	}
	for _, h := range hs {
		r.join(t, h)
	}
}

func (r *recorder) malloc(t *pthread.T, n int64) (a pthread.Alloc) {
	if r == nil {
		return t.Malloc(n)
	}
	r.call(t, kMalloc, func() { a = t.Malloc(n) })
	return a
}

func (r *recorder) free(t *pthread.T, a pthread.Alloc) {
	if r == nil {
		t.Free(a)
		return
	}
	r.call(t, kFree, func() { t.Free(a) })
}

func (r *recorder) lock(t *pthread.T, m *pthread.Mutex) {
	if r == nil {
		m.Lock(t)
		return
	}
	r.call(t, kLock, func() { m.Lock(t) })
}

func (r *recorder) unlock(t *pthread.T, m *pthread.Mutex) {
	if r == nil {
		m.Unlock(t)
		return
	}
	r.call(t, kUnlock, func() { m.Unlock(t) })
}

func (r *recorder) wait(t *pthread.T, c *pthread.Cond, m *pthread.Mutex) {
	if r == nil {
		c.Wait(t, m)
		return
	}
	r.call(t, kWait, func() { c.Wait(t, m) })
}

func (r *recorder) signal(t *pthread.T, c *pthread.Cond) {
	if r == nil {
		c.Signal(t)
		return
	}
	r.call(t, kSignal, func() { c.Signal(t) })
}

func (r *recorder) broadcast(t *pthread.T, c *pthread.Cond) {
	if r == nil {
		c.Broadcast(t)
		return
	}
	r.call(t, kSignal, func() { c.Broadcast(t) })
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(ss []span) []int64 {
	// Children grouped by parent with a counting sort.
	first := make([]int32, len(ss)+1)
	for _, s := range ss {
		if s.parent >= 0 {
			first[s.parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[len(ss)])
	fill := slices.Clone(first[:len(ss)])
	for i, s := range ss {
		if s.parent >= 0 {
			kids[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	self := make([]int64, len(ss))
	for i, s := range ss {
		ch := kids[first[i]:first[i+1]]
		slices.SortFunc(ch, func(a, b int32) int { return int(ss[a].start - ss[b].start) })
		covered, reach := int64(0), s.start
		for _, c := range ch {
			lo, hi := max(ss[c].start, reach), min(ss[c].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeSpans writes one span per line: index, layer, parent index,
// start and end in nanoseconds since the execution began, self time.
func writeSpans(w io.Writer, ss []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tlayer\tparent\tstart_ns\tend_ns\tself_ns")
	self := selfTimes(ss)
	for i, s := range ss {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, kindNames[s.kind], s.parent, s.start, s.end, self[i])
	}
	return bw.Flush()
}
