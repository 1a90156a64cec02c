package sched

import "spthreads/internal/core"

// adfDepa is the DePa-backed dispatch structure behind the default ADF
// policy. Where the treap maintains the serial depth-first order as a
// shared balanced tree — every insert, ready flip, and dispatch pays an
// O(log n) walk under the charged scheduler lock — the DePa scheme
// moves the order into the threads themselves: each thread carries a
// fork-path label (core.DepaLabel) assigned at fork time on the forking
// thread's own context, and left-of is a local lexicographic compare.
//
// The store then only has to answer "leftmost READY entry", which it
// does with an indexed binary min-heap over the ready set:
//
//	insertHead / insertBefore   O(1)        (label copy + list link)
//	remove                      O(1)        (O(log r) if still ready)
//	setReady                    O(log r)    (heap push / indexed delete)
//	takeLeftmostReady           O(log r)    (heap pop)
//
// with r the number of READY entries — not n, the number of live
// placeholders. Under the paper's workloads r is typically orders of
// magnitude smaller than n (most placeholders are blocked parents or
// executing threads), which is where the dispatch-path win over the
// treap's O(log n) descent comes from; `ptbench dispatch` measures
// exactly this regime.
//
// Entries hold a copy of the thread's label, refreshed on every fork.
// The thread's own label keeps evolving (each fork appends a
// continuation bit); insertBefore checks the new child against the
// parent's entry and then replaces the entry's label with the parent's
// current one. The replacement keeps the entry's rank: the current
// label extends the old copy, and every live entry that also extends
// it is an earlier child, already left of both. So a heap-resident
// entry stays validly placed, the entry order is at all times the
// linked list the seed maintained (pinned by the three-way differential
// suite in depa_diff_test.go), and each fork's check compares a child
// with its immediate continuation — O(1) however many forks the parent
// has made.
type adfDepa struct {
	anchor int64        // next head-insert anchor; decreasing so newer head inserts land leftmost
	heap   []*depaEntry // indexed binary min-heap over ready entries
	head   *depaEntry   // intrusive list of every placeholder (count oracle)
	nlive  int
	vops   *int64 // shared virtual structure-op counter (see adfPolicy.VOps)
}

// depaEntry is a thread's placeholder. hi is the entry's heap index, -1
// while not ready.
type depaEntry struct {
	t          *core.Thread
	label      core.DepaLabel
	hi         int
	prev, next *depaEntry
}

func newADFDepa(vops *int64) *adfDepa {
	return &adfDepa{vops: vops}
}

// add links a placeholder for t with the given label snapshot.
func (s *adfDepa) add(t *core.Thread, label core.DepaLabel) {
	e := &depaEntry{t: t, label: label, hi: -1}
	t.SchedState = e
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	s.nlive++
	*s.vops++
}

func (s *adfDepa) insertHead(t *core.Thread) {
	// A head insert starts a fresh fork tree left of everything already
	// present (the root thread, or a cross-priority fork with no serial
	// anchor in this level). Overwrite the thread's label so its future
	// forks extend the new position.
	t.Order = core.HeadDepaLabel(s.anchor)
	s.anchor--
	s.add(t, t.Order)
}

func (s *adfDepa) insertBefore(child, parent *core.Thread) {
	pe := parent.SchedState.(*depaEntry)
	if !child.Order.Valid() {
		// The runtime labels children on the fork path; policy-level
		// harnesses drive OnCreate directly, so derive the label here
		// from the parent's evolving label.
		child.Order = parent.Order.Fork()
	}
	if child.Order.Compare(pe.label) >= 0 {
		panic("sched: depa child label not left of parent placeholder")
	}
	pe.label = parent.Order // same rank; see the type comment
	s.add(child, child.Order)
}

func (s *adfDepa) remove(t *core.Thread) {
	e := t.SchedState.(*depaEntry)
	if e.hi >= 0 {
		// Callers clear the ready flag first; keep the heap right
		// regardless, like the treap.
		s.heapRemove(e.hi)
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
	s.nlive--
	*s.vops++
}

func (s *adfDepa) setReady(t *core.Thread, ready bool) bool {
	e := t.SchedState.(*depaEntry)
	if (e.hi >= 0) == ready {
		return false
	}
	if ready {
		s.heapPush(e)
	} else {
		s.heapRemove(e.hi)
	}
	return true
}

func (s *adfDepa) readyCount() int { return len(s.heap) }

func (s *adfDepa) takeLeftmostReady() *core.Thread {
	if len(s.heap) == 0 {
		return nil
	}
	return s.heapRemove(0).t
}

func (s *adfDepa) count() int {
	n := 0
	for e := s.head; e != nil; e = e.next {
		n++
	}
	return n
}

// Heap plumbing: a standard binary min-heap on label order, with each
// entry tracking its slot so blocking an arbitrary ready entry is an
// indexed delete rather than a scan. Every compare and structural step
// bumps the shared vops counter, giving the dispatch microbenchmark a
// deterministic cost to gate on.

func (s *adfDepa) less(i, j int) bool {
	*s.vops++
	return s.heap[i].label.Compare(s.heap[j].label) < 0
}

func (s *adfDepa) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	h[i].hi = i
	h[j].hi = j
}

func (s *adfDepa) heapPush(e *depaEntry) {
	e.hi = len(s.heap)
	s.heap = append(s.heap, e)
	s.siftUp(e.hi)
	*s.vops++
}

func (s *adfDepa) heapRemove(i int) *depaEntry {
	e := s.heap[i]
	last := len(s.heap) - 1
	s.swap(i, last)
	s.heap[last] = nil
	s.heap = s.heap[:last]
	e.hi = -1
	if i < last {
		s.siftDown(i)
		s.siftUp(i)
	}
	*s.vops++
	return e
}

func (s *adfDepa) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *adfDepa) siftDown(i int) {
	n := len(s.heap)
	for {
		m := i
		if l := 2*i + 1; l < n && s.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.swap(i, m)
		i = m
	}
}
