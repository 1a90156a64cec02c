package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"spthreads/pthread"
)

// sizes fixes how much work one execution does. The seed changes the
// input values, never these shapes, so runs with different seeds are
// comparable.
type sizes struct {
	flatN     int // fork-flat: children forked by the root
	treeInst  int // fork-tree: dataset instances
	treeLeaf  int // fork-tree: MinLeaf, the leaf and serial cutoff
	pipeItems int // pipeline: items, split evenly over the producers
	matN      int // sim-matmul: matrix dimension
}

// fullSizes make one execution take tens of milliseconds, so a run of
// a few seconds holds well over 100 executions.
var fullSizes = sizes{flatN: 10000, treeInst: 5000, treeLeaf: 125, pipeItems: 8000, matN: 256}

// program is one workload's inputs, reference result and output slots.
type program interface {
	config() pthread.Config
	// body prepares the output slots (untimed) and returns the root
	// thread function of one execution; r is nil in the untraced run.
	body(r *recorder) func(*pthread.T)
	// check verifies the output of the execution that just ran.
	check() error
}

type workload struct {
	name  string
	setup func(seed int64, sz sizes) (program, error)
}

var workloads = []workload{
	{"fork-flat", newForkFlat},
	{"fork-tree", newForkTree},
	{"pipeline", newPipeline},
	{"sim-matmul", newSimMatmul},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nativeConfig is the library's defaults on the native backend: policy,
// engine and scheduler mode left empty, one worker per CPU, and the
// paper's one-page default stack.
func nativeConfig() pthread.Config {
	return pthread.Config{
		Backend:      pthread.BackendNative,
		Procs:        runtime.NumCPU(),
		DefaultStack: pthread.SmallStackSize,
	}
}

// mix is a bijective 64-bit hash (the splitmix64 finalizer).
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// ---- fork-flat ------------------------------------------------------

// forkFlat: the root forks N children, each writing one slot, then
// joins them all.
type forkFlat struct {
	in, want, out []uint64
}

func newForkFlat(seed int64, sz sizes) (program, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &forkFlat{
		in:   make([]uint64, sz.flatN),
		want: make([]uint64, sz.flatN),
		out:  make([]uint64, sz.flatN),
	}
	for i := range f.in {
		f.in[i] = rng.Uint64()
		f.want[i] = mix(f.in[i])
	}
	return f, nil
}

func (f *forkFlat) config() pthread.Config { return nativeConfig() }

func (f *forkFlat) body(r *recorder) func(*pthread.T) {
	clear(f.out)
	return r.root(func(t *pthread.T) {
		hs := make([]*pthread.Thread, len(f.in))
		for i := range hs {
			hs[i] = r.create(t, func(*pthread.T) { f.out[i] = mix(f.in[i]) })
		}
		for _, h := range hs {
			r.join(t, h)
		}
	})
}

func (f *forkFlat) check() error {
	for i, v := range f.out {
		if v != f.want[i] {
			return fmt.Errorf("fork-flat: slot %d = %#x, want %#x", i, v, f.want[i])
		}
	}
	return nil
}

// ---- fork-tree ------------------------------------------------------

// forkTree builds the paper's decision tree (C4.5-style gain ratio over
// continuous attributes) forking a thread per recursive call of both
// the tree build and the per-attribute quicksorts, allocating each
// child's index array with T.Malloc under the ADF quota.
type forkTree struct {
	d       dataset
	minLeaf int
	xlogx   []float64 // xlogx[k] = k*log2(k)
	want    treeSummary
	got     treeSummary
}

type dataset struct {
	attrs [][]float64 // [attr][instance]
	label []bool
}

// treeSummary identifies a built tree: a hash of its preorder shape
// and splits, and its training accuracy.
type treeSummary struct {
	hash     uint64
	nodes    int
	accuracy float64
}

type node struct {
	leaf, class bool
	attr        int
	split       float64
	left, right *node
}

func newForkTree(seed int64, sz sizes) (program, error) {
	f := &forkTree{d: genDataset(seed, sz.treeInst, 4), minLeaf: sz.treeLeaf}
	n := len(f.d.label)
	f.xlogx = make([]float64, n+1)
	for k := 2; k <= n; k++ {
		f.xlogx[k] = float64(k) * math.Log2(float64(k))
	}
	// The reference is the same algorithm with every fork replaced by a
	// call, on one simulated processor.
	var root *node
	if _, err := pthread.Run(pthread.Config{Procs: 1}, func(t *pthread.T) {
		root = f.buildAll(t, nil, false)
	}); err != nil {
		return nil, fmt.Errorf("fork-tree reference: %w", err)
	}
	f.want = f.summarize(root)
	if f.want.accuracy < 0.75 {
		return nil, fmt.Errorf("fork-tree reference: training accuracy %.3f below 0.75", f.want.accuracy)
	}
	return f, nil
}

// treeShapeSeed fixes the dataset's cluster structure and labels.
const treeShapeSeed = 23

// genDataset derives the run's dataset from the fixed-shape one: the
// seed reorders the instances and maps each attribute through its own
// strictly increasing affine function. The induced tree, and so the
// work of an execution, is the same for every seed, while the input
// values differ.
func genDataset(seed int64, n, attrs int) dataset {
	shape := clusteredDataset(treeShapeSeed, n, attrs)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	d := dataset{attrs: make([][]float64, attrs), label: make([]bool, n)}
	for a := range d.attrs {
		scale, shift := 0.5+1.5*rng.Float64(), 20*rng.Float64()-10
		d.attrs[a] = make([]float64, n)
		for i, j := range perm {
			d.attrs[a][i] = scale*shape.attrs[a][j] + shift
		}
	}
	for i, j := range perm {
		d.label[i] = shape.label[j]
	}
	return d
}

// clusteredDataset makes instances in axis-separable clusters of
// unequal size, each with its own threshold rule on its own attribute,
// plus label noise, so the induced tree is bushy and data-dependent.
func clusteredDataset(seed int64, n, attrs int) dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset{attrs: make([][]float64, attrs), label: make([]bool, n)}
	for a := range d.attrs {
		d.attrs[a] = make([]float64, n)
	}
	const clusters = 8
	for i := 0; i < n; i++ {
		c := rng.Intn(clusters)
		if rng.Float64() < 0.5 {
			c /= 2
		}
		for a := 0; a < attrs; a++ {
			d.attrs[a][i] = float64((c>>a)&1)*1.6 + rng.NormFloat64()*0.35
		}
		rc := (c + 1) % attrs
		thr := float64((c>>rc)&1)*1.6 + 0.15*float64(c%3-1)
		v := d.attrs[rc][i] > thr
		if rng.Float64() < 0.08 {
			v = !v
		}
		d.label[i] = v
	}
	return d
}

func (f *forkTree) config() pthread.Config { return nativeConfig() }

func (f *forkTree) body(r *recorder) func(*pthread.T) {
	f.got = treeSummary{}
	return r.root(func(t *pthread.T) {
		f.got = f.summarize(f.buildAll(t, r, true))
	})
}

func (f *forkTree) check() error {
	if f.got != f.want {
		return fmt.Errorf("fork-tree: built %+v, want %+v", f.got, f.want)
	}
	return nil
}

func (f *forkTree) buildAll(t *pthread.T, r *recorder, parallel bool) *node {
	n := len(f.d.label)
	data := r.malloc(t, int64(n)*int64(len(f.d.attrs)*8+1))
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	idxAll := r.malloc(t, int64(n)*4)
	root := f.build(t, r, idx, parallel)
	r.free(t, idxAll)
	r.free(t, data)
	return root
}

func (f *forkTree) build(t *pthread.T, r *recorder, idx []int32, parallel bool) *node {
	n := len(idx)
	pos := 0
	for _, i := range idx {
		if f.d.label[i] {
			pos++
		}
	}
	nd := &node{leaf: true, class: pos*2 >= n}
	if n < f.minLeaf || pos == 0 || pos == n {
		return nd
	}
	attr, split, ok := f.bestSplit(t, r, idx, parallel)
	if !ok {
		return nd
	}
	vals := f.d.attrs[attr]
	var left, right []int32
	for _, i := range idx {
		if vals[i] < split {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return nd
	}
	nd.leaf, nd.attr, nd.split = false, attr, split
	lAll := r.malloc(t, int64(len(left))*4)
	rAll := r.malloc(t, int64(len(right))*4)
	if parallel && n >= f.minLeaf*2 {
		r.par(t,
			func(ct *pthread.T) { nd.left = f.build(ct, r, left, true) },
			func(ct *pthread.T) { nd.right = f.build(ct, r, right, true) },
		)
	} else {
		nd.left = f.build(t, r, left, false)
		nd.right = f.build(t, r, right, false)
	}
	r.free(t, lAll)
	r.free(t, rAll)
	return nd
}

// bestSplit sorts the instances by each attribute and scans for the
// boundary with the best gain ratio.
func (f *forkTree) bestSplit(t *pthread.T, r *recorder, idx []int32, parallel bool) (attr int, split float64, ok bool) {
	n := len(idx)
	minSide := max(f.minLeaf/8, 2)
	best := 0.0
	for a, vals := range f.d.attrs {
		sorted := make([]int32, n)
		copy(sorted, idx)
		sAll := r.malloc(t, int64(n)*4)
		f.quicksort(t, r, sorted, vals, parallel)
		total := 0
		for _, i := range sorted {
			if f.d.label[i] {
				total++
			}
		}
		posLeft := 0
		for k := 0; k < n-1; k++ {
			if f.d.label[sorted[k]] {
				posLeft++
			}
			if vals[sorted[k]] == vals[sorted[k+1]] || k+1 < minSide || n-(k+1) < minSide {
				continue
			}
			if gr := f.gainRatio(n, total, k+1, posLeft); gr > best {
				best, attr, split, ok = gr, a, (vals[sorted[k]]+vals[sorted[k+1]])/2, true
			}
		}
		r.free(t, sAll)
	}
	return attr, split, ok
}

// gainRatio is C4.5's gain ratio of splitting n instances (pos
// positive) into a left part of nl with posLeft positive, with its
// minimum-gain guard against sliver splits.
func (f *forkTree) gainRatio(n, pos, nl, posLeft int) float64 {
	L := f.xlogx
	nr, posRight := n-nl, pos-posLeft
	gain := (L[n] - L[pos] - L[n-pos]) - (L[nl] - L[posLeft] - L[nl-posLeft]) - (L[nr] - L[posRight] - L[nr-posRight])
	if gain/float64(n) < 0.001 {
		return 0
	}
	splitInfo := L[n] - L[nl] - L[nr]
	if splitInfo < 1e-9 {
		return 0
	}
	return gain / splitInfo
}

// quicksort sorts idx by vals, forking a thread per recursive call
// above the leaf cutoff.
func (f *forkTree) quicksort(t *pthread.T, r *recorder, idx []int32, vals []float64, parallel bool) {
	n := len(idx)
	if n < f.minLeaf || !parallel {
		sortIdx(idx, vals)
		return
	}
	p := medianOfThree(vals, idx[0], idx[n/2], idx[n-1])
	lo, hi := 0, n-1
	for lo <= hi {
		for vals[idx[lo]] < p {
			lo++
		}
		for vals[idx[hi]] > p {
			hi--
		}
		if lo <= hi {
			idx[lo], idx[hi] = idx[hi], idx[lo]
			lo++
			hi--
		}
	}
	left, right := idx[:hi+1], idx[lo:]
	r.par(t,
		func(ct *pthread.T) { f.quicksort(ct, r, left, vals, true) },
		func(ct *pthread.T) { f.quicksort(ct, r, right, vals, true) },
	)
}

// sortIdx sorts idx ascending by vals[idx[i]] (three-way quicksort,
// insertion sort for short ranges).
func sortIdx(idx []int32, vals []float64) {
	for len(idx) > 12 {
		p := medianOfThree(vals, idx[0], idx[len(idx)/2], idx[len(idx)-1])
		lt, i, gt := 0, 0, len(idx)
		for i < gt {
			switch v := vals[idx[i]]; {
			case v < p:
				idx[lt], idx[i] = idx[i], idx[lt]
				lt++
				i++
			case v > p:
				gt--
				idx[gt], idx[i] = idx[i], idx[gt]
			default:
				i++
			}
		}
		if lt < len(idx)-gt {
			sortIdx(idx[:lt], vals)
			idx = idx[gt:]
		} else {
			sortIdx(idx[gt:], vals)
			idx = idx[:lt]
		}
	}
	for i := 1; i < len(idx); i++ {
		k, v, j := idx[i], vals[idx[i]], i-1
		for j >= 0 && vals[idx[j]] > v {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = k
	}
}

func medianOfThree(vals []float64, a, b, c int32) float64 {
	x, y, z := vals[a], vals[b], vals[c]
	switch {
	case (x <= y && y <= z) || (z <= y && y <= x):
		return y
	case (y <= x && x <= z) || (z <= x && x <= y):
		return x
	default:
		return z
	}
}

func (f *forkTree) summarize(root *node) treeSummary {
	var s treeSummary
	var walk func(nd *node)
	walk = func(nd *node) {
		s.nodes++
		h := uint64(nd.attr)<<2 | b2u(nd.leaf)<<1 | b2u(nd.class)
		s.hash = mix(s.hash ^ mix(h^math.Float64bits(nd.split)))
		if !nd.leaf {
			walk(nd.left)
			walk(nd.right)
		}
	}
	walk(root)
	correct := 0
	for i, want := range f.d.label {
		nd := root
		for !nd.leaf {
			if f.d.attrs[nd.attr][i] < nd.split {
				nd = nd.left
			} else {
				nd = nd.right
			}
		}
		if nd.class == want {
			correct++
		}
	}
	s.accuracy = float64(correct) / float64(len(f.d.label))
	return s
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ---- pipeline -------------------------------------------------------

const (
	producers = 4
	consumers = 6
	queueCap  = 8
)

// pipeline passes seeded items from producers to consumers through a
// bounded queue built from one Mutex and two Conds.
type pipeline struct {
	items        []uint64
	wantSum      uint64
	q            queue
	resMu        pthread.Mutex
	gotN, gotSum uint64
}

type queue struct {
	mu                pthread.Mutex
	notFull, notEmpty pthread.Cond
	buf               [queueCap]uint64
	head, n           int
	closed            bool
	// waits counts Cond.Wait calls; rewaits counts wake-ups that found
	// the waited-for condition still false.
	waits, rewaits int
}

func newPipeline(seed int64, sz sizes) (program, error) {
	if sz.pipeItems%producers != 0 {
		return nil, fmt.Errorf("pipeline: %d items do not split over %d producers", sz.pipeItems, producers)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &pipeline{items: make([]uint64, sz.pipeItems)}
	for i := range p.items {
		p.items[i] = rng.Uint64()
		p.wantSum += p.items[i]
	}
	return p, nil
}

func (p *pipeline) config() pthread.Config { return nativeConfig() }

func (p *pipeline) body(r *recorder) func(*pthread.T) {
	// Sync objects bind to the run that first uses them, so each
	// execution gets fresh ones.
	p.q = queue{}
	p.resMu = pthread.Mutex{}
	p.gotN, p.gotSum = 0, 0
	per := len(p.items) / producers
	return r.root(func(t *pthread.T) {
		var hs [consumers]*pthread.Thread
		for c := range hs {
			hs[c] = r.create(t, func(ct *pthread.T) {
				var n, sum uint64
				for {
					v, ok := p.q.get(ct, r)
					if !ok {
						break
					}
					n++
					sum += v
				}
				r.lock(ct, &p.resMu)
				p.gotN += n
				p.gotSum += sum
				r.unlock(ct, &p.resMu)
			})
		}
		var ps [producers]*pthread.Thread
		for i := range ps {
			part := p.items[i*per : (i+1)*per]
			ps[i] = r.create(t, func(ct *pthread.T) {
				for _, v := range part {
					p.q.put(ct, r, v)
				}
			})
		}
		for _, h := range ps {
			r.join(t, h)
		}
		r.lock(t, &p.q.mu)
		p.q.closed = true
		r.broadcast(t, &p.q.notEmpty)
		r.unlock(t, &p.q.mu)
		for _, h := range hs {
			r.join(t, h)
		}
	})
}

func (q *queue) put(t *pthread.T, r *recorder, v uint64) {
	r.lock(t, &q.mu)
	for q.n == queueCap {
		q.waitOn(t, r, &q.notFull, func() bool { return q.n == queueCap })
	}
	q.buf[(q.head+q.n)%queueCap] = v
	q.n++
	r.signal(t, &q.notEmpty)
	r.unlock(t, &q.mu)
}

func (q *queue) get(t *pthread.T, r *recorder) (uint64, bool) {
	r.lock(t, &q.mu)
	for q.n == 0 && !q.closed {
		q.waitOn(t, r, &q.notEmpty, func() bool { return q.n == 0 && !q.closed })
	}
	if q.n == 0 {
		r.unlock(t, &q.mu)
		return 0, false
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) % queueCap
	q.n--
	r.signal(t, &q.notFull)
	r.unlock(t, &q.mu)
	return v, true
}

// waitOn waits once on c and counts the wake-up as wasted if blocked()
// still holds. The caller holds q.mu.
func (q *queue) waitOn(t *pthread.T, r *recorder, c *pthread.Cond, blocked func() bool) {
	r.wait(t, c, &q.mu)
	q.waits++
	if blocked() {
		q.rewaits++
	}
}

func (p *pipeline) check() error {
	if p.gotN != uint64(len(p.items)) || p.gotSum != p.wantSum {
		return fmt.Errorf("pipeline: consumed %d items summing to %#x, want %d summing to %#x",
			p.gotN, p.gotSum, len(p.items), p.wantSum)
	}
	return nil
}

// ---- sim-matmul -----------------------------------------------------

const (
	simProcs = 8
	matLeaf  = 64 // serial base-case block, the paper's K
)

// simMatmul is the paper's Figure 4 divide-and-conquer multiply on the
// simulated machine: eight recursive multiplies forked as threads (four
// into C's quadrants, four into a temporary), a join, and a forked
// quadrant-wise add of the temporary into C.
type simMatmul struct {
	n       int
	a, b, c []float64
	want    []float64
}

// matrix is a square view into row-major storage, sharing the whole
// matrix's simulated allocation.
type matrix struct {
	n, stride int
	data      []float64
	alloc     pthread.Alloc
	off       int64 // element offset of the view in the allocation
}

func newSimMatmul(seed int64, sz sizes) (program, error) {
	n := sz.matN
	if n <= matLeaf || n&(n-1) != 0 {
		return nil, fmt.Errorf("sim-matmul: dimension %d must be a power of two above %d", n, matLeaf)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &simMatmul{n: n, a: make([]float64, n*n), b: make([]float64, n*n), c: make([]float64, n*n), want: make([]float64, n*n)}
	for i := range m.a {
		m.a[i] = rng.Float64() - 0.5
		m.b[i] = rng.Float64() - 0.5
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := m.a[i*n+k]
			for j := 0; j < n; j++ {
				m.want[i*n+j] += aik * m.b[k*n+j]
			}
		}
	}
	return m, nil
}

func (m *simMatmul) config() pthread.Config {
	return pthread.Config{Procs: simProcs, DefaultStack: pthread.SmallStackSize}
}

func (m *simMatmul) body(r *recorder) func(*pthread.T) {
	clear(m.c)
	return r.root(func(t *pthread.T) {
		a, b, c := m.whole(t, r, m.a), m.whole(t, r, m.b), m.whole(t, r, m.c)
		multAdd(t, r, a, b, c)
		for _, x := range []*matrix{a, b, c} {
			r.free(t, x.alloc)
		}
	})
}

// whole wraps input storage as a matrix; loading it is untimed in
// virtual time, as in the paper's methodology.
func (m *simMatmul) whole(t *pthread.T, r *recorder, data []float64) *matrix {
	x := &matrix{n: m.n, stride: m.n, data: data, alloc: r.malloc(t, int64(len(data))*8)}
	t.Prefault(x.alloc)
	return x
}

func (m *simMatmul) check() error {
	for i, v := range m.c {
		if d := v - m.want[i]; d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("sim-matmul: C[%d] = %v, want %v", i, v, m.want[i])
		}
	}
	return nil
}

func (x *matrix) quad(qi, qj int) *matrix {
	h := x.n / 2
	off := qi*h*x.stride + qj*h
	return &matrix{n: h, stride: x.stride, data: x.data[off:], alloc: x.alloc, off: x.off + int64(off)}
}

// touch charges the page accesses of the view's rows.
func (x *matrix) touch(t *pthread.T) {
	for i := 0; i < x.n; i++ {
		t.Touch(x.alloc, (x.off+int64(i*x.stride))*8, int64(x.n)*8)
	}
}

// multAdd computes C += A*B.
func multAdd(t *pthread.T, r *recorder, a, b, c *matrix) {
	n := a.n
	if n <= matLeaf {
		for i := 0; i < n; i++ {
			ci := c.data[i*c.stride : i*c.stride+n]
			for k := 0; k < n; k++ {
				aik := a.data[i*a.stride+k]
				for j, bv := range b.data[k*b.stride : k*b.stride+n] {
					ci[j] += aik * bv
				}
			}
		}
		t.Charge(2 * int64(n) * int64(n) * int64(n))
		a.touch(t)
		b.touch(t)
		c.touch(t)
		return
	}
	tmp := &matrix{n: n, stride: n, data: make([]float64, n*n), alloc: r.malloc(t, int64(n)*int64(n)*8)}
	mult := func(x, y, z *matrix) func(*pthread.T) {
		return func(ct *pthread.T) { multAdd(ct, r, x, y, z) }
	}
	r.par(t,
		mult(a.quad(0, 0), b.quad(0, 0), c.quad(0, 0)),
		mult(a.quad(0, 0), b.quad(0, 1), c.quad(0, 1)),
		mult(a.quad(1, 0), b.quad(0, 0), c.quad(1, 0)),
		mult(a.quad(1, 0), b.quad(0, 1), c.quad(1, 1)),
		mult(a.quad(0, 1), b.quad(1, 0), tmp.quad(0, 0)),
		mult(a.quad(0, 1), b.quad(1, 1), tmp.quad(0, 1)),
		mult(a.quad(1, 1), b.quad(1, 0), tmp.quad(1, 0)),
		mult(a.quad(1, 1), b.quad(1, 1), tmp.quad(1, 1)),
	)
	add(t, r, c, tmp)
	r.free(t, tmp.alloc)
}

// add computes C += T, forking a thread per quadrant.
func add(t *pthread.T, r *recorder, c, tm *matrix) {
	n := c.n
	if n <= matLeaf {
		for i := 0; i < n; i++ {
			ci := c.data[i*c.stride : i*c.stride+n]
			for j, v := range tm.data[i*tm.stride : i*tm.stride+n] {
				ci[j] += v
			}
		}
		t.Charge(int64(n) * int64(n))
		c.touch(t)
		tm.touch(t)
		return
	}
	sub := func(qi, qj int) func(*pthread.T) {
		return func(ct *pthread.T) { add(ct, r, c.quad(qi, qj), tm.quad(qi, qj)) }
	}
	r.par(t, sub(0, 0), sub(0, 1), sub(1, 0), sub(1, 1))
}

func (p *pipeline) waitStats() (waits, rewaits int) { return p.q.waits, p.q.rewaits }
