package core

// Property tests for the DePa label algebra itself, independent of any
// scheduler store: Compare is a strict total order over distinct
// labels, forks order child-before-continuation and earlier-child
// before-later-child, established comparisons are stable as lineages
// keep forking (labels are immutable snapshots), and label size grows
// exactly one bit per fork.

import (
	"math/rand"
	"sort"
	"testing"
)

// forkTree grows a random fork tree: each step forks a child from a
// random live lineage. It returns the creation-time snapshot of every
// label in creation order; all snapshots denote distinct serial
// positions.
func forkTree(rng *rand.Rand, n int) []DepaLabel {
	root := RootDepaLabel()
	lineages := []*DepaLabel{&root}
	labels := []DepaLabel{root}
	for len(labels) < n {
		p := lineages[rng.Intn(len(lineages))]
		child := p.Fork()
		labels = append(labels, child)
		c := child
		lineages = append(lineages, &c)
	}
	return labels
}

func TestDepaTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	labels := forkTree(rng, 4000)

	// Reflexivity of equality: a label equals itself and its value copy.
	for _, k := range []int{0, 1, len(labels) / 2, len(labels) - 1} {
		cp := labels[k]
		if c := labels[k].Compare(cp); c != 0 {
			t.Fatalf("label %d: Compare with own copy = %d, want 0", k, c)
		}
	}

	// Totality and antisymmetry on random pairs: distinct labels compare
	// strictly, and in opposite directions when swapped.
	for trial := 0; trial < 200000; trial++ {
		i, j := rng.Intn(len(labels)), rng.Intn(len(labels))
		if i == j {
			continue
		}
		c1, c2 := labels[i].Compare(labels[j]), labels[j].Compare(labels[i])
		if c1 == 0 || c2 == 0 {
			t.Fatalf("distinct labels %d,%d compare equal", i, j)
		}
		if c1 != -c2 {
			t.Fatalf("antisymmetry broken for %d,%d: %d vs %d", i, j, c1, c2)
		}
	}

	// Transitivity: sort by Compare, then every sampled i<j<k triple
	// must agree with the sorted positions, including the long-range
	// pair the sort never compared directly.
	sorted := append([]DepaLabel(nil), labels...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Compare(sorted[b]) < 0 })
	for k := 1; k < len(sorted); k++ {
		if sorted[k-1].Compare(sorted[k]) >= 0 {
			t.Fatalf("sorted order broken at %d", k)
		}
	}
	for trial := 0; trial < 100000; trial++ {
		i := rng.Intn(len(sorted) - 2)
		j := i + 1 + rng.Intn(len(sorted)-i-2)
		k := j + 1 + rng.Intn(len(sorted)-j-1)
		if sorted[i].Compare(sorted[k]) != -1 {
			t.Fatalf("transitivity broken: sorted[%d] not left of sorted[%d]", i, k)
		}
	}
}

// TestDepaForkOrder pins the fork-local ordering rules: every child is
// left of the parent's entry snapshot, and an earlier-forked child is
// left of every later-forked one (fork-left < fork-right).
func TestDepaForkOrder(t *testing.T) {
	parent := RootDepaLabel()
	entry := parent // the store's insert-time snapshot
	var kids []DepaLabel
	var snaps []DepaLabel
	for i := 0; i < 300; i++ {
		kids = append(kids, parent.Fork())
		snaps = append(snaps, parent) // parent's evolving label after the fork
	}
	for i, kid := range kids {
		if kid.Compare(entry) != -1 {
			t.Fatalf("child %d not left of parent entry snapshot", i)
		}
		for j := i + 1; j < len(kids); j++ {
			if kids[i].Compare(kids[j]) != -1 {
				t.Fatalf("fork-left < fork-right broken for children %d,%d", i, j)
			}
		}
		// Every child is left of every parent snapshot taken at or
		// after its own fork (the snapshots all denote the same entry).
		for j := i; j < len(snaps); j++ {
			if kid.Compare(snaps[j]) != -1 {
				t.Fatalf("child %d not left of parent snapshot %d", i, j)
			}
		}
	}
}

// TestDepaPrefixStability builds deep and skewed trees — a spine of
// depth 10^3 and a 10^5-label mixed tree — and checks that established
// comparisons hold across chunk boundaries and as lineages keep
// forking.
func TestDepaPrefixStability(t *testing.T) {
	// Deep chain: thread i+1 is the child of thread i. Descendants
	// precede their ancestors' continuations, so the chain is ordered
	// deepest-first.
	const depth = 1000
	chain := make([]DepaLabel, depth+1)
	chain[0] = RootDepaLabel()
	lineage := chain[0]
	for i := 1; i <= depth; i++ {
		chain[i] = lineage.Fork()
		lineage = chain[i] // descend: the child forks next
	}
	for i := 0; i < depth; i++ {
		if chain[i+1].Compare(chain[i]) != -1 {
			t.Fatalf("depth %d: child not left of parent", i)
		}
	}
	if chain[depth].Compare(chain[0]) != -1 {
		t.Fatalf("deepest descendant not left of root")
	}
	if got := chain[depth].Depth(); got != depth {
		t.Fatalf("deepest label Depth = %d, want %d", got, depth)
	}

	// Skewed: one lineage forks 10^3 children; each comparison crosses
	// many chunk boundaries on the continuation side only.
	hot := RootDepaLabel()
	var kids []DepaLabel
	for i := 0; i < depth; i++ {
		kids = append(kids, hot.Fork())
	}
	for i := 1; i < len(kids); i++ {
		if kids[i-1].Compare(kids[i]) != -1 {
			t.Fatalf("skewed: child %d not left of child %d", i-1, i)
		}
	}
	if kids[0].Compare(kids[depth-1]) != -1 {
		t.Fatalf("skewed: first child not left of last")
	}

	// 10^5-label random tree: the creation-order invariant — a child
	// created later than its sibling sits right of it — is checked via
	// a full sort plus adjacent strict inequality (any intransitivity
	// or instability would leave equal or inverted neighbors).
	rng := rand.New(rand.NewSource(97))
	labels := forkTree(rng, 100000)
	sort.Slice(labels, func(a, b int) bool { return labels[a].Compare(labels[b]) < 0 })
	for k := 1; k < len(labels); k++ {
		if labels[k-1].Compare(labels[k]) >= 0 {
			t.Fatalf("10^5 tree: order broken at %d", k)
		}
	}
}

// TestDepaGrowthBounds: a label's bit length equals the number of forks
// on its path — one bit per fork on each side, O(1) amortized space —
// and anchors order head-labels ahead of bit strings.
func TestDepaGrowthBounds(t *testing.T) {
	l := RootDepaLabel()
	if l.Depth() != 0 {
		t.Fatalf("root Depth = %d, want 0", l.Depth())
	}
	for i := 1; i <= 200; i++ {
		child := l.Fork()
		if l.Depth() != i {
			t.Fatalf("after %d forks, continuation Depth = %d", i, l.Depth())
		}
		if child.Depth() != i {
			t.Fatalf("after %d forks, child Depth = %d", i, child.Depth())
		}
	}

	// Anchor ordering: a later head insert (more negative anchor) is
	// left of everything under an earlier anchor, including deep
	// descendants.
	a0 := HeadDepaLabel(0)
	a1 := HeadDepaLabel(-1)
	deep := a1
	for i := 0; i < 100; i++ {
		deep = deep.Fork()
	}
	if a1.Compare(a0) != -1 || deep.Compare(a0) != -1 {
		t.Fatalf("anchor -1 subtree not left of anchor 0")
	}
	if c := a0.Compare(a1); c != 1 {
		t.Fatalf("Compare(anchor 0, anchor -1) = %d, want 1", c)
	}
}

// TestDepaForkSelfRoots: forking an invalid (zero) label promotes it to
// the root label first, so lineages driven outside a machine are valid.
func TestDepaForkSelfRoots(t *testing.T) {
	var l DepaLabel
	if l.Valid() {
		t.Fatal("zero label reports valid")
	}
	child := l.Fork()
	if !l.Valid() || !child.Valid() {
		t.Fatal("fork did not produce valid labels")
	}
	if child.Compare(l) != -1 {
		t.Fatal("self-rooted child not left of continuation")
	}
	if child.Compare(RootDepaLabel()) != -1 {
		t.Fatal("self-rooted child not left of the root position")
	}
}

// oracleLabel is a naive bit-string model of a DepaLabel: one bool per
// fork bit, root first.
type oracleLabel struct {
	anchor int64
	bits   []bool
}

// fork mirrors DepaLabel.Fork: the child gets a 0-bit, the receiver a
// 1-bit. Bit slices are copied so every snapshot stays immutable.
func (o *oracleLabel) fork() oracleLabel {
	child := oracleLabel{anchor: o.anchor, bits: append(append([]bool(nil), o.bits...), false)}
	o.bits = append(append([]bool(nil), o.bits...), true)
	return child
}

// compare is the comparison rule spelled out: anchor, then the first
// differing bit, then the longer string (the descendant) is left.
func (o oracleLabel) compare(p oracleLabel) int {
	if o.anchor != p.anchor {
		if o.anchor < p.anchor {
			return -1
		}
		return 1
	}
	for i := 0; i < len(o.bits) && i < len(p.bits); i++ {
		if o.bits[i] != p.bits[i] {
			if !o.bits[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(o.bits) > len(p.bits):
		return -1
	case len(o.bits) < len(p.bits):
		return 1
	}
	return 0
}

// pairedLineage forks a DepaLabel and its oracle in lock step.
type pairedLineage struct {
	l DepaLabel
	o oracleLabel
}

// oracleTree grows a random fork tree from root in branches: each branch
// starts at a random existing lineage and walks up to 400 forks, at each
// one either staying on its lineage (a 1-bit) or descending into the
// child it just forked (a 0-bit). Branches thus carry random bits and
// diverge from each other at every depth, often chunks back from their
// tips. Every child and every continuation snapshot is recorded, so the
// result holds a lineage's snapshots at all depths, including ones taken
// with a full partial word (nbits == 64).
func oracleTree(rng *rand.Rand, root pairedLineage, n int) []pairedLineage {
	lineages := []*pairedLineage{&root}
	out := []pairedLineage{root}
	for len(out) < n {
		p := lineages[rng.Intn(len(lineages))]
		for steps := rng.Intn(400); steps > 0 && len(out) < n; steps-- {
			c := pairedLineage{l: p.l.Fork(), o: p.o.fork()}
			out = append(out, c, *p)
			lineages = append(lineages, &c)
			if rng.Intn(2) == 0 {
				p = &c
			}
		}
	}
	return out
}

// TestDepaCompareMatchesOracle: Compare agrees with the []bool oracle on
// near and random pairs of labels from random fork trees more than 64·8
// bits deep. Each seed grows the tree twice from independent roots, so
// across the two copies chunk pointers differ while bits are equal.
func TestDepaCompareMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		var labels []pairedLineage
		for twin := 0; twin < 2; twin++ {
			rng := rand.New(rand.NewSource(seed))
			labels = append(labels, oracleTree(rng, pairedLineage{l: RootDepaLabel()}, 4000)...)
		}
		maxDepth, full := 0, 0
		for _, p := range labels {
			if p.l.Depth() != len(p.o.bits) {
				t.Fatalf("seed %d: Depth %d, oracle has %d bits", seed, p.l.Depth(), len(p.o.bits))
			}
			if p.l.Depth() > maxDepth {
				maxDepth = p.l.Depth()
			}
			if p.l.nbits == 64 {
				full++
			}
		}
		if maxDepth <= 64*8 || full == 0 {
			t.Fatalf("seed %d: tree too shallow (max depth %d, %d full-word labels)", seed, maxDepth, full)
		}
		check := func(i, j int) {
			if got, want := labels[i].l.Compare(labels[j].l), labels[i].o.compare(labels[j].o); got != want {
				t.Fatalf("seed %d: Compare(%d, %d) = %d, oracle %d (depths %d, %d)",
					seed, i, j, got, want, labels[i].l.Depth(), labels[j].l.Depth())
			}
		}
		// Near pairs (a child, its parent's snapshot, their neighbours,
		// and each label's twin) plus random pairs across both trees.
		half := len(labels) / 2
		for i := range labels {
			for j := max(0, i-4); j <= min(len(labels)-1, i+4); j++ {
				check(i, j)
			}
			check(i, (i+half)%len(labels))
		}
		rng := rand.New(rand.NewSource(-seed))
		for k := 0; k < 100000; k++ {
			check(rng.Intn(len(labels)), rng.Intn(len(labels)))
		}
	}
}

// TestDepaCompareFullWordSnapshot: a snapshot taken when the partial
// word is exactly full (nbits == 64) is a prefix of its own later
// extension, whose spine gained that word as a chunk; the extension is
// left of it, and a chunk-pointer-distinct copy of the same bits
// compares equal.
func TestDepaCompareFullWordSnapshot(t *testing.T) {
	l, twin := RootDepaLabel(), RootDepaLabel()
	o := oracleLabel{}
	for i := 0; i < 64*3; i++ {
		l.Fork()
		twin.Fork()
		o.fork()
	}
	if l.nbits != 64 {
		t.Fatalf("nbits = %d after %d forks, want 64", l.nbits, 64*3)
	}
	snap, osnap := l, o
	for i := 0; i < 70; i++ {
		kid, okid := l.Fork(), o.fork()
		for _, c := range []struct {
			a, b   DepaLabel
			oa, ob oracleLabel
		}{
			{l, snap, o, osnap},
			{kid, snap, okid, osnap},
			{kid, twin, okid, osnap},
			{twin, snap, osnap, osnap},
		} {
			if got, want := c.a.Compare(c.b), c.oa.compare(c.ob); got != want {
				t.Fatalf("fork %d: Compare = %d, oracle %d", i, got, want)
			}
			if got, want := c.b.Compare(c.a), c.ob.compare(c.oa); got != want {
				t.Fatalf("fork %d: reversed Compare = %d, oracle %d", i, got, want)
			}
		}
	}
}

var depaCompareSink int

// TestDepaCompareAllocFree: Compare allocates nothing, including on
// labels with different spines that diverge more than ten chunks back.
func TestDepaCompareAllocFree(t *testing.T) {
	base := RootDepaLabel()
	for i := 0; i < 64*3+5; i++ {
		base.Fork()
	}
	a := base
	b := a.Fork()
	for i := 0; i < 64*11+7; i++ {
		a.Fork()
	}
	for i := 0; i < 64*13+29; i++ {
		b.Fork()
	}
	if a.spine == b.spine || a.spine.words-base.spine.words <= 10 || b.spine.words-base.spine.words <= 10 {
		t.Fatalf("labels do not diverge more than 10 chunks back")
	}
	pairs := [][2]DepaLabel{{a, b}, {b, a}, {a, base}, {base, b}, {a, a}}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(100, func() { depaCompareSink = p[0].Compare(p[1]) }); n != 0 {
			t.Fatalf("Compare allocated %.1f times per run", n)
		}
	}
	if a.Compare(b) != 1 || b.Compare(a) != -1 || a.Compare(base) != -1 {
		t.Fatalf("alloc-test labels misordered")
	}
}
