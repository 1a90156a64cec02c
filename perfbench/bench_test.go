package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"spthreads/pthread"
)

// tinySizes keep every workload's execution well under a millisecond
// or two, for tests.
var tinySizes = sizes{flatN: 64, treeInst: 1000, treeLeaf: 60, pipeItems: 80, matN: 128}

// inputs returns the generated inputs of a program, without its output
// slots or reference results.
func inputs(p program) any {
	switch p := p.(type) {
	case *forkFlat:
		return p.in
	case *forkTree:
		return p.d
	case *pipeline:
		return p.items
	case *simMatmul:
		return [][]float64{p.a, p.b}
	}
	panic("unknown program type")
}

func TestSeededInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.setup(7, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.setup(7, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			c, err := w.setup(8, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inputs(a), inputs(b)) {
				t.Error("the same seed gave different inputs")
			}
			if reflect.DeepEqual(inputs(a), inputs(c)) {
				t.Error("different seeds gave the same inputs")
			}
		})
	}
}

// Seeds change fork-tree's input values but not the tree they induce,
// so executions with different seeds do the same work.
func TestForkTreeShapeSeedInvariant(t *testing.T) {
	var first treeSummary
	for seed := int64(1); seed <= 4; seed++ {
		p, err := newForkTree(seed, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		s := p.(*forkTree).want
		if seed == 1 {
			first = s
		} else if s.nodes != first.nodes || s.accuracy != first.accuracy {
			t.Errorf("seed %d: tree of %d nodes, accuracy %v; seed 1: %d nodes, accuracy %v",
				seed, s.nodes, s.accuracy, first.nodes, first.accuracy)
		}
	}
}

// The sim is deterministic: the same seed gives the same virtual
// makespan and memory high-water mark, traced or not.
func TestSimMatmulDeterministic(t *testing.T) {
	run := func(seed int64, r *recorder) pthread.Stats {
		p, err := newSimMatmul(seed, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		e, err := execute(p, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e.st
	}
	a, b := run(3, nil), run(3, newRecorder())
	if a.Time != b.Time || a.TotalHWM != b.TotalHWM {
		t.Errorf("seed 3 gave vtime %v and %v, peak %d and %d", a.Time, b.Time, a.TotalHWM, b.TotalHWM)
	}
	if a.Time <= 0 || a.TotalHWM <= 0 {
		t.Errorf("vtime %v, peak %d: want both positive", a.Time, a.TotalHWM)
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	for _, w := range workloads {
		if !names[w.name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s declared in BENCHMARK.json is not emitted", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s emitted in %q, declared in %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

// Every workload runs clean at tiny sizes, traced and untraced, and
// emits exactly the metrics BENCHMARK.json declares.
func TestWorkloadsRunClean(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, seed: 5, sz: tinySizes}
			if err := b.setup(); err != nil {
				t.Fatal(err)
			}
			e2e := b.endToEnd(10 * time.Millisecond)
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < minExecs {
				t.Errorf("untraced: correct %v, %d of %d executions failed", e2e.Correct, e2e.Failed, e2e.Attempted)
			}
			sameMetrics(t, "trace 0", e2e.Metrics, endToEnd)
			for name, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			layer, spans := b.perLayer(20 * time.Millisecond)
			if !layer.Correct || layer.Failed != 0 {
				t.Errorf("traced: correct %v, %d of %d executions failed", layer.Correct, layer.Failed, layer.Attempted)
			}
			sameMetrics(t, "trace 1", layer.Metrics, perLayer)
			if len(spans) == 0 || spans[0].kind != kExec {
				t.Errorf("traced run kept %d spans, want the last execution's, rooted at its exec span", len(spans))
			}
		})
	}
}

// selfTimes subtracts the covered part of child spans, counting
// overlapping children once and clipping them to the parent.
func TestSelfTimes(t *testing.T) {
	ss := []span{
		{start: 0, end: 100, parent: -1, kind: kExec},
		{start: 10, end: 40, parent: 0, kind: kCreate},
		{start: 20, end: 60, parent: 1, kind: kThread}, // outlives its create span
		{start: 30, end: 50, parent: 2, kind: kLock},
		{start: 45, end: 55, parent: 2, kind: kUnlock}, // overlaps the lock span
		{start: 70, end: 80, parent: 0, kind: kJoin},
	}
	want := []int64{100 - 30 - 10, 30 - 20, 40 - 25, 20, 10, 10}
	if got := selfTimes(ss); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestLateVsEarly(t *testing.T) {
	var ss []span
	var self []int64
	ss = append(ss, span{parent: -1, kind: kExec})
	self = append(self, 0)
	for i := 0; i < 32; i++ {
		ss = append(ss, span{parent: 0, kind: kCreate})
		self = append(self, int64(100+100*(i/16))) // first half 100, second 200
	}
	if r, ok := lateVsEarly(ss, self); !ok || r != 2 {
		t.Errorf("lateVsEarly = %v, %v; want 2, true", r, ok)
	}
	if _, ok := lateVsEarly(ss[:10], self[:10]); ok {
		t.Error("lateVsEarly reported a ratio for a thread with fewer than 16 forks")
	}
}
