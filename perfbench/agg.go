package main

import "spthreads/pthread"

// selfLayers groups span kinds into the layers whose self time is
// reported per execution; "user" is the threads' own code.
var selfLayers = []struct {
	name  string
	kinds []kind
}{
	{"user", []kind{kExec, kThread}},
	{"create", []kind{kCreate}},
	{"join", []kind{kJoin}},
	{"sync", []kind{kLock, kUnlock, kWait, kSignal}},
	{"mem", []kind{kMalloc, kFree}},
}

// layerAgg collects one value per traced execution for each per-layer
// quantity; the reported metric is the median over executions.
type layerAgg struct {
	per map[string][]float64
}

func newLayerAgg() *layerAgg { return &layerAgg{per: map[string][]float64{}} }

func (a *layerAgg) put(key string, v float64) { a.per[key] = append(a.per[key], v) }

// median is 0 when no execution produced the quantity.
func (a *layerAgg) median(key string) float64 { return quantile(a.per[key], 0.5) }

// add takes one execution's spans.
func (a *layerAgg) add(ss []span) {
	self := selfTimes(ss)
	var byKind [numKinds][]float64
	for i, s := range ss {
		byKind[s.kind] = append(byKind[s.kind], float64(self[i]))
	}
	for k, xs := range byKind {
		if len(xs) > 0 {
			a.put(kindNames[k]+".p50", quantile(xs, 0.5))
			a.put(kindNames[k]+".p90", quantile(xs, 0.9))
		}
	}
	a.put("create.count", float64(len(byKind[kCreate])))
	a.put("malloc.count", float64(len(byKind[kMalloc])))
	for _, l := range selfLayers {
		sum := 0.0
		for _, k := range l.kinds {
			for _, x := range byKind[k] {
				sum += x
			}
		}
		a.put("self."+l.name, sum)
	}
	if r, ok := lateVsEarly(ss, self); ok {
		a.put("create.late_vs_early", r)
	}
}

// lateVsEarly compares, for each thread that forked at least 16
// children, the median Create self time over its last sixteenth of
// forks with that over its first sixteenth; the result is the median
// over such threads. A fork cost that does not grow with the number of
// forks gives 1.
func lateVsEarly(ss []span, self []int64) (float64, bool) {
	byParent := map[int32][]float64{}
	for i, s := range ss { // span index order is fork order within a thread
		if s.kind == kCreate {
			byParent[s.parent] = append(byParent[s.parent], float64(self[i]))
		}
	}
	var ratios []float64
	for _, xs := range byParent {
		if len(xs) < 16 {
			continue
		}
		k := len(xs) / 16
		if early := quantile(xs[:k], 0.5); early > 0 {
			ratios = append(ratios, quantile(xs[len(xs)-k:], 0.5)/early)
		}
	}
	return quantile(ratios, 0.5), len(ratios) > 0
}

// addStats takes one execution's run statistics. The scheduler's wall
// time histograms exist on the native backend only; the sim's are in
// virtual cycles and are summarized by the sim.* metrics instead.
func (a *layerAgg) addStats(st pthread.Stats, sim bool) {
	a.put("dummy_threads", float64(st.DummyThreads))
	m := st.Metrics
	if m == nil {
		return
	}
	a.put("sched.dispatches", float64(m.Counters["sched.dispatches"]))
	if sim {
		return
	}
	a.put("sched.lock.wait.sum", float64(m.Histograms["sched.lock.wait"].Sum))
	a.put("sched.dispatch.wait.p50", float64(m.Histograms["sched.dispatch.wait"].P50))
	a.put("sched.resume.handoff.p50", float64(m.Histograms["sched.resume.handoff"].P50))
}
