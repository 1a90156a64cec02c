package native_test

// Backend parity: the same program, run on the deterministic simulator
// and on the native goroutine backend, must compute the same answer.
// The benchmarks were written to be schedule-independent (disjoint
// writes, leaf-sorted reductions), so checksums compare exactly even
// though native interleavings vary run to run.

import (
	"math"
	"testing"

	"spthreads/internal/analyze"
	"spthreads/internal/barneshut"
	"spthreads/internal/dtree"
	"spthreads/internal/fft"
	"spthreads/internal/fmm"
	"spthreads/internal/matmul"
	"spthreads/internal/spmv"
	"spthreads/internal/trace"
	"spthreads/internal/volrend"
	"spthreads/pthread"
)

// runBoth executes fn on the sim and on the native backend with the
// given policy and returns both checksums for a bit-for-bit comparison.
func runBoth(t *testing.T, procs int, policy pthread.Policy, fn func(*pthread.T) float64) (sim, native float64) {
	t.Helper()
	var sums [2]float64
	for i, backend := range []pthread.Backend{pthread.BackendSim, pthread.BackendNative} {
		cfg := pthread.Config{
			Procs:        procs,
			Policy:       policy,
			Backend:      backend,
			DefaultStack: pthread.SmallStackSize,
		}
		if _, err := pthread.Run(cfg, func(pt *pthread.T) { sums[i] = fn(pt) }); err != nil {
			t.Fatalf("%s run: %v", backend, err)
		}
	}
	return sums[0], sums[1]
}

func matmulChecksum(t *pthread.T) float64 {
	const n, leaf = 128, 32
	a := matmul.New(t, n)
	b := matmul.New(t, n)
	c := matmul.New(t, n)
	a.FillRandom(t, 1)
	b.FillRandom(t, 2)
	c.Zero(t)
	matmul.ParallelMultAdd(t, a, b, c, leaf)
	var sum float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum += c.At(i, j) * float64(i*131+j+1)
		}
	}
	return sum
}

func barneshutChecksum(t *pthread.T) float64 {
	acc := barneshut.FineRun(t, barneshut.Config{
		N:           512,
		Steps:       2,
		Seed:        7,
		InsertChunk: 64,
	})
	var sum float64
	for i, a := range acc {
		w := float64(i + 1)
		sum += w * (a.X + 2*a.Y + 3*a.Z)
	}
	return sum
}

// dtreeChecksum hashes the built tree's structure: every split
// attribute, threshold, and leaf label folded with the node count.
func dtreeChecksum(t *pthread.T) float64 {
	d := dtree.Generate(t, dtree.GenConfig{Instances: 8000, Attrs: 4, Seed: 3})
	root := dtree.Build(t, d, 500)
	var sum float64
	var walk func(n *dtree.Node, depth float64)
	walk = func(n *dtree.Node, depth float64) {
		if n == nil {
			return
		}
		if n.Leaf {
			v := 1.0
			if n.Class {
				v = 2.0
			}
			sum += depth * (v + float64(n.Count))
			return
		}
		sum += depth * (float64(n.Attr+1)*1e3 + n.Split)
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(root, 1)
	return float64(root.Size())*1e6 + sum
}

// fftChecksum transforms a random signal with a forking recursion
// (n > serial base, 16-thread budget) and folds the spectrum. Each
// recursive half writes a disjoint destination range and the combine
// runs after both halves join, so the result is schedule-independent.
func fftChecksum(t *pthread.T) float64 {
	const n, threads = 1 << 13, 16
	plan := fft.NewPlan(t, n)
	src := fft.NewVector(t, n)
	dst := fft.NewVector(t, n)
	src.FillRandom(t, 11)
	fft.Transform(t, plan, src, dst, threads)
	var sum float64
	for i, c := range dst.Data {
		w := float64(i%251 + 1)
		sum += w * (real(c) + 2*imag(c))
	}
	dst.Free(t)
	src.Free(t)
	plan.Free(t)
	return sum
}

func spmvChecksum(t *pthread.T) float64 {
	return spmv.FineChecksum(t, spmv.Config{
		Gen:         spmv.GenConfig{Nodes: 4000, TargetNNZ: 20000, Seed: 3},
		Iterations:  4,
		FineThreads: 32,
	})
}

// fmmChecksum runs the four FMM phases in parallel. NeighborChunk is
// set above the 2D interaction-list maximum (27) so every cell's local
// expansion is accumulated by a single thread in deterministic order —
// the one source of schedule-dependent floating-point in the benchmark.
func fmmChecksum(t *pthread.T) float64 {
	s := fmm.NewSystem(t, fmm.Config{N: 1200, Levels: 3, Terms: 6, NeighborChunk: 64})
	s.Run(t, true)
	var sum float64
	for i, p := range s.Pot {
		sum += p * float64(i%113+1)
	}
	s.Free(t)
	return sum
}

func volrendChecksum(t *pthread.T) float64 {
	return volrend.RenderChecksum(t, volrend.Config{
		Gen:            volrend.GenConfig{W: 32, Seed: 5},
		ImageSize:      96,
		TilesPerThread: 2,
	}, "fine")
}

func TestMatmulParity(t *testing.T) {
	for _, policy := range []pthread.Policy{pthread.PolicyADF, pthread.PolicyWS} {
		sim, native := runBoth(t, 4, policy, matmulChecksum)
		if sim != native || math.IsNaN(sim) {
			t.Errorf("%s: sim checksum %v, native checksum %v", policy, sim, native)
		}
	}
}

func TestBarnesHutParity(t *testing.T) {
	sim, native := runBoth(t, 4, pthread.PolicyADF, barneshutChecksum)
	if sim != native || math.IsNaN(sim) {
		t.Errorf("sim checksum %v, native checksum %v", sim, native)
	}
}

func TestDtreeParity(t *testing.T) {
	sim, native := runBoth(t, 4, pthread.PolicyADF, dtreeChecksum)
	if sim != native || math.IsNaN(sim) {
		t.Errorf("sim checksum %v, native checksum %v", sim, native)
	}
}

// TestWorkloadMatrixParity closes the workload matrix: with the three
// dedicated tests above, every one of the paper's seven benchmarks has
// a sim-vs-native checksum comparison. The default DePa-labeled ADF
// store and its treap differential oracle are both exercised.
func TestWorkloadMatrixParity(t *testing.T) {
	benches := []struct {
		name string
		fn   func(*pthread.T) float64
	}{
		{"fft", fftChecksum},
		{"spmv", spmvChecksum},
		{"fmm", fmmChecksum},
		{"volrend", volrendChecksum},
	}
	for _, b := range benches {
		b := b
		t.Run(b.name, func(t *testing.T) {
			for _, policy := range []pthread.Policy{pthread.PolicyADF, pthread.PolicyADFTreap} {
				sim, native := runBoth(t, 4, policy, b.fn)
				if sim != native || math.IsNaN(sim) || sim == 0 {
					t.Errorf("%s: sim checksum %v, native checksum %v", policy, sim, native)
				}
			}
		})
	}
}

// TestNativeSpaceEnvelope checks that the native backend's live-byte
// accounting keeps the measured peak within the paper's S1 + c·p·D
// envelope. S1 and D come from a traced sim run of the same program
// (they are properties of the computation, not the schedule); c is the
// constant fitted from the sim run's own audit, with headroom for the
// nondeterministic native schedule.
func TestNativeSpaceEnvelope(t *testing.T) {
	const procs = 4
	rec := trace.NewRecorder(1 << 20)
	simCfg := pthread.Config{
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		DefaultStack: pthread.SmallStackSize,
		Tracer:       rec,
	}
	simStats, err := pthread.Run(simCfg, func(pt *pthread.T) { matmulChecksum(pt) })
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	rep, err := analyze.Analyze(rec, analyze.Options{
		Procs:        procs,
		DefaultStack: pthread.SmallStackSize,
		PeakHeap:     simStats.HeapHWM,
		PeakStack:    simStats.StackHWM,
		Peak:         simStats.TotalHWM,
	})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if rep.SerialSpace <= 0 || rep.Depth <= 0 {
		t.Fatalf("degenerate audit: S1=%d D=%d", rep.SerialSpace, rep.Depth)
	}

	// c fitted from the sim audit, floored at 1 byte per proc-us of
	// depth and given 4x headroom: the native schedule is a different
	// (legal) ADF execution, not the sim's.
	c := math.Max(rep.C, 1) * 4
	bound := rep.SerialSpace + int64(c*float64(procs)*rep.Depth.Microseconds())

	natCfg := pthread.Config{
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		Backend:      pthread.BackendNative,
		DefaultStack: pthread.SmallStackSize,
	}
	natStats, err := pthread.Run(natCfg, func(pt *pthread.T) { matmulChecksum(pt) })
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	// The native accounting is exact, so the measured peak is the true
	// peak and must sit inside the envelope with no staleness slack.
	if natStats.TotalHWM > bound {
		t.Errorf("native peak %d exceeds S1 + c·p·D = %d + %.0f·%d·%.0fus = %d",
			natStats.TotalHWM, rep.SerialSpace, c, procs, rep.Depth.Microseconds(), bound)
	}
	if natStats.TotalHWM <= 0 {
		t.Errorf("native peak not recorded: %d", natStats.TotalHWM)
	}
}
