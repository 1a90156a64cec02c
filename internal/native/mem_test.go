package native

// Unit tests for the footprint accounting: atomicMax's CAS loop under
// contention, and exact high-water marks across pooled-record reuse.

import (
	"sync"
	"sync/atomic"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/exec"
)

// TestAtomicMaxContention hammers one cell from many goroutines with
// interleaved values; a lost CAS retry would leave the cell below the
// global maximum.
func TestAtomicMaxContention(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10_000
	)
	var g atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		w := w
		go func() {
			defer wg.Done()
			// Strided values so every goroutine owns a share of the
			// running maximum and the CAS loop keeps losing races.
			for i := 0; i < perG; i++ {
				atomicMax(&g, int64(i*goroutines+w))
			}
		}()
	}
	wg.Wait()
	want := int64((perG-1)*goroutines + goroutines - 1)
	if got := g.Load(); got != want {
		t.Errorf("atomicMax lost an update under contention: %d, want %d", got, want)
	}
	// Lowering attempts must not move it.
	atomicMax(&g, want-1)
	if got := g.Load(); got != want {
		t.Errorf("atomicMax went backwards: %d, want %d", got, want)
	}
}

// TestHWMAcrossPooledReuse runs a churn of alloc/free threads through
// the record arenas and checks the reported high-water marks are the
// exact serial footprint and the live accounting returns to zero — the
// marks survive record recycling instead of resetting with the records.
func TestHWMAcrossPooledReuse(t *testing.T) {
	const (
		procs  = 4
		rounds = 2000
		block  = 1 << 17
	)
	b := newTestBackend(t, procs)
	st, err := b.Execute(func(root exec.Thread) {
		for i := 0; i < rounds; i++ {
			child := b.Fork(root, core.Attr{StackSize: core.SmallStackSize}, func(et exec.Thread) {
				a := b.Malloc(et, block)
				b.Free(et, a)
			})
			if err := b.Join(root, child); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if b.pool.reused.Load() == 0 {
		t.Fatalf("no thread records served from the arenas: test premise broken")
	}
	// Children run one at a time, so the heap peak is exactly one block,
	// and every allocation saw at least the root's and its own stack
	// live (dummy throttling threads may add theirs).
	if st.HeapHWM != block {
		t.Errorf("HeapHWM %d, want exactly %d", st.HeapHWM, block)
	}
	if floor := int64(block + 2*core.SmallStackSize); st.TotalHWM < floor {
		t.Errorf("TotalHWM %d below serial floor %d", st.TotalHWM, floor)
	}
	if live := b.mem.liveHeap.Load(); live != 0 {
		t.Errorf("live heap %d after all frees, want 0", live)
	}
	// All stacks released: only the root's stack could linger, and it
	// was freed at exit too.
	if live := b.mem.liveStack.Load(); live != 0 {
		t.Errorf("live stack %d after all exits, want 0", live)
	}
}
