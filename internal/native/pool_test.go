package native

// White-box tests for the thread lifecycle: pooled loops, per-worker
// thread-record arenas, and pool-reuse hygiene. These run
// in-package so they can inspect recycled records and pool counters
// directly; the semantic (black-box) oracle is parity_test.go.

import (
	"sync"
	"sync/atomic"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/sched"
)

// newTestBackend builds a native backend directly on an ADF policy.
func newTestBackend(t *testing.T, procs int) *Backend {
	t.Helper()
	pol, err := sched.New(sched.ADF, sched.Options{Procs: procs})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	b, err := New(Config{
		Procs:        procs,
		Policy:       pol,
		DefaultStack: core.SmallStackSize,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

// TestChurnHygiene is the pool-reuse hygiene oracle: 10^5 threads
// forked and exited over 4 workers through the record arenas, with
// every recycled record inspected at entry for leaked prior state (TLS
// slots, join state, accounting, shard-heap slot) and every trace id
// checked unique. Run under -race this also exercises the Treiber
// free-list publication ordering.
func TestChurnHygiene(t *testing.T) {
	const (
		procs    = 4
		churners = 8
		total    = 100_000
	)
	per := total / churners
	b := newTestBackend(t, procs)

	type tlsKeyT struct{}
	var tlsKey tlsKeyT
	var ran, dirty atomic.Int64
	var ids sync.Map // id -> struct{}, duplicate detection
	var dupID atomic.Int64

	body := func(et exec.Thread) {
		tt := et.(*thread)
		// Entry-state fields written only by this thread's own lifetime
		// (or by fork before the launch handoff): any nonzero value here
		// leaked through a recycle. joiner/joined are deliberately NOT
		// checked — they are b.mu-guarded and a racing parent Join may
		// legitimately set them while the body runs.
		if tt.tls != nil || tt.done || tt.exitedSpan != 0 || tt.work != 0 ||
			tt.heapIdx != 0 || tt.heapPri != 0 || tt.isDummy {
			dirty.Add(1)
		}
		if tt.l == nil || tt.l.t != tt {
			dirty.Add(1)
		}
		if et.TLSGet(tlsKey) != nil {
			dirty.Add(1)
		}
		if _, loaded := ids.LoadOrStore(et.ID(), struct{}{}); loaded {
			dupID.Add(1)
		}
		et.TLSSet(tlsKey, et.ID())
		ran.Add(1)
	}

	_, err := b.Execute(func(root exec.Thread) {
		hs := make([]exec.Thread, 0, churners)
		for c := 0; c < churners; c++ {
			hs = append(hs, b.Fork(root, core.Attr{StackSize: core.SmallStackSize}, func(ct exec.Thread) {
				for i := 0; i < per; i++ {
					detached := i%2 == 0
					child := b.Fork(ct, core.Attr{StackSize: core.SmallStackSize, Detached: detached}, body)
					if !detached {
						if err := b.Join(ct, child); err != nil {
							panic(err)
						}
					}
				}
			}))
		}
		for _, h := range hs {
			if err := b.Join(root, h); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if n := ran.Load(); n != total {
		t.Errorf("ran %d children, want %d", n, total)
	}
	if n := dirty.Load(); n != 0 {
		t.Errorf("%d recycled records leaked prior state into a fresh thread", n)
	}
	if n := dupID.Load(); n != 0 {
		t.Errorf("%d duplicate thread ids (record double-recycled?)", n)
	}
	// The pool must actually pool: nearly every record recycles (the
	// joinable churners and children release both references before the
	// run ends; only the never-joined root leaks by design), and the
	// loop fleet stays near the concurrency level, orders of magnitude
	// below the thread count.
	if rec := b.pool.recycled.Load(); rec < total {
		t.Errorf("recycled %d records, want >= %d", rec, total)
	}
	if re := b.pool.reused.Load(); re == 0 {
		t.Errorf("no thread records served from the arenas")
	}
	if lc := b.pool.loopsCreated.Load(); lc > total/10 {
		t.Errorf("created %d loop goroutines for %d threads; pooling is not amortizing launches", lc, total)
	}
}
