package pthread_test

// Native-backend behavior of the full synchronization surface. These
// run real goroutine concurrency, so the assertions are
// schedule-independent invariants (counts, mutual exclusion, phase
// ordering), not exact interleavings; run them under -race.

import (
	"strings"
	"testing"

	"spthreads/internal/vtime"
	"spthreads/pthread"
)

func nativeCfg(procs int) pthread.Config {
	return pthread.Config{
		Procs:        procs,
		Policy:       pthread.PolicyADF,
		Backend:      pthread.BackendNative,
		DefaultStack: pthread.SmallStackSize,
	}
}

func runNative(t *testing.T, procs int, main func(*pthread.T)) pthread.Stats {
	t.Helper()
	stats, err := pthread.Run(nativeCfg(procs), main)
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	return stats
}

func TestNativeMutexCounter(t *testing.T) {
	const workers, incs = 8, 200
	var mu pthread.Mutex
	count := 0
	runNative(t, 4, func(mt *pthread.T) {
		var fns []func(*pthread.T)
		for w := 0; w < workers; w++ {
			fns = append(fns, func(wt *pthread.T) {
				for i := 0; i < incs; i++ {
					mu.Lock(wt)
					count++
					mu.Unlock(wt)
				}
			})
		}
		mt.Par(fns...)
	})
	if count != workers*incs {
		t.Errorf("count = %d, want %d", count, workers*incs)
	}
}

func TestNativeCondProducerConsumer(t *testing.T) {
	const items = 100
	var mu pthread.Mutex
	var notEmpty, notFull pthread.Cond
	var queue []int
	var got []int
	runNative(t, 4, func(mt *pthread.T) {
		prod := mt.Create(func(pt *pthread.T) {
			for i := 0; i < items; i++ {
				mu.Lock(pt)
				for len(queue) >= 4 {
					notFull.Wait(pt, &mu)
				}
				queue = append(queue, i)
				notEmpty.Signal(pt)
				mu.Unlock(pt)
			}
		})
		cons := mt.Create(func(ct *pthread.T) {
			for len(got) < items {
				mu.Lock(ct)
				for len(queue) == 0 {
					notEmpty.Wait(ct, &mu)
				}
				got = append(got, queue[0])
				queue = queue[1:]
				notFull.Signal(ct)
				mu.Unlock(ct)
			}
		})
		mt.MustJoin(prod)
		mt.MustJoin(cons)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d; FIFO order broken", i, v)
		}
	}
	if len(got) != items {
		t.Fatalf("consumed %d items, want %d", len(got), items)
	}
}

func TestNativeCondWaitTimeout(t *testing.T) {
	var mu pthread.Mutex
	var cv pthread.Cond
	var timedOut, signaled bool
	runNative(t, 2, func(mt *pthread.T) {
		// Nobody signals: the wait must time out.
		mu.Lock(mt)
		timedOut = cv.WaitTimeout(mt, &mu, vtime.Micro(200))
		mu.Unlock(mt)

		// A prompt signal must win the race against a long timeout.
		woke := false
		waiter := mt.Create(func(wt *pthread.T) {
			mu.Lock(wt)
			signaled = !cv.WaitTimeout(wt, &mu, vtime.Micro(1e6))
			woke = true
			mu.Unlock(wt)
		})
		for {
			mu.Lock(mt)
			if woke {
				mu.Unlock(mt)
				break
			}
			cv.Signal(mt)
			mu.Unlock(mt)
			mt.Yield()
		}
		mt.MustJoin(waiter)
	})
	if !timedOut {
		t.Error("unsignaled WaitTimeout did not report a timeout")
	}
	if !signaled {
		t.Error("signaled WaitTimeout reported a timeout")
	}
}

func TestNativeSemaphoreBounds(t *testing.T) {
	const workers = 8
	sem := pthread.NewSemaphore(3)
	var mu pthread.Mutex
	inside, maxInside := 0, 0
	runNative(t, 4, func(mt *pthread.T) {
		var fns []func(*pthread.T)
		for w := 0; w < workers; w++ {
			fns = append(fns, func(wt *pthread.T) {
				for i := 0; i < 20; i++ {
					sem.Wait(wt)
					mu.Lock(wt)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					inside--
					mu.Unlock(wt)
					sem.Post(wt)
				}
			})
		}
		mt.Par(fns...)
	})
	if maxInside > 3 {
		t.Errorf("semaphore admitted %d concurrent holders, cap 3", maxInside)
	}
	if sem.Value() != 3 {
		t.Errorf("final semaphore value %d, want 3", sem.Value())
	}
}

func TestNativeBarrierPhases(t *testing.T) {
	const parties, phases = 4, 5
	bar := pthread.NewBarrier(parties)
	var mu pthread.Mutex
	arrived := make([]int, phases)
	serialCount := 0
	runNative(t, 4, func(mt *pthread.T) {
		var fns []func(*pthread.T)
		for w := 0; w < parties; w++ {
			fns = append(fns, func(wt *pthread.T) {
				for ph := 0; ph < phases; ph++ {
					mu.Lock(wt)
					// Everyone must be in the same phase when arriving.
					arrived[ph]++
					mu.Unlock(wt)
					if bar.Wait(wt) {
						mu.Lock(wt)
						serialCount++
						mu.Unlock(wt)
					}
				}
			})
		}
		mt.Par(fns...)
	})
	for ph, n := range arrived {
		if n != parties {
			t.Errorf("phase %d: %d arrivals, want %d", ph, n, parties)
		}
	}
	if serialCount != phases {
		t.Errorf("%d serial-thread returns, want %d (one per phase)", serialCount, phases)
	}
}

func TestNativeOnce(t *testing.T) {
	var once pthread.Once
	runs := 0
	runNative(t, 4, func(mt *pthread.T) {
		var fns []func(*pthread.T)
		for w := 0; w < 8; w++ {
			fns = append(fns, func(wt *pthread.T) {
				once.Do(wt, func() { runs++ })
				if runs != 1 {
					t.Errorf("observed runs = %d after Do returned", runs)
				}
			})
		}
		mt.Par(fns...)
	})
	if runs != 1 {
		t.Errorf("once ran %d times", runs)
	}
}

func TestNativeRWMutex(t *testing.T) {
	var rw pthread.RWMutex
	var mu pthread.Mutex
	shared, readersSeen, writes := 0, 0, 0
	runNative(t, 4, func(mt *pthread.T) {
		var fns []func(*pthread.T)
		for w := 0; w < 3; w++ {
			fns = append(fns, func(wt *pthread.T) {
				for i := 0; i < 20; i++ {
					rw.Lock(wt)
					shared++
					writes++
					rw.Unlock(wt)
				}
			})
		}
		for r := 0; r < 5; r++ {
			fns = append(fns, func(rt *pthread.T) {
				for i := 0; i < 20; i++ {
					rw.RLock(rt)
					v := shared
					if v < 0 {
						t.Errorf("negative shared value %d", v)
					}
					rw.RUnlock(rt)
					mu.Lock(rt)
					readersSeen++
					mu.Unlock(rt)
				}
			})
		}
		mt.Par(fns...)
	})
	if shared != 60 || writes != 60 {
		t.Errorf("shared = %d writes = %d, want 60 each", shared, writes)
	}
	if readersSeen != 100 {
		t.Errorf("readersSeen = %d, want 100", readersSeen)
	}
}

func TestNativeSpinLock(t *testing.T) {
	var sl pthread.SpinLock
	count := 0
	runNative(t, 2, func(mt *pthread.T) {
		var fns []func(*pthread.T)
		for w := 0; w < 4; w++ {
			fns = append(fns, func(wt *pthread.T) {
				for i := 0; i < 50; i++ {
					sl.Acquire(wt)
					count++
					sl.Release(wt)
				}
			})
		}
		mt.Par(fns...)
	})
	if count != 200 {
		t.Errorf("count = %d, want 200", count)
	}
}

func TestNativeTLSAndJoin(t *testing.T) {
	key := pthread.NewKey()
	runNative(t, 4, func(mt *pthread.T) {
		mt.SetSpecific(key, "root")
		var hs []*pthread.Thread
		for w := 0; w < 6; w++ {
			w := w
			hs = append(hs, mt.Create(func(wt *pthread.T) {
				if wt.Specific(key) != nil {
					t.Error("TLS leaked across threads")
				}
				wt.SetSpecific(key, w)
				wt.Yield()
				if got := wt.Specific(key); got != w {
					t.Errorf("TLS = %v after yield, want %d", got, w)
				}
			}))
		}
		mt.JoinAll(hs...)
		if mt.Specific(key) != "root" {
			t.Error("root TLS clobbered")
		}
		// POSIX join error cases.
		if err := mt.Join(mt.Self()); err == nil {
			t.Error("self-join succeeded")
		}
		if err := mt.Join(hs[0]); err == nil {
			t.Error("double join succeeded")
		}
	})
}

func TestNativeExitAndDetached(t *testing.T) {
	var mu pthread.Mutex
	reached, after := 0, 0
	st := runNative(t, 2, func(mt *pthread.T) {
		done := pthread.NewSemaphore(0)
		for w := 0; w < 4; w++ {
			mt.CreateAttr(pthread.Attr{Detached: true, StackSize: pthread.SmallStackSize}, func(wt *pthread.T) {
				mu.Lock(wt)
				reached++
				mu.Unlock(wt)
				done.Post(wt)
				wt.Exit()
				mu.Lock(wt)
				after++ // unreachable
				mu.Unlock(wt)
			})
		}
		for w := 0; w < 4; w++ {
			done.Wait(mt)
		}
	})
	if reached != 4 || after != 0 {
		t.Errorf("reached = %d after = %d, want 4 and 0", reached, after)
	}
	if st.ThreadsCreated != 5 {
		t.Errorf("ThreadsCreated = %d, want 5", st.ThreadsCreated)
	}
}

func TestNativeSleepAndNow(t *testing.T) {
	runNative(t, 2, func(mt *pthread.T) {
		before := mt.Now()
		mt.Sleep(vtime.Micro(100))
		if waited := mt.Now() - before; vtime.Duration(waited) < vtime.Micro(100) {
			t.Errorf("slept %v of virtual time, want >= 100us", waited)
		}
	})
}

func TestNativeDeadlockDetected(t *testing.T) {
	var mu pthread.Mutex
	_, err := pthread.Run(nativeCfg(2), func(mt *pthread.T) {
		h := mt.Create(func(wt *pthread.T) {
			mu.Lock(wt)
			// Never unlocked: the parent blocks forever.
		})
		mt.MustJoin(h)
		mu.Lock(mt) // blocks forever: the holder already exited
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock report", err)
	}
}

func TestNativeThreadPanicReported(t *testing.T) {
	_, err := pthread.Run(nativeCfg(2), func(mt *pthread.T) {
		h := mt.Create(func(*pthread.T) { panic("boom") })
		mt.MustJoin(h)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want propagated panic", err)
	}
}

func TestNativeStats(t *testing.T) {
	reg := pthread.NewMetrics()
	cfg := nativeCfg(2)
	cfg.Metrics = reg
	st, err := pthread.Run(cfg, func(mt *pthread.T) {
		a := mt.Malloc(4096)
		mt.Charge(10_000)
		var fns []func(*pthread.T)
		for w := 0; w < 4; w++ {
			fns = append(fns, func(wt *pthread.T) {
				b := wt.Malloc(1 << 16)
				wt.Charge(50_000)
				wt.Free(b)
			})
		}
		mt.Par(fns...)
		mt.Free(a)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.ThreadsCreated < 5 {
		t.Errorf("ThreadsCreated = %d, want >= 5", st.ThreadsCreated)
	}
	if st.Work < 210_000 {
		t.Errorf("Work = %v, want >= 210000 cycles", st.Work)
	}
	if st.Span <= 0 || st.Time <= 0 {
		t.Errorf("Span = %v Time = %v, want both positive", st.Span, st.Time)
	}
	if st.HeapHWM < 4096 {
		t.Errorf("HeapHWM = %d, want >= 4096", st.HeapHWM)
	}
	if st.Metrics == nil {
		t.Fatal("Metrics snapshot missing")
	}
	if len(st.Procs) != 2 {
		t.Errorf("got %d proc rows, want 2", len(st.Procs))
	}
}

// TestNativeExactPeak: k threads held alive at once behind a barrier
// must show up in the stack high-water mark exactly — the k children
// plus the root, with no accounting lag hiding part of the peak.
func TestNativeExactPeak(t *testing.T) {
	const k = 16
	bar := pthread.NewBarrier(k)
	st := runNative(t, 4, func(mt *pthread.T) {
		hs := make([]*pthread.Thread, k)
		for i := range hs {
			hs[i] = mt.Create(func(ct *pthread.T) { bar.Wait(ct) })
		}
		mt.JoinAll(hs...)
	})
	if want := int64(k+1) * pthread.SmallStackSize; st.StackHWM != want {
		t.Errorf("StackHWM = %d, want exactly (k+1)·stack = %d", st.StackHWM, want)
	}
	if st.TotalHWM != st.StackHWM {
		t.Errorf("TotalHWM = %d, want %d (no heap allocated)", st.TotalHWM, st.StackHWM)
	}
}

// TestNativeHandleOutlivesRecord: thread records are recycled once
// joined (or, if detached, once exited), but handles stay valid
// references to the thread they were created for — the ID does not
// change and a second join or a join of a detached thread still fails,
// even after later threads have reused the records.
func TestNativeHandleOutlivesRecord(t *testing.T) {
	runNative(t, 2, func(mt *pthread.T) {
		joined := mt.Create(func(*pthread.T) {})
		joinedID := joined.ID()
		mt.MustJoin(joined)
		exited := pthread.NewSemaphore(0)
		detached := mt.CreateAttr(pthread.Attr{Detached: true}, func(ct *pthread.T) { exited.Post(ct) })
		detachedID := detached.ID()
		exited.Wait(mt)
		// Churn the arenas so both records are handed to new threads.
		for i := 0; i < 64; i++ {
			mt.Par(func(*pthread.T) {}, func(*pthread.T) {})
		}
		if joined.ID() != joinedID || detached.ID() != detachedID {
			t.Errorf("handle IDs changed: %d->%d, %d->%d",
				joinedID, joined.ID(), detachedID, detached.ID())
		}
		if err := mt.Join(joined); err == nil || !strings.Contains(err.Error(), "already joined") {
			t.Errorf("second join: %v, want already joined", err)
		}
		if err := mt.Join(detached); err == nil || !strings.Contains(err.Error(), "detached") {
			t.Errorf("join of detached thread: %v, want detached", err)
		}
		// Two threads racing to join one handle: exactly one succeeds.
		release := pthread.NewSemaphore(0)
		target := mt.Create(func(ct *pthread.T) { release.Wait(ct) })
		var mu pthread.Mutex
		var ok, failed int
		racer := func(rt *pthread.T) {
			err := rt.Join(target)
			mu.Lock(rt)
			if err == nil {
				ok++
			} else {
				failed++
			}
			mu.Unlock(rt)
		}
		r1, r2 := mt.Create(racer), mt.Create(racer)
		release.Post(mt)
		mt.JoinAll(r1, r2)
		if ok != 1 || failed != 1 {
			t.Errorf("racing joins: %d succeeded, %d failed; want 1 and 1", ok, failed)
		}
	})
}
