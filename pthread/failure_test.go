package pthread_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"spthreads/pthread"
)

// TestPanicPropagates: a panic in thread code surfaces as a run error
// naming the thread, rather than crashing the host program.
func TestPanicPropagates(t *testing.T) {
	_, err := pthread.Run(pthread.Config{Procs: 2, Policy: pthread.PolicyADF}, func(tt *pthread.T) {
		h := tt.CreateAttr(pthread.Attr{Name: "boomer"}, func(ct *pthread.T) {
			panic("boom")
		})
		tt.MustJoin(h)
	})
	if err == nil {
		t.Fatal("expected an error from the panicking thread")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "boomer") {
		t.Errorf("error does not identify the panic: %v", err)
	}
}

// TestNoGoroutineLeaks: runs that end in deadlock, panic, or success
// must unwind every goroutine they started — on the native backend
// that is every worker and every pooled loop, idle or carrying a
// parked thread.
func TestNoGoroutineLeaks(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	for _, backend := range pthread.Backends() {
		cfg := pthread.Config{Procs: 2, Policy: pthread.PolicyADF, Backend: backend}
		for i := 0; i < 20; i++ {
			// A run that deadlocks with several parked threads.
			var a, b pthread.Mutex
			bar := pthread.NewBarrier(2)
			_, err := pthread.Run(cfg, func(tt *pthread.T) {
				h1 := tt.Create(func(ct *pthread.T) {
					a.Lock(ct)
					bar.Wait(ct)
					b.Lock(ct)
				})
				h2 := tt.Create(func(ct *pthread.T) {
					b.Lock(ct)
					bar.Wait(ct)
					a.Lock(ct)
				})
				tt.JoinAll(h1, h2)
			})
			if err == nil {
				t.Fatalf("%s: expected deadlock", backend)
			}
			// And a run that panics with live siblings.
			_, err = pthread.Run(cfg, func(tt *pthread.T) {
				tt.Create(func(ct *pthread.T) { ct.Charge(1 << 30) })
				h := tt.Create(func(ct *pthread.T) { panic("x") })
				tt.MustJoin(h)
			})
			if err == nil {
				t.Fatalf("%s: expected panic error", backend)
			}
		}
		// A clean fine-grained run: 10k threads forked, then joined.
		clean := cfg
		clean.DefaultStack = pthread.SmallStackSize
		if _, err := pthread.Run(clean, func(tt *pthread.T) {
			hs := make([]*pthread.Thread, 10_000)
			for i := range hs {
				hs[i] = tt.Create(func(*pthread.T) {})
			}
			tt.JoinAll(hs...)
		}); err != nil {
			t.Fatalf("%s: clean run: %v", backend, err)
		}
	}

	// Give exiting goroutines a moment, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d -> %d", base, runtime.NumGoroutine())
}

// TestStepLimit: runaway computations hit MaxSteps instead of hanging.
func TestStepLimit(t *testing.T) {
	_, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyADF, MaxSteps: 100}, func(tt *pthread.T) {
		for {
			tt.Yield()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("expected step-limit error, got %v", err)
	}
}

// TestUnknownPolicy surfaces configuration errors.
func TestUnknownPolicy(t *testing.T) {
	_, err := pthread.Run(pthread.Config{Policy: "warp-drive"}, func(*pthread.T) {})
	if err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// TestZeroValueConfig works with all defaults.
func TestZeroValueConfig(t *testing.T) {
	st, err := pthread.Run(pthread.Config{}, func(tt *pthread.T) { tt.Charge(100) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy != "adf" || st.NumProcs != 1 {
		t.Errorf("defaults: policy=%s procs=%d, want adf/1", st.Policy, st.NumProcs)
	}
}
