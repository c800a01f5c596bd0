package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/raceflag"
	"repro/internal/types"
)

// TestCTPollNeverEndsEarly is eventq's TestPollNeverEndsEarly for counting
// events: thousands of short bounded CTWaits (the CTPoll form), each
// racing a CTInc that lands within 5µs either side of the wait's deadline.
// A stale fire left in a pooled timer must never surface as an early
// ErrTimeout.
func TestCTPollNeverEndsEarly(t *testing.T) {
	iters := 12000
	if testing.Short() {
		iters = 3000
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s := newState(t, aliceID)
			ct, err := s.CTAlloc()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(procs)))
			var wg sync.WaitGroup
			for i := 0; i < iters; i++ {
				d := time.Duration(20+rng.Intn(31)) * time.Microsecond
				lag := d - 5*time.Microsecond + time.Duration(rng.Int63n(int64(10*time.Microsecond)))
				start := time.Now()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Since(start) < lag {
						runtime.Gosched()
					}
					if err := s.CTInc(ct, types.CTValue{Success: 1}); err != nil {
						t.Error(err)
					}
				}()
				_, err := s.CTWait(ct, uint64(i+1), d)
				waited := time.Since(start)
				if errors.Is(err, types.ErrTimeout) && waited < d {
					t.Fatalf("wait %d: ErrTimeout after %v, want at least %v", i, waited, d)
				} else if err != nil && !errors.Is(err, types.ErrTimeout) {
					t.Fatalf("wait %d: %v", i, err)
				}
				wg.Wait()
			}
		})
	}
}

// TestCTPollAllocs pins the bounded counter wait at zero allocations: a
// wait whose threshold is already reached arms no timer, and one that
// blocks until a CTInc wakes it reuses a pooled timer.
func TestCTPollAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	s := newState(t, aliceID)
	ct, err := s.CTAlloc()
	if err != nil {
		t.Fatal(err)
	}
	one := types.CTValue{Success: 1}
	var want uint64
	if n := testing.AllocsPerRun(1000, func() {
		want++
		if err := s.CTInc(ct, one); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CTWait(ct, want, time.Second); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CTPoll on a reached threshold: %v allocs, want 0", n)
	}

	kick, exited := make(chan struct{}), make(chan struct{})
	defer func() { close(kick); <-exited }()
	go func() {
		defer close(exited)
		for range kick {
			time.Sleep(20 * time.Microsecond) // let the waiter block first
			if err := s.CTInc(ct, one); err != nil {
				t.Error(err)
			}
		}
	}()
	if n := testing.AllocsPerRun(200, func() {
		want++
		kick <- struct{}{}
		if _, err := s.CTWait(ct, want, time.Second); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CTPoll woken by a CTInc: %v allocs, want 0", n)
	}
}
