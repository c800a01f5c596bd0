package eventq

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

// TestPollNeverEndsEarly races thousands of short Polls against a Post
// landing within 5µs either side of the wait's deadline, so the Post's
// wakeup and the timer's fire often coincide. Poll's timers are pooled,
// and under go 1.22 timer semantics a Stop can then miss a fire that is
// still on its way into the channel; the next Poll to take that timer sees
// a stale fire. Whatever the interleaving, a Poll that reports ErrEQEmpty
// must have waited its full d.
func TestPollNeverEndsEarly(t *testing.T) {
	iters := 12000
	if testing.Short() {
		iters = 3000
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			q := New(4)
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
					q.Post(ev(uint64(i)))
				}()
				_, err := q.Poll(d)
				waited := time.Since(start)
				if errors.Is(err, types.ErrEQEmpty) && waited < d {
					t.Fatalf("poll %d: ErrEQEmpty after %v, want at least %v", i, waited, d)
				} else if err != nil && !errors.Is(err, types.ErrEQEmpty) {
					t.Fatalf("poll %d: %v", i, err)
				}
				wg.Wait()
				for q.Pending() > 0 {
					if _, err := q.Get(); err != nil {
						t.Fatalf("drain after poll %d: %v", i, err)
					}
				}
			}
		})
	}
}

// TestPollAllocs pins the blocking wait at zero allocations: a Poll that
// finds an event queued arms no timer, and one that blocks until a Post
// wakes it reuses a pooled timer.
func TestPollAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	q := New(4)
	if n := testing.AllocsPerRun(1000, func() {
		q.Post(ev(1))
		if _, err := q.Poll(time.Second); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Poll with an event queued: %v allocs, want 0", n)
	}

	kick, exited := make(chan struct{}), make(chan struct{})
	defer func() { close(kick); <-exited }()
	go func() {
		defer close(exited)
		for range kick {
			time.Sleep(20 * time.Microsecond) // let the consumer block first
			q.Post(ev(2))
		}
	}()
	if n := testing.AllocsPerRun(200, func() {
		kick <- struct{}{}
		if _, err := q.Poll(time.Second); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Poll woken by a Post: %v allocs, want 0", n)
	}
}

// BenchmarkEQPollWakeup is the cross-goroutine wakeup cost on its own: an
// echo goroutine Polls one queue and Posts each event it gets to a second
// queue, on which the benchmark goroutine Polls. One op is one round trip,
// two blocking Polls woken by a Post. Run with -cpu=1,N to compare wakeups
// on one P with wakeups across Ps.
func BenchmarkEQPollWakeup(b *testing.B) {
	ping, pong := New(4), New(4)
	exited := make(chan struct{})
	defer func() { ping.Close(); <-exited }()
	go func() {
		defer close(exited)
		for {
			e, err := ping.Poll(time.Second)
			if errors.Is(err, types.ErrClosed) {
				return
			}
			if err == nil {
				pong.Post(e)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.Post(ev(uint64(i)))
		if _, err := pong.Poll(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
