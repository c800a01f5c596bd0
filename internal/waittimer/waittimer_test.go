package waittimer

import (
	"runtime"
	"testing"
	"time"
)

// TestStaleFireDoesNotExpire leaves a fire in a pooled timer's channel, as
// a Stop that lost the race with the runtime's send does under go 1.22
// timer semantics, and checks that the next wait on that timer still
// lasts its full duration.
func TestStaleFireDoesNotExpire(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands the timer straight back
	stale := Start(time.Microsecond)
	time.Sleep(time.Millisecond)
	pool.Put(stale) // skip Release's drain

	const d = 20 * time.Millisecond
	start := time.Now()
	w := Start(d)
	defer w.Release()
	fires := 0
	for {
		<-w.C
		fires++
		if w.Expired() {
			break
		}
	}
	if waited := time.Since(start); waited < d {
		t.Fatalf("wait ended after %v (%d fires), want at least %v", waited, fires, d)
	}
}
