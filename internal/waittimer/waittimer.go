// Package waittimer provides the pooled, deadline-checked timer behind the
// bounded blocking waits (eventq.Queue.Poll, core.State.CTWait), so a wait
// that has to arm a timer does not allocate one.
//
// A wait checks its condition first and arms a timer only when it must
// block (docs/PERF.md §6, "Blocking waits"). The timer comes from a
// sync.Pool and goes back to it on Release, after Stop and a non-blocking
// drain of its channel.
//
// The drain is not enough on its own. Under the timer semantics of a main
// module that declares go 1.22 or older (GODEBUG asynctimerchan=1), Stop
// can return false before the runtime has sent the fire. The drain then
// finds the channel empty, the send lands later, and the next user of the
// pooled timer sees a stale fire. So a fire is only a hint: Expired
// compares the clock with the wait's own deadline and, when time remains,
// re-arms the timer for the rest. A pooled timer therefore never ends a
// wait early, under either setting of asynctimerchan.
//
//lint:resource waittimer.Start -> Timer.Release
package waittimer

import (
	"sync"
	"time"
)

// Timer is one armed wait. C receives when the timer fires; the receiver
// then asks Expired whether the wait is really over.
type Timer struct {
	C        <-chan time.Time
	t        *time.Timer
	deadline time.Time
}

var pool sync.Pool

// Start takes a timer from the pool and arms it to fire d from now. The
// caller must Release it once the wait is over.
func Start(d time.Duration) *Timer {
	// The deadline is read before the timer is armed, so by the time the
	// real fire arrives the clock is past it.
	deadline := time.Now().Add(d)
	w, _ := pool.Get().(*Timer)
	if w == nil {
		t := time.NewTimer(d)
		w = &Timer{C: t.C, t: t}
	} else {
		w.t.Reset(d)
	}
	w.deadline = deadline
	return w
}

// Expired reports whether the wait's deadline has passed. Call it after
// each receive from C. If time remains, the receive was a stale fire left
// by an earlier user of the timer; Expired re-arms the timer for the rest
// of the wait and returns false.
func (w *Timer) Expired() bool {
	left := time.Until(w.deadline)
	if left <= 0 {
		return true
	}
	w.t.Reset(left)
	return false
}

// Release stops the timer, drains a fire that is already in its channel,
// and returns it to the pool.
func (w *Timer) Release() {
	if !w.t.Stop() {
		select {
		case <-w.C:
		default:
		}
	}
	pool.Put(w)
}
