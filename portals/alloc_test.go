package portals

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/raceflag"
)

// TestLoopbackRoundTripAllocs is the end-to-end zero-allocation claim
// (docs/PERF.md §6, "Blocking waits"): on Loopback() with several delivery
// lanes, a put with its ack and a get with its reply, each awaited with
// EQPoll, allocate nothing in steady state — not in the API call, the
// lane dispatch, the match, the event post, nor the blocking wait.
func TestLoopbackRoundTripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	m := NewMachine(Loopback().WithLanes(4))
	defer m.Close()
	a, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	target := make([]byte, 8)
	me, err := b.MEAttach(0, AnyProcess, 1, 0, Retain, After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.MDAttach(me, MD{Start: target, Threshold: ThresholdInfinite,
		Options: MDOpPut | MDOpGet | MDManageRemote, EQ: InvalidHandle, CT: InvalidHandle}, Retain); err != nil {
		t.Fatal(err)
	}
	eq, err := a.EQAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := []byte("8 bytes!"), make([]byte, 8)
	mdPut, err := a.MDBind(MD{Start: src, Threshold: ThresholdInfinite, EQ: eq, CT: InvalidHandle}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	mdGet, err := a.MDBind(MD{Start: dst, Threshold: ThresholdInfinite, EQ: eq, CT: InvalidHandle}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	await := func(want EventType) {
		for {
			ev, err := a.EQPoll(eq, 200*time.Microsecond)
			if errors.Is(err, ErrEQEmpty) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if ev.Type == want {
				return
			}
		}
	}
	roundTrips := func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Put(mdPut, AckReq, b.ID(), 0, 0, 1, 0); err != nil {
				t.Fatal(err)
			}
			await(EventAck)
			if err := a.Get(mdGet, b.ID(), 0, 0, 1, 0); err != nil {
				t.Fatal(err)
			}
			await(EventReply)
		}
	}

	roundTrips(1000) // warm the buffer and timer pools
	const n = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	roundTrips(n)
	runtime.ReadMemStats(&m1)
	if string(dst) != string(src) {
		t.Fatalf("get returned %q, want %q", dst, src)
	}
	// Each iteration is one put round trip and one get round trip.
	if per := float64(m1.Mallocs-m0.Mallocs) / (2 * n); per > 0.05 {
		t.Errorf("%.3f allocs per round trip, want at most 0.05", per)
	}
}
