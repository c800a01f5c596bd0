package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/transport/loopback"
	"repro/portals"
)

// swarm: 20k endpoints on 16 nodes, built through the public API, each
// with 10 match entries: 8 with exact bits and any initiator, which the
// match index hashes, and 2 with ignore bits, which go to its residual
// list. One driver NI on a node of its own sends 64-byte puts with ack to
// seeded (endpoint, bits) pairs. Phase A is a closed loop with a bounded
// in-flight window, for throughput; phase B is an open loop at the fixed
// rate swRate, for latency, each ack timed from its due time. The working
// set is far larger than the last-level cache, so this exercises the
// match index, the rcu/arena handle tables, lane dispatch and the ack
// path; set-up through NIInit is a real cost users pay.
type swarm struct {
	seed int64
	tr   *tracer
	m    *portals.Machine
	eps  []*portals.NI
	drv  *ackDriver
	md   portals.Handle
	all  []*portals.NI

	stream []swTarget // seeded (endpoint, bits) pairs, used round-robin
	next   int
}

type swTarget struct {
	ep   uint32
	bits portals.MatchBits
}

const (
	swEndpoints = 20000
	swNodes     = 16
	swExact     = 8 // exact-bits match entries per endpoint
	swPayload   = 64
	swWindowA   = 1024 // phase-A in-flight bound
	swWindowB   = 4096 // phase-B in-flight bound; a stall past it counts as latency
	// swRate is phase B's offered load: about a fifth of phase-A capacity
	// on a 2-CPU x86-64 host, because the spin-paced generator holds one
	// CPU; at half of capacity, one run in three overloaded.
	swRate    = 60000
	swWarmup  = 50000
	swStream  = 1 << 20
	swEQSlots = 1 << 15 // two events (send, ack) per put in flight
	swDueRing = 1 << 16
)

// swResidual are the match bits of the two ignore-bits entries per
// endpoint; with ignore bits 0xFF they match 0x1xx and 0x2xx.
var swResidual = [2]portals.MatchBits{0x100, 0x200}

func newSwarm(seed int64) bench { return &swarm{seed: seed} }

func (s *swarm) setupReps() int { return 3 }

func (s *swarm) nis() []*portals.NI { return s.all }

// machines is empty: the loopback fabric has no rtscts or udp layer, and
// rendering 20k interfaces' metrics would take longer than the window.
func (s *swarm) machines() []*portals.Machine { return nil }

func (s *swarm) close() {
	if s.m != nil {
		_ = s.m.Close() // teardown; the run's results are already taken
	}
}

func (s *swarm) setup(tr *tracer) error {
	s.tr = tr
	fab := portals.Loopback()
	if tr != nil {
		fab = portals.CustomFabric("loopback", wrapNetwork(loopback.New(), tr))
	}
	s.m = portals.NewMachine(fab)
	lim := portals.Limits{MaxMEs: 10, MaxMDs: 10, MaxEQs: 1, MaxCTs: 1, MaxACEntries: 2, MaxPtlIndex: 1}
	none := portals.InvalidHandle
	s.eps = make([]*portals.NI, swEndpoints)
	for i := range s.eps {
		ni, err := s.m.NIInit(portals.NID(1+i%swNodes), portals.PID(1+i/swNodes), lim)
		if err != nil {
			return fmt.Errorf("endpoint %d: %w", i, err)
		}
		s.eps[i] = ni
		// The descriptors of one endpoint share its receive buffer: every
		// delivery into it happens under the endpoint's portal lock.
		buf := make([]byte, swPayload)
		for j := 0; j < swExact+2; j++ {
			bits, ignore := portals.MatchBits(j), portals.MatchBits(0)
			if j >= swExact {
				bits, ignore = swResidual[j-swExact], 0xFF
			}
			me, err := ni.MEAttach(0, portals.AnyProcess, bits, ignore, portals.Retain, portals.After)
			if err != nil {
				return fmt.Errorf("endpoint %d entry %d: %w", i, j, err)
			}
			if _, err := ni.MDAttach(me, portals.MD{Start: buf, Threshold: portals.ThresholdInfinite,
				Options: portals.MDOpPut | portals.MDManageRemote | portals.MDTruncate, EQ: none, CT: none}, portals.Retain); err != nil {
				return fmt.Errorf("endpoint %d descriptor %d: %w", i, j, err)
			}
		}
	}
	drv, err := s.m.NIInit(swNodes+1, 1, portals.Limits{})
	if err != nil {
		return err
	}
	eq, err := drv.EQAlloc(swEQSlots)
	if err != nil {
		return err
	}
	if s.md, err = drv.MDBind(portals.MD{Start: make([]byte, swPayload), Threshold: portals.ThresholdInfinite,
		EQ: eq, CT: none}, portals.Retain); err != nil {
		return err
	}
	s.drv = newAckDriver(tr, drv, eq, swDueRing)
	s.all = append(append([]*portals.NI(nil), s.eps...), drv)
	s.stream = swarmStream(s.seed, swStream)
	return nil
}

// swarmStream draws n (endpoint, bits) pairs: a uniform endpoint, and one
// of its ten entries, uniformly; a residual entry gets random low bits.
func swarmStream(seed int64, n int) []swTarget {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]swTarget, n)
	for i := range out {
		t := swTarget{ep: uint32(rnd.Intn(swEndpoints))}
		if k := rnd.Intn(swExact + 2); k < swExact {
			t.bits = portals.MatchBits(k)
		} else {
			t.bits = swResidual[k-swExact] + portals.MatchBits(rnd.Intn(256))
		}
		out[i] = t
	}
	return out
}

// put sends the next stream entry, due at the given time.
func (s *swarm) put(due int64) error {
	t := s.stream[s.next]
	s.next = (s.next + 1) % len(s.stream)
	return s.drv.put(s.md, s.eps[t.ep].ID(), t.bits, due)
}

// closedLoop keeps up to window puts in flight until n have been sent
// or, with n == 0, until the deadline, and returns the refused puts.
func (s *swarm) closedLoop(n int64, until int64, window int64) (failed int64, err error) {
	for start := s.drv.sent; ; {
		if n > 0 && s.drv.sent-start >= n || n == 0 && nanos() >= until {
			return failed, nil
		}
		for s.drv.inflight() < window && (n == 0 || s.drv.sent-start < n) {
			if err := s.put(nanos()); err != nil {
				failed++
			}
		}
		if err := s.drv.wait(pollTimeout); err != nil {
			return failed, err
		}
	}
}

func (s *swarm) warm() error {
	if _, err := s.closedLoop(swWarmup, 0, swWindowA); err != nil {
		return err
	}
	return s.drv.settle()
}

func (s *swarm) measure(w *window, d time.Duration) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	lat := make([]int64, 0, int(swRate*d.Seconds())+swWindowB)
	late := make([]int64, 0, cap(lat))
	half := int64(d / 2)

	// Phase A: closed loop, throughput.
	w.open()
	t0 := nanos()
	acked0 := s.drv.acked
	mA := newMeter(t0, time.Duration(half))
	s.drv.onAck = func(uint64, int64) { mA.add(nanos(), 1, swPayload) }
	failed, err := s.closedLoop(0, t0+half, swWindowA)
	tA := nanos()
	m.failed += failed
	ackedA := s.drv.acked - acked0
	if err == nil {
		err = s.drv.settle()
	}
	if err != nil {
		return nil, err
	}

	// Phase B: open loop at swRate, latency from each put's due time.
	var mB *meter
	s.drv.onAck = func(_ uint64, l int64) {
		lat = append(lat, l)
		mB.addLat(nanos(), l)
	}
	defer func() { s.drv.onAck = nil }()
	interval := float64(time.Second) / swRate
	tB := nanos()
	mB = newMeter(tB, time.Duration(half))
	var i int64
	for {
		now := nanos()
		if now >= tB+half {
			break
		}
		sent := false
		for ; s.drv.inflight() < swWindowB; i++ {
			due := tB + int64(float64(i)*interval)
			if due > now {
				break
			}
			sent = true
			late = append(late, now-due)
			if err := s.put(due); err != nil {
				m.failed++
			}
		}
		// The Go runtime rounds an idle timer wait below 1ms up to 1ms,
		// which would pace the generator in 1ms bursts, so a shorter gap
		// is spent polling the event queue. After sending, the generator
		// yields: the goroutines its puts woke wait on its CPU, and
		// without a yield they would wait until another CPU stole them.
		var err error
		if gap := time.Duration(tB + int64(float64(i)*interval) - nanos()); gap > time.Millisecond {
			err = s.drv.wait(gap - time.Millisecond/2)
		} else {
			err = s.drv.drain()
			if sent {
				runtime.Gosched()
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if err := s.drv.settle(); err != nil {
		return nil, err
	}
	w.close()

	m.ops = ackedA + int64(len(lat))
	m.rate, m.goodput = mA.rates()
	m.p50, m.p90, m.p99 = mB.latPct(0.50), mB.latPct(0.90), mB.latPct(0.99)
	m.lat = sortSamples(lat)
	lateS := sortSamples(late)
	m.layer["gen.late_p99_us"] = lateS.pct(0.99) / 1e3
	m.notes = append(m.notes,
		fmt.Sprintf("phase A: %d acked puts in %.3fs, median %.0f/s over %d slices, window %d",
			ackedA, float64(tA-t0)/1e9, m.rate, slices, swWindowA),
		fmt.Sprintf("phase B: offered %d/s for %.3fs, %d acked", swRate, float64(half)/1e9, len(lat)),
		lateS.describe("generator lateness"))
	return m, nil
}

func (s *swarm) verify(m *measurement) error {
	if err := s.drv.checkAcked(); err != nil {
		return err
	}
	var recv, drops int64
	for _, ni := range s.eps {
		st := ni.Status()
		recv += st.RecvMsgs
		drops += st.Dropped
	}
	if recv != s.drv.sent || drops != 0 {
		return fmt.Errorf("endpoints received %d of %d puts, %d dropped", recv, s.drv.sent, drops)
	}
	return nil
}
