package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport/loopback"
	"repro/portals"
)

// pingpong: two NIs on Loopback(), one flow, a closed loop with one
// message in flight. Put round trips (A puts 8 bytes to B, B echoes them
// back with a put) alternate with get round trips (A gets B's copy back).
// Both sides wait with EQPoll(timeout), as mpi and coll do. This is the
// per-message fixed cost of the whole software path with nothing
// amortized, and gets exercise the reply path beside the puts.
type pingpong struct {
	seed int64
	tr   *tracer
	m    *portals.Machine
	a, b *portals.NI

	eqA, eqB     portals.Handle
	mdPut, mdGet portals.Handle
	mdEcho       portals.Handle
	sendBuf      []byte // A's outgoing payload
	echoBuf      []byte // where B's echo lands on A
	getBuf       []byte // where A's get reply lands
	recvBuf      []byte // where A's put lands on B; B echoes it and serves gets from it
	rnd          *rand.Rand
	lastPut      uint64 // payload of the last put round trip
	echoErrors   atomic.Int64
	bPut         span // B's echo Put calls, traced only
}

const (
	ppWarmup    = 20000 // untimed round trips
	bitsPing    = portals.MatchBits(1)
	bitsEcho    = portals.MatchBits(2)
	bitsGetFrom = portals.MatchBits(3)
)

func newPingpong(seed int64) bench { return &pingpong{seed: seed} }

func (p *pingpong) setupReps() int { return 201 }

func (p *pingpong) nis() []*portals.NI { return []*portals.NI{p.a, p.b} }

func (p *pingpong) machines() []*portals.Machine { return []*portals.Machine{p.m} }

func (p *pingpong) close() {
	if p.m != nil {
		_ = p.m.Close() // teardown; the run's results are already taken
	}
}

func (p *pingpong) setup(tr *tracer) error {
	p.tr = tr
	p.rnd = rand.New(rand.NewSource(p.seed))
	fab := portals.Loopback()
	if tr != nil {
		fab = portals.CustomFabric("loopback", wrapNetwork(loopback.New(), tr))
	}
	p.m = portals.NewMachine(fab)
	var err error
	if p.a, err = p.m.NIInit(1, 1, portals.Limits{}); err != nil {
		return err
	}
	if p.b, err = p.m.NIInit(2, 1, portals.Limits{}); err != nil {
		return err
	}
	p.sendBuf, p.echoBuf, p.getBuf, p.recvBuf = make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 8)
	if p.eqA, err = p.a.EQAlloc(64); err != nil {
		return err
	}
	if p.eqB, err = p.b.EQAlloc(64); err != nil {
		return err
	}
	none := portals.InvalidHandle
	if p.mdPut, err = p.a.MDBind(portals.MD{Start: p.sendBuf, Threshold: portals.ThresholdInfinite, EQ: none, CT: none}, portals.Retain); err != nil {
		return err
	}
	if p.mdGet, err = p.a.MDBind(portals.MD{Start: p.getBuf, Threshold: portals.ThresholdInfinite, EQ: p.eqA, CT: none}, portals.Retain); err != nil {
		return err
	}
	if p.mdEcho, err = p.b.MDBind(portals.MD{Start: p.recvBuf, Threshold: portals.ThresholdInfinite, EQ: none, CT: none}, portals.Retain); err != nil {
		return err
	}
	attach := func(ni *portals.NI, bits portals.MatchBits, buf []byte, opts portals.MDOptions, eq portals.Handle) error {
		me, err := ni.MEAttach(0, portals.AnyProcess, bits, 0, portals.Retain, portals.After)
		if err != nil {
			return err
		}
		_, err = ni.MDAttach(me, portals.MD{Start: buf, Threshold: portals.ThresholdInfinite,
			Options: opts | portals.MDManageRemote, EQ: eq, CT: none}, portals.Retain)
		return err
	}
	if err := attach(p.b, bitsPing, p.recvBuf, portals.MDOpPut, p.eqB); err != nil {
		return err
	}
	if err := attach(p.b, bitsGetFrom, p.recvBuf, portals.MDOpGet, none); err != nil {
		return err
	}
	return attach(p.a, bitsEcho, p.echoBuf, portals.MDOpPut, p.eqA)
}

// echo is B: every put that lands is put straight back to A.
func (p *pingpong) echo(stop *atomic.Bool, done chan<- error) {
	for !stop.Load() {
		ev, err := p.tr.poll(p.b, p.eqB, pollTimeout)
		if errors.Is(err, portals.ErrEQEmpty) {
			continue
		}
		if err != nil {
			done <- fmt.Errorf("echo wait: %w", err)
			return
		}
		if ev.Type != portals.EventPut {
			continue
		}
		t1 := p.tr.start()
		err = p.b.Put(p.mdEcho, portals.NoAckReq, p.a.ID(), 0, 0, bitsEcho, 0)
		p.tr.putDone(t1, err)
		if p.tr != nil {
			p.bPut.add(nanos() - t1)
		}
		if err != nil {
			p.echoErrors.Add(1)
		}
	}
	done <- nil
}

// await polls A's queue until an event of type want arrives.
func (p *pingpong) await(want portals.EventType) error {
	deadline := time.Now().Add(hangAfter)
	for {
		ev, err := p.tr.poll(p.a, p.eqA, pollTimeout)
		switch {
		case err == nil && ev.Type == want:
			return nil
		case err != nil && !errors.Is(err, portals.ErrEQEmpty):
			return err
		case time.Now().After(deadline):
			return fmt.Errorf("no %v event within %v", want, hangAfter)
		}
	}
}

// roundTrips runs put and get round trips alternately until n are done
// or, with n == 0, until the deadline; it appends the per-kind latencies
// and counts completions in meter, if any.
func (p *pingpong) roundTrips(n int, until int64, putLat, getLat *[]int64, failed *int64, meter *meter) (int64, error) {
	var ops int64
	for i := 0; n == 0 || i < n; i++ {
		get := i%2 == 1
		if get {
			p.tr.setPhase(1)
		} else {
			p.tr.setPhase(0)
			p.lastPut = p.rnd.Uint64()
			binary.LittleEndian.PutUint64(p.sendBuf, p.lastPut)
		}
		t0 := nanos()
		c0 := p.tr.start()
		var err error
		if get {
			err = p.a.Get(p.mdGet, p.b.ID(), 0, 0, bitsGetFrom, 0)
			p.tr.getDone(c0, err)
		} else {
			err = p.a.Put(p.mdPut, portals.NoAckReq, p.b.ID(), 0, 0, bitsPing, 0)
			p.tr.putDone(c0, err)
		}
		if err != nil {
			*failed++
			continue
		}
		want := portals.EventPut
		if get {
			want = portals.EventReply
		}
		if err := p.await(want); err != nil {
			return ops, err
		}
		t1 := nanos()
		got := p.echoBuf
		if get {
			got = p.getBuf
		}
		if !bytes.Equal(got, p.sendBuf) {
			return ops, fmt.Errorf("round trip %d: payload %x came back as %x", i, p.sendBuf, got)
		}
		ops++
		if get {
			*getLat = append(*getLat, t1-t0)
			meter.add(t1, 1, 8)
		} else {
			*putLat = append(*putLat, t1-t0)
			meter.add(t1, 1, 16)
			meter.addLat(t1, t1-t0)
		}
		if n == 0 && t1 >= until {
			break
		}
	}
	return ops, nil
}

// withEcho runs f while B echoes, then stops B and waits for it.
func (p *pingpong) withEcho(f func() error) error {
	var stop atomic.Bool
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.echo(&stop, done)
	}()
	err := f()
	stop.Store(true)
	wg.Wait()
	if echoErr := <-done; err == nil {
		err = echoErr
	}
	return err
}

func (p *pingpong) warm() error {
	var putLat, getLat []int64
	var failed int64
	return p.withEcho(func() error {
		_, err := p.roundTrips(ppWarmup, 0, &putLat, &getLat, &failed, nil)
		return err
	})
}

func (p *pingpong) measure(w *window, d time.Duration) (*measurement, error) {
	putLat := make([]int64, 0, 1<<20)
	getLat := make([]int64, 0, 1<<20)
	m := &measurement{layer: map[string]float64{}}
	var mt *meter
	p.bPut.n.Store(0)
	p.bPut.ns.Store(0)
	err := p.withEcho(func() error {
		w.open()
		t0 := nanos()
		mt = newMeter(t0, d)
		ops, err := p.roundTrips(0, t0+int64(d), &putLat, &getLat, &m.failed, mt)
		w.close()
		m.ops = ops
		return err
	})
	if err != nil {
		return nil, err
	}
	m.failed += p.echoErrors.Load()
	m.rate, m.goodput = mt.rates()
	m.p50, m.p90, m.p99 = mt.latPct(0.50), mt.latPct(0.90), mt.latPct(0.99)
	m.lat = sortSamples(putLat)
	gets := sortSamples(getLat)
	m.layer["portals.get_rtt_p50_us"] = gets.pct(0.5) / 1e3
	m.notes = append(m.notes, gets.describe("get RTT"))
	if p.tr != nil {
		p.budget(m)
	}
	return m, nil
}

// budget attributes the mean put round trip to the spans measured along
// it: A's Put, the A->B transport queue wait, B's wait from handler start
// to EQPoll return, B's echo Put, the B->A queue wait and A's wait from
// handler start to EQPoll return. The remainder is what no span covers.
func (p *pingpong) budget(m *measurement) {
	a := p.tr.acc.Load()
	var sum int64
	for _, x := range m.lat {
		sum += x
	}
	rtt := ratio(sum, int64(len(m.lat)))
	// Per put round trip: two sends queue (A->B, B->A), two events are
	// delivered (on B, then on A); phase 0 holds only put traffic.
	q := a.queueWait[0].mean() * 2
	d2e := a.deliverToEvent[0].mean() * 2
	spans := a.put.ns.Load() - p.bPut.ns.Load()
	putA := ratio(spans, a.put.n.Load()-p.bPut.n.Load())
	attributed := putA + q + d2e + p.bPut.mean()
	m.layer["budget.rtt_ns"] = rtt
	m.layer["budget.unattributed_ns"] = rtt - attributed
	m.layer["budget.unattributed_share"] = (rtt - attributed) / rtt
	m.notes = append(m.notes, fmt.Sprintf(
		"budget per put RTT: rtt=%.0fns = A.Put %.0f + queue wait 2x%.0f + deliver-to-event 2x%.0f + B.Put %.0f + unattributed %.0f (%.1f%%)",
		rtt, putA, q/2, d2e/2, p.bPut.mean(), rtt-attributed, 100*(rtt-attributed)/rtt))
}

func (p *pingpong) verify(m *measurement) error {
	if got := binary.LittleEndian.Uint64(p.recvBuf); got != p.lastPut {
		return fmt.Errorf("B holds %x after the last put of %x", got, p.lastPut)
	}
	st := sumStatus(p.nis())
	if st.Dropped != 0 {
		return fmt.Errorf("%d messages dropped", st.Dropped)
	}
	return nil
}
