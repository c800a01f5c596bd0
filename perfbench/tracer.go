package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs/metrics"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/portals"
)

// epoch anchors nanos: time.Since keeps the monotonic clock, so stamps
// taken on different goroutines subtract safely.
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// span accumulates the count and total duration of one kind of call.
type span struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (s *span) add(d int64) {
	s.n.Add(1)
	s.ns.Add(d)
}

func (s *span) mean() float64 { return ratio(s.ns.Load(), s.n.Load()) }

// accum holds everything the tracer counts during one window. A fresh one
// is swapped in when the window opens, so warm-up traffic is not counted.
type accum struct {
	put, get   span
	callErrors atomic.Int64

	wait                    span // EQPoll calls, blocked time included
	eqCalls, empty, dropped atomic.Int64
	send                    span
	queueWait               [2]span // indexed by tracer.phase
	batches, batchedMsgs    atomic.Int64
	handlerNs               atomic.Int64
	deliverToEvent          [2]span
}

// tracer times the calls the benchmark makes into each layer, from
// outside the program: NI calls through the methods below, transport
// calls through the network decorator from wrapNetwork. A nil *tracer is
// the untraced run: every method is then a no-op or a plain call.
type tracer struct {
	acc atomic.Pointer[accum]
	// phase tags transport and event-queue spans, so that pingpong can
	// budget its put round trips apart from its get round trips.
	phase atomic.Int32

	mu        sync.RWMutex
	pairs     map[[2]types.NID]*pairFIFO
	lastStart map[types.NID]*atomic.Int64 // newest handler start per node
}

func newTracer() *tracer {
	t := &tracer{
		pairs:     make(map[[2]types.NID]*pairFIFO),
		lastStart: make(map[types.NID]*atomic.Int64),
	}
	t.acc.Store(new(accum))
	return t
}

// reset starts a new window of counts.
func (t *tracer) reset() {
	if t != nil {
		t.acc.Store(new(accum))
	}
}

// setPhase tags the spans that follow with phase 0 or 1.
func (t *tracer) setPhase(ph int32) {
	if t != nil {
		t.phase.Store(ph)
	}
}

func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return nanos()
}

// putDone and getDone close a span opened by start around NI.Put/NI.Get.
func (t *tracer) putDone(t0 int64, err error) { t.callDone(t0, err, false) }
func (t *tracer) getDone(t0 int64, err error) { t.callDone(t0, err, true) }

func (t *tracer) callDone(t0 int64, err error, get bool) {
	if t == nil {
		return
	}
	a := t.acc.Load()
	if get {
		a.get.add(nanos() - t0)
	} else {
		a.put.add(nanos() - t0)
	}
	if err != nil {
		a.callErrors.Add(1)
	}
}

// poll is NI.EQPoll, timed. For a returned event it also records the time
// from the newest transport handler start on the NI's node to the return
// (nicsim.deliver_to_event_ns); that pairs the event with its own message
// only while one message at a time is in flight to the node.
func (t *tracer) poll(ni *portals.NI, eq portals.Handle, d time.Duration) (portals.Event, error) {
	if t == nil {
		return ni.EQPoll(eq, d)
	}
	t0 := nanos()
	ev, err := ni.EQPoll(eq, d)
	t1 := nanos()
	a := t.acc.Load()
	a.wait.add(t1 - t0)
	t.eventResult(a, ni, err, t1)
	return ev, err
}

// eqGet is NI.EQGet, counted like poll.
func (t *tracer) eqGet(ni *portals.NI, eq portals.Handle) (portals.Event, error) {
	if t == nil {
		return ni.EQGet(eq)
	}
	ev, err := ni.EQGet(eq)
	t.eventResult(t.acc.Load(), ni, err, nanos())
	return ev, err
}

func (t *tracer) eventResult(a *accum, ni *portals.NI, err error, at int64) {
	a.eqCalls.Add(1)
	switch {
	case errors.Is(err, portals.ErrEQEmpty):
		a.empty.Add(1)
		return
	case errors.Is(err, portals.ErrEQDropped):
		a.dropped.Add(1)
	case err != nil:
		return
	}
	t.mu.RLock()
	last := t.lastStart[ni.ID().NID]
	t.mu.RUnlock()
	if last != nil {
		if hs := last.Load(); hs > 0 && at >= hs {
			a.deliverToEvent[t.phase.Load()].add(at - hs)
		}
	}
}

// fifoSlots bounds the messages one (source, destination) pair may have
// between send and handler start; every workload keeps far fewer in flight.
const fifoSlots = 1 << 13

// pairFIFO correlates one node pair's sends with their handler starts by
// the transport's per-pair FIFO order: the k-th message sent from src to
// dst is the k-th one the destination's handler sees.
type pairFIFO struct {
	mu   sync.Mutex
	head uint64 //lint:guardedby mu
	tail atomic.Uint64
	slot [fifoSlots]fifoSlot
}

// fifoSlot holds the send-return stamp of message seq-1; seq is stored
// after ret, so a reader that sees its own seq also sees its stamp.
type fifoSlot struct {
	seq atomic.Uint64
	ret atomic.Int64
}

func (t *tracer) pair(src, dst types.NID) *pairFIFO {
	k := [2]types.NID{src, dst}
	t.mu.RLock()
	f := t.pairs[k]
	t.mu.RUnlock()
	if f != nil {
		return f
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if f = t.pairs[k]; f == nil {
		f = new(pairFIFO)
		t.pairs[k] = f
	}
	return f
}

// depart reserves the next FIFO position on the pair before the send.
func (f *pairFIFO) depart() uint64 {
	f.mu.Lock()
	i := f.head
	f.head++
	f.mu.Unlock()
	return i
}

// sent stamps position i once the transport's send returned. A failed
// send stamps -1, which the receiver skips.
func (f *pairFIFO) sent(i uint64, ret int64) {
	s := &f.slot[i%fifoSlots]
	s.ret.Store(ret)
	s.seq.Store(i + 1)
}

// arrive pops the oldest outstanding message and returns its send-return
// stamp; ok is false when that send has not returned yet (the handler
// overtook the sender) or the position was never stamped.
func (f *pairFIFO) arrive() (ret int64, ok bool) {
	for {
		i := f.tail.Add(1) - 1
		s := &f.slot[i%fifoSlots]
		if s.seq.Load() != i+1 {
			return 0, false
		}
		if ret = s.ret.Load(); ret >= 0 {
			return ret, true
		}
	}
}

func (t *tracer) nodeStart(nid types.NID) *atomic.Int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.lastStart[nid]
	if s == nil {
		s = new(atomic.Int64)
		t.lastStart[nid] = s
	}
	return s
}

// arrived records, for each message of a handler call at node dst, the
// queue wait from its send return to the handler start.
func (t *tracer) arrived(dst types.NID, srcs []types.NID, start int64) {
	a := t.acc.Load()
	ph := t.phase.Load()
	for _, src := range srcs {
		if ret, ok := t.pair(src, dst).arrive(); ok && start >= ret {
			a.queueWait[ph].add(start - ret)
		} else {
			a.queueWait[ph].add(0)
		}
	}
}

// handled records one handler call of n messages that began at start.
func (t *tracer) handled(n int, start int64) {
	a := t.acc.Load()
	a.batches.Add(1)
	a.batchedMsgs.Add(int64(n))
	a.handlerNs.Add(nanos() - start)
}

// wrapNetwork decorates a fabric so every send and every handler call is
// timed. The decorator offers transport.BatchNetwork exactly when the
// wrapped network does, and its endpoints offer transport.BufSender
// exactly when the wrapped endpoints do, so nicsim takes the same batched
// and zero-copy paths with and without tracing.
func wrapNetwork(inner transport.Network, t *tracer) transport.Network {
	n := &tracedNet{inner: inner, t: t}
	if bn, ok := inner.(transport.BatchNetwork); ok {
		return &tracedBatchNet{tracedNet: n, bn: bn}
	}
	return n
}

type tracedNet struct {
	inner transport.Network
	t     *tracer
}

func (n *tracedNet) Attach(nid types.NID, h transport.Handler) (transport.Endpoint, error) {
	last := n.t.nodeStart(nid)
	ep, err := n.inner.Attach(nid, func(src types.NID, msg []byte) {
		start := nanos()
		last.Store(start)
		n.t.arrived(nid, []types.NID{src}, start)
		h(src, msg)
		n.t.handled(1, start)
	})
	if err != nil {
		return nil, err
	}
	return n.wrapEndpoint(ep, nid), nil
}

func (n *tracedNet) Close() error { return n.inner.Close() }

// RegisterMetrics keeps the wrapped fabric's counters visible through
// Machine.RegisterMetrics.
func (n *tracedNet) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	if reg, ok := n.inner.(metrics.Registerer); ok {
		reg.RegisterMetrics(r, ls)
	}
}

func (n *tracedNet) wrapEndpoint(ep transport.Endpoint, nid types.NID) transport.Endpoint {
	e := &tracedEndpoint{inner: ep, t: n.t, nid: nid}
	if bs, ok := ep.(transport.BufSender); ok {
		return &tracedBufEndpoint{tracedEndpoint: e, bs: bs}
	}
	return e
}

type tracedBatchNet struct {
	*tracedNet
	bn transport.BatchNetwork
}

func (n *tracedBatchNet) AttachBatch(nid types.NID, h transport.BatchHandler) (transport.Endpoint, error) {
	last := n.t.nodeStart(nid)
	var srcs []types.NID // batches for one endpoint arrive serially
	ep, err := n.bn.AttachBatch(nid, func(batch []transport.Delivery) {
		start := nanos()
		last.Store(start)
		srcs = srcs[:0]
		for i := range batch {
			srcs = append(srcs, batch[i].Src)
		}
		n.t.arrived(nid, srcs, start)
		h(batch)
		n.t.handled(len(srcs), start)
	})
	if err != nil {
		return nil, err
	}
	return n.wrapEndpoint(ep, nid), nil
}

type tracedEndpoint struct {
	inner transport.Endpoint
	t     *tracer
	nid   types.NID
}

func (e *tracedEndpoint) Send(dst types.NID, msg []byte) error {
	f := e.t.pair(e.nid, dst)
	i := f.depart()
	t0 := nanos()
	err := e.inner.Send(dst, msg)
	e.sent(f, i, t0, err)
	return err
}

func (e *tracedEndpoint) sent(f *pairFIFO, i uint64, t0 int64, err error) {
	t1 := nanos()
	e.t.acc.Load().send.add(t1 - t0)
	if err != nil {
		t1 = -1
	}
	f.sent(i, t1)
}

func (e *tracedEndpoint) LocalNID() types.NID { return e.inner.LocalNID() }

func (e *tracedEndpoint) Close() error { return e.inner.Close() }

// RegisterMetrics forwards to reliability endpoints (rtscts.Conn), whose
// counters nicsim.Node.RegisterMetrics finds through the endpoint.
func (e *tracedEndpoint) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	if reg, ok := e.inner.(metrics.Registerer); ok {
		reg.RegisterMetrics(r, ls)
	}
}

type tracedBufEndpoint struct {
	*tracedEndpoint
	bs transport.BufSender
}

func (e *tracedBufEndpoint) SendBuf(dst types.NID, buf *bufpool.Buf) error {
	f := e.t.pair(e.nid, dst)
	i := f.depart()
	t0 := nanos()
	err := e.bs.SendBuf(dst, buf)
	e.sent(f, i, t0, err)
	return err
}
