// Triggered collectives: TGroup runs the binomial tree schedules rooted
// at rank 0 (schedule.go) on the triggered executor, which pre-arms each
// send as a triggered operation (ct.go) so the collective progresses
// entirely on the delivery lanes — the Portals-4 §3.15 offload model. The
// host's role per collective shrinks to: arm this generation's triggered
// ops, contribute its own arrival, and (eventually) wait on a counter.
// Between those two points every hop of the tree — child arrivals,
// NIC-side accumulation, the root's turnaround, the down-wave fan-out —
// executes inside HandleIncomingInto on whichever lane crossed the
// threshold, with zero host wakeups. That gap is what experiment E15
// measures: a collective that completes *under* a compute burn instead
// of after it.
//
// Barrier and allreduce are BinomialReduce followed by BinomialBcast, the
// composition mpi.Comm.Allreduce runs; the barrier carries no data. All
// counters are MONOTONE — generation g's thresholds are g·k for a
// per-generation contribution k, so counters are never reset and a
// straggler's late arrivals from generation g-1 can never corrupt
// generation g (they were already counted toward g-1's threshold).
//
// Staging-slot reuse is parity-double-buffered like coll.Group, but the
// safety argument is different because fires happen on lanes, concurrent
// with the host: a slot may be reused only once every READER of it has
// finished, and the evidence is counters whose increments are ordered
// after the read. Concretely: startPut copies the payload out of the
// descriptor BEFORE its MDCTSend increment lands, so waiting for the
// send-counter (ctASent/ctBSent) proves the slot's bytes left it; and
// a delivery's MDCTPut increment lands after the payload write, so a
// crossed threshold proves the data is visible.
package coll

import (
	"fmt"
	"time"

	"repro/portals"
)

// ptlTrig is the portal table index the triggered library claims
// (distinct from ptlColl so host-driven and offloaded groups coexist).
const ptlTrig portals.PtlIndex = 5

// Match-bit constants for the persistent triggered MEs. Exact match
// (ignore 0): arrivals are anonymous counter increments, so nothing
// per-generation needs to ride in the bits.
const (
	mbBarUp  portals.MatchBits = 0x71 // barrier up-wave arrival
	mbBarDn  portals.MatchBits = 0x72 // barrier down-wave release
	mbArAcc  portals.MatchBits = 0x73 // allreduce contribution (accumulating)
	mbArRdy  portals.MatchBits = 0x74 // allreduce parent-ready credit
	mbArDn   portals.MatchBits = 0x75 // allreduce down-wave result
	mbBcData portals.MatchBits = 0x76 // broadcast payload
	// mbBcCred+k is the broadcast subtree-released credit from the child
	// whose tree edge has phase k.
	mbBcCred portals.MatchBits = 0x77
)

// texec is the triggered executor: it arms the sends of one rank's tree
// schedules as triggered puts on monotone counters.
type texec struct {
	ni       *portals.NI
	ids      []portals.ProcessID
	up, down []Step // BinomialReduce and BinomialBcast rooted at 0
	rank     int
	nc       uint64 // fan-out: the bcast's sends
}

func newTexec(ni *portals.NI, rank int, ids []portals.ProcessID) texec {
	x := texec{
		ni: ni, ids: ids, rank: rank,
		up:   BinomialReduce(rank, len(ids), 0),
		down: BinomialBcast(rank, len(ids), 0),
	}
	x.nc = uint64(sends(x.down))
	return x
}

// fire sends md to every To of steps, carrying mb at off: a triggered
// put firing when ct reaches at, or, with at 0, a put issued now.
func (x *texec) fire(steps []Step, md portals.Handle, mb portals.MatchBits, off uint64, ct portals.Handle, at uint64) error {
	for _, s := range steps {
		if s.To < 0 {
			continue
		}
		var err error
		if at == 0 {
			err = x.ni.Put(md, portals.NoAckReq, x.ids[s.To], ptlTrig, 0, mb, off)
		} else {
			err = x.ni.TriggeredPut(md, portals.NoAckReq, x.ids[s.To], ptlTrig, 0, mb, off, ct, at)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// send fires a descriptor over data that unlinks after its last send;
// each send increments sent once it has read data.
func (x *texec) send(steps []Step, data []byte, sent portals.Handle, mb portals.MatchBits, off uint64, ct portals.Handle, at uint64) error {
	n := sends(steps)
	if n == 0 {
		return nil
	}
	md, err := x.ni.MDBind(portals.MD{
		Start: data, Threshold: int32(n),
		Options: portals.MDCTSend, CT: sent,
	}, portals.Unlink)
	if err != nil {
		return err
	}
	return x.fire(steps, md, mb, off, ct, at)
}

// doneAt is where generation g of reduce-then-bcast completes here, and
// so where the fan-out fires: the root's reduce on up, else the parent's
// message on down.
func (x *texec) doneAt(g uint64, up, down portals.Handle) (portals.Handle, uint64) {
	if x.rank == 0 {
		return up, g * (x.nc + 1)
	}
	return down, g
}

// tprog is one collective class's progress on the executor.
type tprog struct {
	gen uint64 //lint:guardedby confined  completed generations (next is +1)
	n   int    //lint:guardedby confined  elements or bytes in the in-flight operation
}

func (p *tprog) start(n int) uint64 {
	p.gen++
	p.n = n
	return p.gen
}

// wait returns the generation in flight if Wait's size matches Start's.
func (p *tprog) wait(n int) (uint64, error) {
	if n != p.n {
		return 0, fmt.Errorf("coll: wait size %d != started %d", n, p.n)
	}
	return p.gen, nil
}

// TGroup is one member's endpoint of a triggered (NIC-offloaded)
// collective group. Calls must come from a single goroutine, in the same
// order on every member; at most one operation of each class may be
// outstanding (Start without its Wait) at a time. The single-goroutine
// contract is machine-checked: the progress fields of tprog are
// //lint:guardedby confined (docs/LINT.md).
type TGroup struct {
	texec
	cfg Config

	// mdSig is the persistent zero-length descriptor every signalling put
	// (barrier waves, credits) fires from.
	mdSig portals.Handle

	// Barrier: ctUp counts child arrivals + own, ctDn parent releases.
	ctUp, ctDn portals.Handle
	// Allreduce: ctAr counts contributions + parent-ready, ctADn the
	// down-wave result arrival, ctASent this member's fired data sends.
	ctAr, ctADn, ctASent portals.Handle
	// Bcast: ctBc counts data arrivals, ctBSent fired forwards, and
	// ctCred[i] the i-th child's subtree-released credits. Credits are
	// counted PER CHILD, not summed: the release window needs the minimum
	// over children, and a shared counter cannot distinguish a fast child
	// two generations ahead from all children done (sum-vs-min — the trap
	// that anonymous counting events genuinely cannot express).
	ctBc, ctBSent portals.Handle
	ctCred        []portals.Handle

	bar, ar, bc tprog

	arStage  []byte // 2 parity slots × 8·MaxVec: accumulating reduction
	aDnStage []byte // 2 parity slots × 8·MaxVec: down-wave result
	bcStage  []byte // 2 parity slots × MaxMsg: broadcast payload

	// Timeout bounds every internal counter wait. Default 30s.
	Timeout time.Duration
}

// NewTGroup arms rank's persistent triggered-collective resources: seven
// counting events and one per child, a counting match entry per arrival
// class and child (none carries an event queue — completions are counter
// increments, not events), and one zero-length signalling descriptor.
// ids must be identical on every member.
func NewTGroup(ni *portals.NI, rank int, ids []portals.ProcessID, cfg Config) (*TGroup, error) {
	if rank < 0 || rank >= len(ids) {
		return nil, fmt.Errorf("coll: rank %d out of range", rank)
	}
	cfg = cfg.withDefaults()
	t := &TGroup{
		texec:   newTexec(ni, rank, append([]portals.ProcessID(nil), ids...)),
		cfg:     cfg,
		Timeout: 30 * time.Second,
	}
	slot := 8 * cfg.MaxVec
	t.arStage = make([]byte, 2*slot)
	t.aDnStage = make([]byte, 2*slot)
	t.bcStage = make([]byte, 2*cfg.MaxMsg)
	t.ctCred = make([]portals.Handle, t.nc)

	for _, ct := range t.counters() {
		h, err := ni.CTAlloc()
		if err != nil {
			return nil, err
		}
		*ct = h
	}

	// One counting ME per arrival class. MDCTPut routes each delivery into
	// the class's counter; no EQ means no queue to drain or overflow.
	type entry struct {
		mb   portals.MatchBits
		buf  []byte
		ct   portals.Handle
		opts portals.MDOptions
	}
	entries := []entry{
		{mbBarUp, nil, t.ctUp, 0},
		{mbBarDn, nil, t.ctDn, 0},
		{mbArAcc, t.arStage, t.ctAr, portals.MDAccumulate},
		{mbArRdy, nil, t.ctAr, 0},
		{mbArDn, t.aDnStage, t.ctADn, 0},
		{mbBcData, t.bcStage, t.ctBc, 0},
	}
	for i, s := range t.down[len(t.down)-len(t.ctCred):] { // the sends trail the receive
		entries = append(entries, entry{mbBcCred + portals.MatchBits(s.Phase), nil, t.ctCred[i], 0})
	}
	for _, e := range entries {
		me, err := ni.MEAttach(ptlTrig, portals.AnyProcess, e.mb, 0, portals.Retain, portals.After)
		if err != nil {
			return nil, err
		}
		if _, err := ni.MDAttach(me, portals.MD{
			Start:     e.buf,
			Threshold: portals.ThresholdInfinite,
			Options:   portals.MDOpPut | portals.MDManageRemote | portals.MDCTPut | e.opts,
			CT:        e.ct,
		}, portals.Retain); err != nil {
			return nil, err
		}
	}

	sig, err := ni.MDBind(portals.MD{Threshold: portals.ThresholdInfinite}, portals.Retain)
	if err != nil {
		return nil, err
	}
	t.mdSig = sig
	return t, nil
}

// counters lists the group's counting events.
func (t *TGroup) counters() []*portals.Handle {
	cts := []*portals.Handle{&t.ctUp, &t.ctDn, &t.ctAr, &t.ctADn, &t.ctASent, &t.ctBc, &t.ctBSent}
	for i := range t.ctCred {
		cts = append(cts, &t.ctCred[i])
	}
	return cts
}

// Rank and Size report group coordinates.
func (t *TGroup) Rank() int { return t.rank }
func (t *TGroup) Size() int { return len(t.ids) }

// wait blocks for ct's success count to reach threshold under the group
// timeout, translating the miss into a collective error.
func (t *TGroup) wait(ct portals.Handle, threshold uint64, what string) error {
	if _, err := t.ni.CTPoll(ct, threshold, t.Timeout); err != nil {
		return fmt.Errorf("coll: triggered %s: %w", what, err)
	}
	return nil
}

// BarrierStart arms generation g's chain and contributes this member's
// arrival. The whole wave — leaves' signals combining up the tree, the
// root's turnaround, releases fanning back down — then runs on delivery
// lanes while the host computes.
//
// Per member and generation, ctUp advances by nc+1 (one per child, one
// for self) and ctDn by 1 (the parent's release), so the monotone
// thresholds are g·(nc+1) and g.
func (t *TGroup) BarrierStart() error {
	g := t.bar.start(0)
	if err := t.fire(t.up, t.mdSig, mbBarUp, 0, t.ctUp, g*(t.nc+1)); err != nil {
		return err
	}
	ct, at := t.doneAt(g, t.ctUp, t.ctDn)
	if err := t.fire(t.down, t.mdSig, mbBarDn, 0, ct, at); err != nil {
		return err
	}
	return t.ni.CTInc(t.ctUp, portals.CTValue{Success: 1})
}

// BarrierWait blocks until every member has entered generation g's
// barrier.
func (t *TGroup) BarrierWait() error {
	g, _ := t.bar.wait(0)
	ct, at := t.doneAt(g, t.ctUp, t.ctDn)
	return t.wait(ct, at, "barrier")
}

// Barrier blocks until all members arrive.
func (t *TGroup) Barrier() error {
	if err := t.BarrierStart(); err != nil {
		return err
	}
	return t.BarrierWait()
}

// slot returns generation g's parity slot of stage, whose slots are size
// bytes apart, cut to n bytes, and its offset.
func slot(stage []byte, size int, g uint64, n int) ([]byte, uint64) {
	off := int(g%2) * size
	return stage[off : off+n], uint64(off)
}

// arResult is the stage that holds the allreduce result on this member:
// the root's own accumulation, everyone else's down-wave arrival.
func (t *TGroup) arResult() []byte {
	if t.rank == 0 {
		return t.arStage
	}
	return t.aDnStage
}

// AllreduceSumStart begins a global float64 sum of vec. The reduction is
// performed BY THE DELIVERY ENGINE: contributions land in an accumulating
// descriptor (MDAccumulate), so by the time a member's arrival counter
// crosses, its staging slot already holds the subtree's sum and the
// pre-armed up-send can forward it with no host math.
//
// Per member and generation, ctAr advances by nc+2 off-root (children's
// contributions + own + the parent-ready credit) and nc+1 at the root
// (no parent). The ready credit orders slot recycling: a child may send
// its subtree sum only after the parent has reinitialised the target
// slot, which the parent signals from its own Start.
func (t *TGroup) AllreduceSumStart(vec []float64) error {
	if len(vec) > t.cfg.MaxVec {
		return fmt.Errorf("coll: vector %d exceeds MaxVec %d", len(vec), t.cfg.MaxVec)
	}
	g := t.ar.start(len(vec))
	own, off := slot(t.arStage, 8*t.cfg.MaxVec, g, 8*len(vec))
	res, _ := slot(t.arResult(), 8*t.cfg.MaxVec, g, 8*len(vec))

	// Reinitialise the parity slot with our own contribution. Safe: the
	// slot's generation-(g-2) readers finished before Wait(g-1) returned
	// (ctASent), and generation-g writers are gated on the ready credits
	// sent below.
	EncodeF64(vec, own)

	// Subtree sum complete + parent ready ⇒ send our slot upward.
	if err := t.send(t.up, own, t.ctASent, mbArAcc, off, t.ctAr, g*(t.nc+2)); err != nil {
		return err
	}
	// Down-wave: the root forwards its finished slot when the subtree
	// completes; inner members forward the result they received.
	ct, at := t.doneAt(g, t.ctAr, t.ctADn)
	if err := t.send(t.down, res, t.ctASent, mbArDn, off, ct, at); err != nil {
		return err
	}
	// Our slot is reinitialised: release the children's up-sends.
	if err := t.fire(t.down, t.mdSig, mbArRdy, 0, portals.InvalidHandle, 0); err != nil {
		return err
	}
	return t.ni.CTInc(t.ctAr, portals.CTValue{Success: 1})
}

// AllreduceSumWait blocks for the result and decodes it into vec (which
// must be the Start slice, or one of equal length).
func (t *TGroup) AllreduceSumWait(vec []float64) error {
	g, err := t.ar.wait(len(vec))
	if err != nil {
		return err
	}
	ct, at := t.doneAt(g, t.ctAr, t.ctADn)
	if err := t.wait(ct, at, "allreduce"); err != nil {
		return err
	}
	res, _ := slot(t.arResult(), 8*t.cfg.MaxVec, g, 8*len(vec))
	DecodeF64(res, vec)
	// Slot-recycle fence: generation g's fired sends have read their
	// slots once ctASent reaches g·(sends per generation).
	if s := t.nc + uint64(sends(t.up)); s > 0 {
		return t.wait(t.ctASent, g*s, "allreduce sends")
	}
	return nil
}

// AllreduceSum combines vec across all members by summation; every member
// ends with the result.
func (t *TGroup) AllreduceSum(vec []float64) error {
	if err := t.AllreduceSumStart(vec); err != nil {
		return err
	}
	return t.AllreduceSumWait(vec)
}

// bcWindow enforces the parity-slot recycle window: before starting
// generation g, every child's subtree must have released generation g-2.
// Then (off-root) it forwards the certification one level up — "my
// subtree has released g-2" — which is true because this member consumed
// g-2 before its own Wait(g-2) returned, and the per-child waits just
// proved the subtrees below did too. Credits are host-sent and lazy: they
// gate generation g+2, two collectives behind the data wave, so the
// DATA path — arrival firing the pre-armed fan-out — stays fully on the
// lanes.
func (t *TGroup) bcWindow(g uint64) error {
	if g <= 2 {
		return nil
	}
	for _, ct := range t.ctCred {
		if err := t.wait(ct, g-2, "bcast window"); err != nil {
			return err
		}
	}
	if t.rank != 0 {
		p := t.down[0] // the receive from the parent
		return t.ni.Put(t.mdSig, portals.NoAckReq, t.ids[p.From], ptlTrig, 0, mbBcCred+portals.MatchBits(p.Phase), 0)
	}
	return nil
}

// BcastStart begins distributing rank 0's buf down the tree (the TGroup
// tree is rooted at 0). Non-root members pre-arm their forwards — data
// arrival (counted after the payload is visible) fires the fan-out to
// their children with no host copy in between.
func (t *TGroup) BcastStart(buf []byte) error {
	if len(buf) > t.cfg.MaxMsg {
		return fmt.Errorf("coll: message %d exceeds MaxMsg %d", len(buf), t.cfg.MaxMsg)
	}
	g := t.bc.start(len(buf))
	if err := t.bcWindow(g); err != nil {
		return err
	}
	src, off := slot(t.bcStage, t.cfg.MaxMsg, g, len(buf))
	at := g
	if t.rank == 0 {
		// The root's sends are host-initiated by nature — it is the data
		// source. startPut copies synchronously, so buf is free on return.
		src, at = buf, 0
	}
	return t.send(t.down, src, t.ctBSent, mbBcData, off, t.ctBc, at)
}

// BcastWait blocks for the payload (non-root) and copies it into buf.
func (t *TGroup) BcastWait(buf []byte) error {
	g, err := t.bc.wait(len(buf))
	if err != nil || t.rank == 0 {
		return err
	}
	if err := t.wait(t.ctBc, g, "bcast"); err != nil {
		return err
	}
	src, _ := slot(t.bcStage, t.cfg.MaxMsg, g, len(buf))
	copy(buf, src)
	if t.nc > 0 {
		// Forwards have read the slot once their send counter crosses.
		return t.wait(t.ctBSent, g*t.nc, "bcast forwards")
	}
	return nil
}

// Bcast distributes rank 0's buf to every member.
func (t *TGroup) Bcast(buf []byte) error {
	if err := t.BcastStart(buf); err != nil {
		return err
	}
	return t.BcastWait(buf)
}

// Close frees the group's counting events, discarding any still-armed
// triggered operations without firing them (the unlink-while-armed
// contract of CTFree). Persistent match entries and the signalling
// descriptor are released with the interface.
func (t *TGroup) Close() error {
	var first error
	for _, ct := range t.counters() {
		if err := t.ni.CTFree(*ct); err != nil && first == nil {
			first = err
		}
	}
	return first
}
