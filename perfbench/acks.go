package main

import (
	"errors"
	"fmt"
	"time"

	"repro/portals"
)

// ackDriver is a single-goroutine initiator that puts with ack and closes
// each put against its ack. Its NI issues nothing but these puts, so the
// wire sequence numbers the acks carry run 1, 2, ... in put order.
type ackDriver struct {
	tr    *tracer
	ni    *portals.NI
	eq    portals.Handle
	sent  int64   // puts issued; put k carries wire seq k
	acked int64   // acks received
	due   []int64 // due time of each in-flight put, by seq % len
	// onAck, when set, receives each acked put's seq and its latency from
	// its due time.
	onAck func(seq uint64, lat int64)
}

func newAckDriver(tr *tracer, ni *portals.NI, eq portals.Handle, ring int) *ackDriver {
	return &ackDriver{tr: tr, ni: ni, eq: eq, due: make([]int64, ring)}
}

// put issues one put with ack, due at the given time. A refused put is
// not counted as sent.
func (d *ackDriver) put(md portals.Handle, target portals.ProcessID, bits portals.MatchBits, due int64) error {
	d.due[(d.sent+1)%int64(len(d.due))] = due
	c0 := d.tr.start()
	err := d.ni.Put(md, portals.AckReq, target, 0, 0, bits, 0)
	d.tr.putDone(c0, err)
	if err == nil {
		d.sent++
	}
	return err
}

func (d *ackDriver) inflight() int64 { return d.sent - d.acked }

func (d *ackDriver) handle(ev portals.Event) error {
	if ev.Type != portals.EventAck {
		return nil // EventSend
	}
	seq := int64(ev.MsgSeq)
	if seq < 1 || seq > d.sent || d.sent-seq >= int64(len(d.due)) {
		return fmt.Errorf("ack for put %d with %d sent", seq, d.sent)
	}
	d.acked++
	if d.onAck != nil {
		d.onAck(ev.MsgSeq, nanos()-d.due[seq%int64(len(d.due))])
	}
	return nil
}

// drain consumes every queued event without blocking.
func (d *ackDriver) drain() error {
	for {
		ev, err := d.tr.eqGet(d.ni, d.eq)
		if errors.Is(err, portals.ErrEQEmpty) {
			return nil
		}
		if err != nil {
			// ErrEQDropped included: the queue overran and lost an ack.
			return fmt.Errorf("event queue: %w", err)
		}
		if err := d.handle(ev); err != nil {
			return err
		}
	}
}

// wait blocks up to t for one event, then drains the rest.
func (d *ackDriver) wait(t time.Duration) error {
	ev, err := d.tr.poll(d.ni, d.eq, t)
	switch {
	case errors.Is(err, portals.ErrEQEmpty):
		return nil
	case err != nil:
		return fmt.Errorf("event queue: %w", err)
	}
	if err := d.handle(ev); err != nil {
		return err
	}
	return d.drain()
}

// settle waits for every outstanding ack.
func (d *ackDriver) settle() error {
	deadline := time.Now().Add(hangAfter)
	for d.acked < d.sent {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d puts unacked after %v", d.sent-d.acked, d.sent, hangAfter)
		}
		if err := d.wait(pollTimeout); err != nil {
			return err
		}
	}
	return nil
}

// checkAcked is the ack half of every put workload's output check.
func (d *ackDriver) checkAcked() error {
	if d.acked != d.sent {
		return fmt.Errorf("%d puts sent, %d acked", d.sent, d.acked)
	}
	return nil
}
