package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/transport/udp"
	"repro/portals"
)

// bulk-udp: two nodes on UDP() over 127.0.0.1 (the host's loopback
// interface, not a real link). One side puts with ack to the other with a
// bounded number in flight; in every run of four puts, one seeded position
// carries 256 KiB, above rtscts' 32 KiB eager limit so it goes by RTS/CTS
// rendezvous, and the other three carry 16 KiB, sent eagerly. The work
// falls on rtscts (packetization, window, acks, rendezvous), udp
// sendmmsg/recvmmsg batching, the payload copy and the buffer pool;
// matching and the event queue do almost nothing.
type bulkUDP struct {
	seed int64
	tr   *tracer
	m    *portals.Machine
	a, b *portals.NI
	drv  *ackDriver

	md     [2]portals.Handle // A's 16 KiB and 256 KiB sources
	src    [2][]byte
	dst    []byte // where every put lands on B
	order  []uint8
	sizeOf []uint8 // size index of each put by seq % len
	bytes  int64   // payload bytes sent, warm-up included
	lastSz uint8   // size index of the last put
}

const (
	buSmall  = 16 << 10
	buLarge  = 256 << 10
	buWindow = 4 // puts in flight
	buWarmup = 400
	buOrder  = 1 << 16
	buRing   = 1 << 10
	buBits   = portals.MatchBits(7)
)

var buSizes = [2]int{buSmall, buLarge}

func newBulkUDP(seed int64) bench { return &bulkUDP{seed: seed} }

func (u *bulkUDP) setupReps() int { return 51 }

func (u *bulkUDP) nis() []*portals.NI { return []*portals.NI{u.a, u.b} }

func (u *bulkUDP) machines() []*portals.Machine { return []*portals.Machine{u.m} }

func (u *bulkUDP) close() {
	if u.m != nil {
		_ = u.m.Close() // teardown; the run's results are already taken
	}
}

func (u *bulkUDP) setup(tr *tracer) error {
	u.tr = tr
	fab := portals.UDP()
	if tr != nil {
		fab = portals.CustomFabric("udp", wrapNetwork(udp.New(), tr))
	}
	u.m = portals.NewMachine(fab)
	var err error
	if u.a, err = u.m.NIInit(1, 1, portals.Limits{}); err != nil {
		return err
	}
	if u.b, err = u.m.NIInit(2, 1, portals.Limits{}); err != nil {
		return err
	}
	none := portals.InvalidHandle
	u.dst = make([]byte, buLarge)
	me, err := u.b.MEAttach(0, portals.AnyProcess, buBits, 0, portals.Retain, portals.After)
	if err != nil {
		return err
	}
	if _, err := u.b.MDAttach(me, portals.MD{Start: u.dst, Threshold: portals.ThresholdInfinite,
		Options: portals.MDOpPut | portals.MDManageRemote, EQ: none, CT: none}, portals.Retain); err != nil {
		return err
	}
	eq, err := u.a.EQAlloc(1024)
	if err != nil {
		return err
	}
	rnd := rand.New(rand.NewSource(u.seed))
	for i, n := range buSizes {
		u.src[i] = make([]byte, n)
		rnd.Read(u.src[i])
		if u.md[i], err = u.a.MDBind(portals.MD{Start: u.src[i], Threshold: portals.ThresholdInfinite,
			EQ: eq, CT: none}, portals.Retain); err != nil {
			return err
		}
	}
	u.order = make([]uint8, buOrder)
	for i := 0; i < buOrder; i += 4 {
		u.order[i+rnd.Intn(4)] = 1
	}
	u.sizeOf = make([]uint8, buRing)
	u.drv = newAckDriver(tr, u.a, eq, buRing)
	return nil
}

// put sends the next put of the seeded order. The first 8 bytes carry the
// put's seq, so every put's contents differ.
func (u *bulkUDP) put() error {
	seq := u.drv.sent + 1
	sz := u.order[seq%buOrder]
	binary.LittleEndian.PutUint64(u.src[sz], uint64(seq))
	if err := u.drv.put(u.md[sz], u.b.ID(), buBits, nanos()); err != nil {
		return err
	}
	u.sizeOf[seq%buRing] = sz
	u.lastSz = sz
	u.bytes += int64(buSizes[sz])
	return nil
}

// loop keeps buWindow puts in flight until n have been sent or, with
// n == 0, until the deadline, and returns the refused puts.
func (u *bulkUDP) loop(n int64, until int64) (failed int64, err error) {
	for start := u.drv.sent; ; {
		if n > 0 && u.drv.sent-start >= n || n == 0 && nanos() >= until {
			return failed, nil
		}
		for u.drv.inflight() < buWindow && (n == 0 || u.drv.sent-start < n) {
			if err := u.put(); err != nil {
				failed++
			}
		}
		if err := u.drv.wait(pollTimeout); err != nil {
			return failed, err
		}
	}
}

func (u *bulkUDP) warm() error {
	if _, err := u.loop(buWarmup, 0); err != nil {
		return err
	}
	return u.drv.settle()
}

func (u *bulkUDP) measure(w *window, d time.Duration) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	lat := make([]int64, 0, 1<<17)
	var acked, bytes int64
	w.open()
	t0 := nanos()
	mt := newMeter(t0, d)
	u.drv.onAck = func(seq uint64, l int64) {
		n := int64(buSizes[u.sizeOf[seq%buRing]])
		lat = append(lat, l)
		acked++
		bytes += n
		now := nanos()
		mt.add(now, 1, n)
		mt.addLat(now, l)
	}
	defer func() { u.drv.onAck = nil }()
	failed, err := u.loop(0, t0+int64(d))
	t1 := nanos()
	okAcked, okBytes := acked, bytes
	if err == nil {
		err = u.drv.settle()
	}
	w.close()
	if err != nil {
		return nil, err
	}
	secs := float64(t1-t0) / 1e9
	m.ops, m.failed = acked, failed
	m.rate, m.goodput = mt.rates()
	m.p50, m.p90, m.p99 = mt.latPct(0.50), mt.latPct(0.90), mt.latPct(0.99)
	m.lat = sortSamples(lat)
	m.notes = append(m.notes, fmt.Sprintf("%d puts acked in %.3fs, mean %.1f MB/s, median of %d slices %.1f MB/s, window %d",
		okAcked, secs, float64(okBytes)/secs/1e6, slices, m.goodput/1e6, buWindow))
	return m, nil
}

func (u *bulkUDP) verify(m *measurement) error {
	if err := u.drv.checkAcked(); err != nil {
		return err
	}
	st := u.b.Status()
	if st.RecvBytes != u.bytes || st.Dropped != 0 {
		return fmt.Errorf("receiver got %d of %d bytes sent, %d dropped", st.RecvBytes, u.bytes, st.Dropped)
	}
	want := crc32.ChecksumIEEE(u.src[u.lastSz])
	if got := crc32.ChecksumIEEE(u.dst[:buSizes[u.lastSz]]); got != want {
		return fmt.Errorf("last buffer checksum %08x, want %08x", got, want)
	}
	return nil
}
