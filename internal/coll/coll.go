// Package coll implements collective operations DIRECTLY on Portals,
// without a point-to-point message layer in between — the approach of the
// high-performance collective communication library the paper cites (§2)
// for Puma MPI. Each algorithm — dissemination barrier, binomial bcast
// and reduce, recursive-doubling allreduce — is written once, as a
// schedule (schedule.go), and run by one of two executors, the two ends
// of experiment E15's comparison:
//
//   - Group (this file) is HOST-DRIVEN: Run executes each step on the
//     member's goroutine, so a collective's latency adds to whatever
//     compute the host is doing. mpi.Comm runs the same schedules the
//     same way over point-to-point messages.
//   - TGroup (triggered.go) is NIC-OFFLOADED: the triggered executor
//     turns the binomial tree schedules into pre-armed triggered-operation
//     chains over counting events (docs/PROTOCOL.md §6), progressing
//     entirely on the delivery lanes so a collective completes UNDER a
//     compute burn.
//
// Group design: every member arms PERSISTENT wildcard match entries at
// group creation (one per operation class), so collective traffic is
// never unexpected and never dropped. Incoming puts carry (operation,
// generation, phase) in their match bits; the library waits for exact
// bits via a small multiset of seen events, so arbitrarily interleaved
// rounds sort themselves out. Data-carrying operations write into
// remotely-managed staging slots, double-buffered by generation parity;
// generation skew between members is bounded to one by the algorithms'
// data dependencies (plus explicit credits for broadcast), so two slots
// per phase suffice. TGroup keeps the staging-slot scheme but replaces
// per-message match bits with anonymous arrivals onto monotone counters —
// triggered.go's preamble explains why that is safe.
//
// Compared with collectives over MPI send/recv, this path has no
// unexpected-message copies, no rendezvous handshakes, and no tag
// matching beyond the hardware walk — the ablation of experiment E7.
package coll

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/portals"
)

// ptlColl is the portal table index the library claims.
const ptlColl portals.PtlIndex = 4

// Operation classes (top nibble of the match bits).
const (
	opBarrier uint64 = 1
	opAllred  uint64 = 2
	opBcast   uint64 = 3
	opAck     uint64 = 4
)

func matchBits(op uint64, gen uint32, phase int) portals.MatchBits {
	return portals.MatchBits(op<<60 | uint64(gen)<<8 | uint64(phase&0xFF))
}

// Config sizes the persistent staging resources.
type Config struct {
	// MaxVec is the largest Allreduce vector (float64 elements).
	// Default 4096.
	MaxVec int
	// MaxMsg is the largest Bcast payload in bytes. Default 64 KB.
	MaxMsg int
}

func (c Config) withDefaults() Config {
	if c.MaxVec <= 0 {
		c.MaxVec = 4096
	}
	if c.MaxMsg <= 0 {
		c.MaxMsg = 64 * 1024
	}
	return c
}

// Group is one member's endpoint of a collective group. Calls must come
// from a single goroutine, in the same order on every member.
type Group struct {
	ni   *portals.NI
	rank int
	size int
	ids  []portals.ProcessID
	cfg  Config

	eq   portals.Handle
	seen map[portals.MatchBits]int
	gen  uint32
	link groupLink

	allreduce []Step     // this member's Allreduce schedule
	vec       VecScratch // Allreduce's encode and decode buffers

	arStage []byte // allreduce staging: phases × 2 gens × slot
	bcStage []byte // bcast staging: 2 gens × MaxMsg
	arSlot  int
	phases  int

	// Timeout bounds every internal wait; a peer that never arrives
	// surfaces as an error instead of a hang. Default 30s.
	Timeout time.Duration
}

// NewGroup arms rank's persistent collective resources. ids must be
// identical on every member.
func NewGroup(ni *portals.NI, rank int, ids []portals.ProcessID, cfg Config) (*Group, error) {
	if rank < 0 || rank >= len(ids) {
		return nil, fmt.Errorf("coll: rank %d out of range", rank)
	}
	cfg = cfg.withDefaults()
	g := &Group{
		ni: ni, rank: rank, size: len(ids),
		ids: append([]portals.ProcessID(nil), ids...),
		cfg: cfg, seen: make(map[portals.MatchBits]int),
		allreduce: RecursiveDoubling(rank, len(ids), 0),
		Timeout:   30 * time.Second,
	}
	// Phases: fold-in + ⌊log2⌋ doubling rounds + fold-out.
	g.phases = bits.Len(uint(g.size)) + 1
	g.arSlot = 8 * cfg.MaxVec
	g.arStage = make([]byte, g.phases*2*g.arSlot)
	g.bcStage = make([]byte, 2*cfg.MaxMsg)

	eq, err := ni.EQAlloc(4096)
	if err != nil {
		return nil, err
	}
	g.eq = eq

	for _, c := range []struct {
		op  uint64
		buf []byte
	}{{opBarrier, nil}, {opAllred, g.arStage}, {opBcast, g.bcStage}, {opAck, nil}} {
		// Persistent wildcard entry for the class: only the top nibble matches.
		me, err := ni.MEAttach(ptlColl, portals.AnyProcess, portals.MatchBits(c.op<<60), ^portals.MatchBits(0xF<<60), portals.Retain, portals.After)
		if err != nil {
			return nil, err
		}
		if _, err := ni.MDAttach(me, portals.MD{
			Start:     c.buf,
			Threshold: portals.ThresholdInfinite,
			Options:   portals.MDOpPut | portals.MDManageRemote | portals.MDTruncate,
			EQ:        eq,
		}, portals.Retain); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Rank and Size report group coordinates.
func (g *Group) Rank() int { return g.rank }
func (g *Group) Size() int { return g.size }

// put emits one collective message; send-side events are suppressed (no
// EQ on the descriptor) so the wait loop sees only arrivals.
func (g *Group) put(dst int, b portals.MatchBits, data []byte, offset uint64) error {
	md, err := g.ni.MDBind(portals.MD{Start: data, Threshold: 1}, portals.Unlink)
	if err != nil {
		return err
	}
	return g.ni.Put(md, portals.NoAckReq, g.ids[dst], ptlColl, 0, b, offset)
}

// waitBits consumes one arrival carrying exactly b, buffering others.
func (g *Group) waitBits(b portals.MatchBits) error {
	deadline := time.Now().Add(g.Timeout)
	for g.seen[b] == 0 {
		ev, err := g.ni.EQPoll(g.eq, time.Until(deadline))
		if errors.Is(err, portals.ErrEQEmpty) {
			return fmt.Errorf("coll: timed out waiting for %x", uint64(b))
		}
		if err != nil && !errors.Is(err, portals.ErrEQDropped) {
			return err
		}
		if ev.Type == portals.EventPut {
			g.seen[ev.MatchBits]++
		}
	}
	g.seen[b]--
	return nil
}

// groupLink is Group's link for the operation in flight: a put whose
// match bits carry (op, generation, phase) into the op's staging slot.
type groupLink struct {
	g     *Group
	op    uint64
	gen   uint32
	stage []byte
}

// begin opens the next generation of op on the link.
func (g *Group) begin(op uint64, stage []byte) *groupLink {
	g.link = groupLink{g: g, op: op, gen: g.gen, stage: stage}
	g.gen++
	return &g.link
}

// off is the staging offset for phase — identical layout on every member.
func (l *groupLink) off(phase int) int {
	par := int(l.gen % 2)
	switch l.op {
	case opAllred:
		return (par*l.g.phases + phase) * l.g.arSlot
	case opBcast:
		return par * l.g.cfg.MaxMsg
	}
	return 0
}

func (l *groupLink) Send(to, phase int, data []byte) error {
	return l.g.put(to, matchBits(l.op, l.gen, phase), data, uint64(l.off(phase)))
}

func (l *groupLink) Recv(from, phase int, data []byte) error {
	if err := l.g.waitBits(matchBits(l.op, l.gen, phase)); err != nil {
		return err
	}
	copy(data, l.stage[l.off(phase):])
	if l.op == opBcast {
		// Credit the parent: our slot for gen is drained.
		return l.g.put(from, matchBits(opAck, l.gen, 0), nil, 0)
	}
	return nil
}

// Barrier blocks until all members arrive (dissemination, zero-length
// puts into the persistent barrier entry).
func (g *Group) Barrier() error {
	return Run(g.begin(opBarrier, nil), Dissemination(g.rank, g.size, 0), nil, nil, nil)
}

// Allreduce combines vec across all members with op; every member ends
// with the result. Recursive doubling with fold-in/fold-out for
// non-power-of-two sizes.
func (g *Group) Allreduce(vec []float64, op Op) error {
	if len(vec) > g.cfg.MaxVec {
		return fmt.Errorf("coll: vector %d exceeds MaxVec %d", len(vec), g.cfg.MaxVec)
	}
	return RunVec(g.begin(opAllred, g.arStage), g.allreduce, vec, op, &g.vec)
}

// Bcast distributes root's buf to every member (binomial tree over the
// persistent broadcast slot, child credits bounding slot reuse).
func (g *Group) Bcast(buf []byte, root int) error {
	if len(buf) > g.cfg.MaxMsg {
		return fmt.Errorf("coll: message %d exceeds MaxMsg %d", len(buf), g.cfg.MaxMsg)
	}
	if root < 0 || root >= g.size {
		return fmt.Errorf("coll: root %d out of range", root)
	}
	l := g.begin(opBcast, g.bcStage)
	steps := BinomialBcast(g.rank, g.size, root)
	if err := Run(l, steps, buf, nil, nil); err != nil {
		return err
	}
	// Every child credits us once it has drained its slot.
	for i := sends(steps); i > 0; i-- {
		if err := g.waitBits(matchBits(opAck, l.gen, 0)); err != nil {
			return err
		}
	}
	return nil
}
