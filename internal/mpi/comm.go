package mpi

import (
	"fmt"

	"repro/internal/coll"
	"repro/portals"
)

// Config tunes the MPI protocol.
type Config struct {
	// EagerLimit is the largest message sent purely eagerly; longer
	// messages also bind their data for remote get (long protocol).
	// Default 32 KB.
	EagerLimit int
	// EQSlots sizes the communicator's event queue. Default 8192.
	EQSlots int
	// OverflowBuffers and OverflowSize shape the unexpected-message pool:
	// that many buffers of that many bytes each, rotated as they fill.
	// §4.1: this pool is sized by application behaviour, NOT by the
	// number of peers — the paper's contrast with VIA-style per-
	// connection buffering, measured in the memscale experiment.
	OverflowBuffers int
	OverflowSize    int
}

func (c Config) withDefaults() Config {
	if c.EagerLimit <= 0 {
		c.EagerLimit = 32 * 1024
	}
	if c.EQSlots <= 0 {
		c.EQSlots = 8192
	}
	if c.OverflowBuffers <= 0 {
		c.OverflowBuffers = 4
	}
	if c.OverflowSize <= 0 {
		c.OverflowSize = 256 * 1024
	}
	return c
}

// Status reports the outcome of a completed receive (or send).
type Status struct {
	// Source and Tag are the matched envelope (receives only).
	Source int
	Tag    int
	// Count is the number of bytes actually transferred.
	Count int
}

// overflowBuf tags the events of one overflow (unexpected-message) entry.
type overflowBuf struct {
	me   portals.Handle
	buf  []byte
	long bool
}

// uexRec is one unexpected message awaiting a matching receive, in
// arrival order.
type uexRec struct {
	src, tag int
	long     bool
	// Eager (and fixed-up) messages carry their data here; pure long
	// records carry only the read-portal sequence number k.
	data      []byte
	dataReady bool
	k         uint32
}

// cleanupTag marks events of fire-and-forget cleanup gets.
type cleanupTag struct{}

// Comm is a communicator: one rank's endpoint of a parallel job. It obeys
// MPI_THREAD_SINGLE: all calls on one Comm must come from one goroutine
// (the delivery engine is not bound by this — that is the whole point).
type Comm struct {
	ni   *portals.NI
	rank int
	size int
	ids  []portals.ProcessID
	ctx  uint16
	cfg  Config

	eq       portals.Handle
	sentinel portals.Handle // posted receives insert Before; overflow lives after

	unexpected    []*uexRec
	longRecvCount map[int]uint32 // long arrivals per source rank
	longSendCount []uint32       // long sends per destination rank

	armingReq *Request // receive being posted; overflow drain matches it

	collSeq   uint32          // collective-call sequence, advances identically on all ranks
	allreduce []coll.Step     // this rank's Allreduce schedule, built on first use
	vec       coll.VecScratch // Reduce/Allreduce encode and decode buffers

	fatalErr error
}

// New builds rank's communicator over an initialized Portals interface.
// ids maps rank → process identifier and must be identical on all ranks;
// ctx distinguishes communicators sharing an interface (15 bits).
func New(ni *portals.NI, rank int, ids []portals.ProcessID, ctx uint16, cfg Config) (*Comm, error) {
	if rank < 0 || rank >= len(ids) {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, len(ids))
	}
	if ctx > 0x7FFF {
		return nil, fmt.Errorf("mpi: context %d exceeds 15 bits", ctx)
	}
	c := &Comm{
		ni:            ni,
		rank:          rank,
		size:          len(ids),
		ids:           append([]portals.ProcessID(nil), ids...),
		ctx:           ctx,
		cfg:           cfg.withDefaults(),
		longRecvCount: make(map[int]uint32),
		longSendCount: make([]uint32, len(ids)),
	}
	eq, err := ni.EQAlloc(c.cfg.EQSlots)
	if err != nil {
		return nil, fmt.Errorf("mpi: %w", err)
	}
	c.eq = eq

	// The sentinel is a match entry with an empty MD list: address
	// translation always skips it (Figure 4 considers only entries whose
	// first descriptor accepts), so it is a pure position marker between
	// posted receives and overflow space.
	sentinel, err := ni.MEAttach(ptlMPI, portals.AnyProcess, 0, 0, portals.Retain, portals.After)
	if err != nil {
		return nil, fmt.Errorf("mpi: %w", err)
	}
	c.sentinel = sentinel

	for i := 0; i < c.cfg.OverflowBuffers; i++ {
		if err := c.addOverflowShort(); err != nil {
			return nil, err
		}
	}
	if err := c.addOverflowLong(); err != nil {
		return nil, err
	}
	return c, nil
}

// Rank and Size report this process's coordinates in the job.
func (c *Comm) Rank() int { return c.rank }
func (c *Comm) Size() int { return c.size }

// NI exposes the underlying Portals interface (for Status counters).
func (c *Comm) NI() *portals.NI { return c.ni }

// UnexpectedBytes reports memory currently held by unexpected-message
// records plus the overflow pool — the quantity the §4.1 memory-scaling
// experiment measures.
func (c *Comm) UnexpectedBytes() int {
	n := c.cfg.OverflowBuffers * c.cfg.OverflowSize
	for _, r := range c.unexpected {
		n += len(r.data)
	}
	return n
}

// addOverflowShort appends one eager unexpected buffer right after the
// sentinel. Its match entry accepts any envelope of this context with the
// long bit CLEAR; its descriptor appends messages at a locally-managed
// offset and rejects (falling through to the next buffer) when full.
func (c *Comm) addOverflowShort() error {
	ob := &overflowBuf{buf: make([]byte, c.cfg.OverflowSize)}
	me, err := c.ni.MEInsert(c.sentinel, portals.AnyProcess,
		encBits(false, c.ctx, 0, 0), ^(longBit | ctxMask), portals.Unlink, portals.After)
	if err != nil {
		return fmt.Errorf("mpi: overflow: %w", err)
	}
	ob.me = me
	_, err = c.ni.MDAttach(me, portals.MD{
		Start:     ob.buf,
		Threshold: portals.ThresholdInfinite,
		Options:   portals.MDOpPut,
		EQ:        c.eq,
		UserPtr:   ob,
	}, portals.Unlink)
	if err != nil {
		return fmt.Errorf("mpi: overflow: %w", err)
	}
	return nil
}

// addOverflowLong appends the envelope-only entry for long-protocol puts:
// a zero-length truncating descriptor, so the engine records (src, tag,
// length) and discards the data — which stays bound at the sender for the
// eventual get.
func (c *Comm) addOverflowLong() error {
	ob := &overflowBuf{long: true}
	me, err := c.ni.MEAttach(ptlMPI, portals.AnyProcess,
		encBits(true, c.ctx, 0, 0), ^(longBit | ctxMask), portals.Retain, portals.After)
	if err != nil {
		return fmt.Errorf("mpi: overflow-long: %w", err)
	}
	ob.me = me
	_, err = c.ni.MDAttach(me, portals.MD{
		Start:     nil,
		Threshold: portals.ThresholdInfinite,
		Options:   portals.MDOpPut | portals.MDTruncate,
		EQ:        c.eq,
		UserPtr:   ob,
	}, portals.Retain)
	if err != nil {
		return fmt.Errorf("mpi: overflow-long: %w", err)
	}
	return nil
}

// rotateOverflow retires a nearly-full eager buffer and arms a fresh one.
// Unexpected records keep referencing the old buffer's memory; it is
// reclaimed by GC once the records are consumed (the Go analogue of the
// Cplant implementation's buffer ring).
func (c *Comm) rotateOverflow(ob *overflowBuf, usedEnd uint64) {
	if int(usedEnd)+c.cfg.EagerLimit <= len(ob.buf) {
		return // still room for the largest eager message
	}
	_ = c.ni.MEUnlink(ob.me) // already gone is fine
	if err := c.addOverflowShort(); err != nil && c.fatalErr == nil {
		c.fatalErr = err
	}
}
