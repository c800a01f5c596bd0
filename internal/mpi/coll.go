package mpi

import (
	"fmt"

	"repro/internal/coll"
)

// Collective operations implemented over the point-to-point layer with
// reserved tags (bit 30 set, outside the user tag space). All ranks must
// call each collective in the same order — the usual MPI contract — which
// keeps the per-communicator collective sequence numbers aligned.

// collTag builds a reserved tag for round r of the current collective.
func (c *Comm) collTag(r int) int {
	return 1<<30 | int(c.collSeq&0x3FFFFF)<<8 | (r & 0xFF)
}

// collLink carries the shared schedules (internal/coll) over the
// point-to-point layer: a schedule phase is the reserved tag's round.
type collLink Comm

func (l *collLink) Send(to, phase int, data []byte) error {
	c := (*Comm)(l)
	return c.Send(data, to, c.collTag(phase))
}

func (l *collLink) Recv(from, phase int, data []byte) error {
	c := (*Comm)(l)
	_, err := c.Recv(data, from, c.collTag(phase))
	return err
}

// collErr names the collective that failed.
func collErr(what string, err error) error {
	if err != nil {
		return fmt.Errorf("mpi: %s: %w", what, err)
	}
	return nil
}

// Barrier blocks until every rank has entered it (dissemination
// algorithm: ⌈log2 n⌉ rounds of pairwise token exchange).
func (c *Comm) Barrier() error {
	c.collSeq++
	return collErr("barrier", coll.Run((*collLink)(c), coll.Dissemination(c.rank, c.size, 0), []byte{1}, nil, nil))
}

// Bcast distributes root's buf to every rank (binomial tree).
func (c *Comm) Bcast(buf []byte, root int) error {
	if err := c.checkPeer(root, "root"); err != nil {
		return err
	}
	c.collSeq++
	return collErr("bcast", coll.Run((*collLink)(c), coll.BinomialBcast(c.rank, c.size, root), buf, nil, nil))
}

// Op combines two float64 vectors elementwise into dst.
type Op = coll.Op

// Built-in reduction operators.
var (
	Sum = coll.Sum
	Max = coll.Max
	Min = coll.Min
)

// Reduce combines every rank's vec with op; the result lands in root's
// vec (other ranks' vec is used as scratch and holds partial results).
// Binomial-tree reduction, ⌈log2 n⌉ rounds.
func (c *Comm) Reduce(vec []float64, op Op, root int) error {
	if err := c.checkPeer(root, "root"); err != nil {
		return err
	}
	c.collSeq++
	return collErr("reduce", coll.RunVec((*collLink)(c), coll.BinomialReduce(c.rank, c.size, root), vec, op, &c.vec))
}

// Allreduce leaves the combined vector on every rank: reduce to rank 0
// and broadcast back, as one schedule — a phase's reduce message goes up
// the tree, its broadcast message down, so the halves cannot mix.
func (c *Comm) Allreduce(vec []float64, op Op) error {
	c.collSeq++
	if c.allreduce == nil {
		c.allreduce = append(coll.BinomialReduce(c.rank, c.size, 0), coll.BinomialBcast(c.rank, c.size, 0)...)
	}
	return collErr("allreduce", coll.RunVec((*collLink)(c), c.allreduce, vec, op, &c.vec))
}

// Gather collects equal-sized blocks from every rank into root's out
// buffer (len(block)*size bytes), ordered by rank.
func (c *Comm) Gather(block []byte, out []byte, root int) error {
	if err := c.checkPeer(root, "root"); err != nil {
		return err
	}
	c.collSeq++
	if c.rank != root {
		return c.Send(block, root, c.collTag(0))
	}
	if len(out) < len(block)*c.size {
		return fmt.Errorf("mpi: gather buffer too small: %d < %d", len(out), len(block)*c.size)
	}
	reqs := make([]*Request, 0, c.size-1)
	for r := 0; r < c.size; r++ {
		if r == root {
			copy(out[r*len(block):], block)
			continue
		}
		req, err := c.Irecv(out[r*len(block):(r+1)*len(block)], r, c.collTag(0))
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return WaitAll(reqs...)
}

// Alltoall exchanges rank-sized blocks: rank i's block j lands in rank
// j's slot i. send and recv are size*block bytes.
func (c *Comm) Alltoall(send, recv []byte, block int) error {
	c.collSeq++
	if len(send) < block*c.size || len(recv) < block*c.size {
		return fmt.Errorf("mpi: alltoall buffers too small")
	}
	reqs := make([]*Request, 0, 2*c.size)
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			copy(recv[r*block:(r+1)*block], send[r*block:(r+1)*block])
			continue
		}
		req, err := c.Irecv(recv[r*block:(r+1)*block], r, c.collTag(0))
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		req, err := c.Isend(send[r*block:(r+1)*block], r, c.collTag(0))
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return WaitAll(reqs...)
}
