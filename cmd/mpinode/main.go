// Command mpinode runs one rank of a distributed MPI job, each rank in
// its own OS process, over the TCP reference transport — the whole stack
// (MPI → Portals → sockets) with nothing shared but the network.
//
//	mpinode -rank 0 -n 2 -addrs 127.0.0.1:9801,127.0.0.1:9802 &
//	mpinode -rank 1 -n 2 -addrs 127.0.0.1:9801,127.0.0.1:9802
//
// Every rank runs the same mini-application: a barrier, a ring exchange
// of payloads, and an allreduce whose result each rank verifies. Rank
// i's NID is i+1; -addrs lists the listen address of every rank in rank
// order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/portals"
)

func main() {
	rank := flag.Int("rank", 0, "this process's rank")
	n := flag.Int("n", 2, "total ranks")
	addrSpec := flag.String("addrs", "", "comma-separated listen addresses, one per rank")
	size := flag.Int("size", 64*1024, "ring payload bytes")
	rounds := flag.Int("rounds", 3, "application rounds")
	flag.Parse()

	addrs := strings.Split(*addrSpec, ",")
	if len(addrs) != *n {
		fmt.Fprintf(os.Stderr, "need %d addresses, got %d\n", *n, len(addrs))
		os.Exit(2)
	}
	if *rank < 0 || *rank >= *n {
		fmt.Fprintf(os.Stderr, "rank %d out of range\n", *rank)
		os.Exit(2)
	}

	selfNID := portals.NID(*rank + 1)
	peers := map[portals.NID]string{}
	ids := make([]portals.ProcessID, *n)
	for r := 0; r < *n; r++ {
		ids[r] = portals.ProcessID{NID: portals.NID(r + 1), PID: 1}
		if r != *rank {
			peers[portals.NID(r+1)] = addrs[r]
		}
	}

	m := portals.NewMachine(portals.TCPStatic(selfNID, addrs[*rank], peers))
	defer m.Close()
	ni, err := m.NIInit(selfNID, 1, portals.Limits{})
	if err != nil {
		fatal(err)
	}
	c, err := mpi.New(ni, *rank, ids, 1, mpi.Config{})
	if err != nil {
		fatal(err)
	}
	if err := wireUp(ni, *rank, ids); err != nil {
		fatal(err)
	}

	if err := app(c, *size, *rounds); err != nil {
		fatal(err)
	}
}

// ptlReady is the portal of the wire-up entry, clear of the indexes
// internal/mpi claims.
const ptlReady portals.PtlIndex = 8

// wireUp returns once every peer has its communicator armed. Until then a
// message can reach a peer before mpi.New has attached its match entries
// and be dropped for want of one (§4.8) — silently, so the job's first
// barrier would wait forever. Each rank exposes a ready entry once its
// communicator exists and gets every peer's, retrying until it answers.
func wireUp(ni *portals.NI, rank int, ids []portals.ProcessID) error {
	me, err := ni.MEAttach(ptlReady, portals.AnyProcess, 0, 0, portals.Retain, portals.After)
	if err != nil {
		return err
	}
	if _, err := ni.MDAttach(me, portals.MD{
		Start: []byte{1}, Threshold: portals.ThresholdInfinite, Options: portals.MDOpGet,
	}, portals.Retain); err != nil {
		return err
	}
	eq, err := ni.EQAlloc(64)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for r, id := range ids {
		for r != rank {
			if time.Now().After(deadline) {
				return fmt.Errorf("wire-up: rank %d never answered", r)
			}
			md, err := ni.MDBind(portals.MD{Start: make([]byte, 1), Threshold: 1, EQ: eq, UserPtr: r}, portals.Unlink)
			if err != nil {
				return err
			}
			if err := ni.Get(md, id, ptlReady, 0, 0, 0); err != nil {
				return err
			}
			// A reply may be a late one for an earlier peer; only r's counts.
			if ev, err := ni.EQPoll(eq, 100*time.Millisecond); err == nil && ev.Type == portals.EventReply && ev.UserPtr == r {
				break
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpinode:", err)
	os.Exit(1)
}

func app(c *mpi.Comm, size, rounds int) error {
	start := time.Now()
	if err := c.Barrier(); err != nil {
		return fmt.Errorf("startup barrier: %w", err)
	}
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	out := make([]byte, size)
	in := make([]byte, size)
	for i := range out {
		out[i] = byte(c.Rank())
	}
	for round := 0; round < rounds; round++ {
		if _, err := c.Sendrecv(out, next, round, in, prev, round); err != nil {
			return fmt.Errorf("round %d ring: %w", round, err)
		}
		if in[0] != byte(prev) || in[size-1] != byte(prev) {
			return fmt.Errorf("round %d: ring payload corrupted", round)
		}
		v := []float64{float64(c.Rank() + 1)}
		if err := c.Allreduce(v, mpi.Sum); err != nil {
			return fmt.Errorf("round %d allreduce: %w", round, err)
		}
		if want := float64(c.Size()*(c.Size()+1)) / 2; v[0] != want {
			return fmt.Errorf("round %d: allreduce %v, want %v", round, v[0], want)
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	fmt.Printf("rank %d/%d: %d rounds of %d-byte ring + allreduce OK in %v\n",
		c.Rank(), c.Size(), rounds, size, time.Since(start).Round(time.Millisecond))
	return nil
}
