package nicsim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport/loopback"
	"repro/internal/types"
)

// TestPerPairOrderingAcrossLanes is the §4.1 conformance stress test for
// the multi-lane engine: several initiators fire puts at two processes on
// one target node, choosing the destination at random and tagging each
// message's MatchBits with a per-(initiator, target) sequence number. At
// every lane count, each target must observe every initiator's sequence
// strictly ascending from zero — the lane hash pins a flow to one FIFO
// lane, so adding lanes must never reorder a pair. Run under -race in CI.
func TestPerPairOrderingAcrossLanes(t *testing.T) {
	const initiators = 4
	targetPIDs := []types.PID{10, 11}
	msgs := 200 // puts per initiator per iteration of the send loop
	if testing.Short() {
		msgs = 50
	}
	// 32 lanes overflow onBatch's 16-entry stack group table.
	for _, lanes := range []int{1, 2, 4, 8, 32} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			net := loopback.New()
			defer net.Close()

			// Target node: one NID, two processes, so the lane hash has to
			// separate flows by PID as well as by source NID.
			tn, err := NewNode(net, 100, Config{Lanes: lanes})
			if err != nil {
				t.Fatal(err)
			}
			defer tn.Close()
			eqs := make(map[types.PID]types.Handle)
			states := make(map[types.PID]*core.State)
			for _, pid := range targetPIDs {
				s := core.NewState(types.ProcessID{NID: 100, PID: pid}, types.Limits{}, nil, nil)
				if err := tn.AddProcess(pid, s); err != nil {
					t.Fatal(err)
				}
				eq, err := s.EQAlloc(initiators*msgs*2 + 8)
				if err != nil {
					t.Fatal(err)
				}
				me, err := s.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, 0, ^types.MatchBits(0), types.Retain, types.After)
				if err != nil {
					t.Fatal(err)
				}
				sink := make([]byte, 4096)
				if _, err := s.MDAttach(me, core.MD{Start: sink, Threshold: types.ThresholdInfinite, Options: types.MDOpPut | types.MDManageRemote | types.MDTruncate, EQ: eq}, types.Retain); err != nil {
					t.Fatal(err)
				}
				eqs[pid] = eq
				states[pid] = s
			}

			// Initiator nodes: distinct NIDs so flows differ in both hash
			// inputs. Each sends msgs*len(targetPIDs) puts, picking the
			// target at random, MatchBits = that pair's next sequence number.
			sent := make([]map[types.PID]uint64, initiators)
			var wg sync.WaitGroup
			for i := 0; i < initiators; i++ {
				node, err := NewNode(net, types.NID(i+1), Config{Lanes: lanes})
				if err != nil {
					t.Fatal(err)
				}
				defer node.Close()
				s := core.NewState(types.ProcessID{NID: types.NID(i + 1), PID: 1}, types.Limits{}, nil, nil)
				if err := node.AddProcess(1, s); err != nil {
					t.Fatal(err)
				}
				md, err := s.MDBind(core.MD{Start: []byte("seq"), Threshold: types.ThresholdInfinite}, types.Retain)
				if err != nil {
					t.Fatal(err)
				}
				sent[i] = make(map[types.PID]uint64)
				wg.Add(1)
				go func(i int, node *Node, s *core.State, md types.Handle) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(lanes*1000 + i)))
					for k := 0; k < msgs*len(targetPIDs); k++ {
						pid := targetPIDs[rng.Intn(len(targetPIDs))]
						bits := types.MatchBits(sent[i][pid])
						out, err := s.StartPut(md, types.NoAckReq, types.ProcessID{NID: 100, PID: pid}, 0, 0, bits, 0)
						if err != nil {
							t.Errorf("initiator %d: StartPut: %v", i, err)
							return
						}
						if err := node.Send(out); err != nil {
							t.Errorf("initiator %d: Send: %v", i, err)
							return
						}
						sent[i][pid]++
					}
				}(i, node, s, md)
			}
			wg.Wait()

			// Drain both event queues: per (target, initiator) the tags must
			// be exactly 0,1,2,... in arrival order.
			for _, pid := range targetPIDs {
				expect := uint64(0)
				for i := range sent {
					expect += sent[i][pid]
				}
				next := make(map[types.NID]uint64)
				for got := uint64(0); got < expect; got++ {
					ev, err := states[pid].EQPoll(eqs[pid], 20*time.Second)
					if err != nil {
						t.Fatalf("target %d: event %d/%d: %v", pid, got, expect, err)
					}
					want := next[ev.Initiator.NID]
					if uint64(ev.MatchBits) != want {
						t.Fatalf("target %d: initiator %d out of order: got seq %d, want %d (lanes=%d)",
							pid, ev.Initiator.NID, ev.MatchBits, want, lanes)
					}
					next[ev.Initiator.NID] = want + 1
				}
			}
		})
	}
}
