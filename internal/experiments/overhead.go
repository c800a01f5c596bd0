package experiments

import (
	"runtime"
	"time"

	"repro/internal/rtscts"
	"repro/internal/transport/simnet"
	"repro/portals"
)

// E12 — §5.1: "Portals are aimed at significantly reducing receive
// overhead, which has been shown to have a greater impact on application
// performance than latency and bandwidth." And §5.3: "the particular
// implementation of Portals 3.0 that we used for the above experiment is
// interrupt-driven, so it has the same drawbacks that an interrupt-driven
// implementation of MPI would have. However, the NIC-based implementation
// ... will address these limitations."
//
// This experiment quantifies that remark: a target process runs a
// calibrated compute loop while a peer streams messages into one of its
// pre-armed portals. Under the NIC-offload model the messages cost the
// host nothing beyond what the shared-CPU simulation inherently charges;
// under the host-interrupt model every message additionally burns the
// configured interrupt cost on the host CPU. The difference in compute
// slowdown is the receive overhead the MCP implementation removes.

// OverheadResult is one row of the receive-overhead table.
type OverheadResult struct {
	Model         portals.NICModel
	InterruptCost time.Duration
	// IdleCompute is the compute-loop time with no incoming traffic;
	// LoadedCompute the same loop while messages stream in.
	IdleCompute   time.Duration
	LoadedCompute time.Duration
	// SlowdownPct = (loaded-idle)/idle × 100.
	SlowdownPct float64
	// Messages delivered during the loaded run, and interrupts taken.
	Messages   int64
	Interrupts int64
}

// OverheadConfig parameterizes the experiment.
type OverheadConfig struct {
	// ComputeIters calibrates the compute loop (units of ~200 xor-shift
	// rounds with a yield, as in the Figure 5 work loop).
	ComputeIters int
	// MsgSize and MsgGap shape the incoming stream.
	MsgSize int
	MsgGap  time.Duration
}

// DefaultOverheadConfig gives a few-ms compute loop under a steady
// small-message stream.
func DefaultOverheadConfig() OverheadConfig {
	return OverheadConfig{ComputeIters: 30000, MsgSize: 1024, MsgGap: 20 * time.Microsecond}
}

// computeLoop is the calibrated host computation.
func computeLoop(iters int) time.Duration {
	start := time.Now()
	acc := uint64(1)
	for i := 0; i < iters; i++ {
		for k := 0; k < 200; k++ {
			acc ^= acc<<13 ^ acc>>7 ^ acc<<17
		}
		runtime.Gosched()
	}
	runtime.KeepAlive(acc)
	return time.Since(start)
}

// ReceiveOverhead measures compute slowdown under incoming traffic for
// one NIC model.
func ReceiveOverhead(model portals.NICModel, interruptCost time.Duration, cfg OverheadConfig) (OverheadResult, error) {
	if cfg.ComputeIters <= 0 {
		cfg = DefaultOverheadConfig()
	}
	fab := SimFabricFor(model, interruptCost)
	m := portals.NewMachine(fab)
	defer m.Close()
	rx, err := m.NIInit(1, 1, portals.Limits{})
	if err != nil {
		return OverheadResult{}, err
	}
	tx, err := m.NIInit(2, 1, portals.Limits{})
	if err != nil {
		return OverheadResult{}, err
	}
	// Pre-armed sink: no event queue, so event handling doesn't muddy the
	// overhead measurement; delivery is pure engine work.
	me, err := rx.MEAttach(0, portals.AnyProcess, 1, 0, portals.Retain, portals.After)
	if err != nil {
		return OverheadResult{}, err
	}
	if _, err := rx.MDAttach(me, portals.MD{
		Start:     make([]byte, cfg.MsgSize),
		Threshold: portals.ThresholdInfinite,
		Options:   portals.MDOpPut | portals.MDManageRemote | portals.MDTruncate,
	}, portals.Retain); err != nil {
		return OverheadResult{}, err
	}

	res := OverheadResult{Model: model, InterruptCost: interruptCost}
	res.IdleCompute = computeLoop(cfg.ComputeIters)

	// Stream messages while the target computes.
	stop := make(chan struct{})
	senderDone := make(chan error, 1)
	payload := make([]byte, cfg.MsgSize)
	md, err := tx.MDBind(portals.MD{Start: payload, Threshold: portals.ThresholdInfinite}, portals.Retain)
	if err != nil {
		return OverheadResult{}, err
	}
	streaming := make(chan struct{})
	go func() {
		for first := true; ; first = false {
			select {
			case <-stop:
				senderDone <- nil
				return
			default:
			}
			if err := tx.Put(md, portals.NoAckReq, rx.ID(), 0, 0, 1, 0); err != nil {
				senderDone <- err
				return
			}
			if first {
				close(streaming)
			}
			if cfg.MsgGap > 0 {
				time.Sleep(cfg.MsgGap)
			}
		}
	}()

	select {
	case <-streaming:
	case err := <-senderDone:
		return OverheadResult{}, err
	}
	res.LoadedCompute = computeLoop(cfg.ComputeIters)
	close(stop)
	if err := <-senderDone; err != nil {
		return OverheadResult{}, err
	}
	// Quiesce before reading the counters: until every message put has
	// been delivered or dropped they are torn — an interrupt taken for a
	// message whose delivery is not counted yet.
	sent := tx.Status().SendMsgs
	st := rx.Status()
	for deadline := time.Now().Add(5 * time.Second); st.RecvMsgs+st.Dropped < sent && time.Now().Before(deadline); st = rx.Status() {
		time.Sleep(time.Millisecond)
	}
	res.Messages = st.RecvMsgs
	res.Interrupts = st.Interrupts
	if res.IdleCompute > 0 {
		res.SlowdownPct = 100 * float64(res.LoadedCompute-res.IdleCompute) / float64(res.IdleCompute)
	}
	return res, nil
}

// SimFabricFor builds the standard Myrinet-class fabric with the given
// NIC processing model.
func SimFabricFor(model portals.NICModel, interruptCost time.Duration) portals.Fabric {
	return portals.SimFabric(simnet.Myrinet(), rtscts.DefaultConfig()).WithNIC(model, interruptCost)
}
