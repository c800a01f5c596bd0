package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/portals"
)

// E7 — §2 cites "a high-performance collective communication library
// implemented directly on Portals" underneath Puma MPI. This experiment
// compares collectives built directly on Portals (internal/coll:
// persistent pre-armed entries, no tag matching, no unexpected copies,
// no rendezvous) against the same operations layered over MPI
// send/recv.

// CollPoint is one row of the ablation.
type CollPoint struct {
	Procs        int
	Op           string
	DirectPerOp  time.Duration
	OverMPIPerOp time.Duration
	Speedup      float64
}

// CollAblation times iters barriers and allreduces (vector length vec)
// for a job of n processes on the given fabric, both ways.
func CollAblation(fab portals.Fabric, n, iters, vec int) ([]CollPoint, error) {
	direct, err := timeDirect(fab, n, iters, vec)
	if err != nil {
		return nil, fmt.Errorf("direct: %w", err)
	}
	over, err := timeOverMPI(fab, n, iters, vec)
	if err != nil {
		return nil, fmt.Errorf("over-mpi: %w", err)
	}
	out := make([]CollPoint, 0, 2)
	for _, op := range []string{"barrier", "allreduce"} {
		p := CollPoint{Procs: n, Op: op, DirectPerOp: direct[op], OverMPIPerOp: over[op]}
		if p.DirectPerOp > 0 {
			p.Speedup = float64(p.OverMPIPerOp) / float64(p.DirectPerOp)
		}
		out = append(out, p)
	}
	return out, nil
}

func timeDirect(fab portals.Fabric, n, iters, vec int) (map[string]time.Duration, error) {
	m := portals.NewMachine(fab)
	defer m.Close()
	nis, err := m.LaunchJob(n)
	if err != nil {
		return nil, err
	}
	ids := make([]portals.ProcessID, n)
	for r, ni := range nis {
		ids[r] = ni.ID()
	}
	groups := make([]*coll.Group, n)
	for r, ni := range nis {
		g, err := coll.NewGroup(ni, r, ids, coll.Config{MaxVec: vec})
		if err != nil {
			return nil, err
		}
		groups[r] = g
	}
	res := map[string]time.Duration{}

	run := func(name string, f func(g *coll.Group) error) error {
		errs := make([]error, n)
		var wg sync.WaitGroup
		start := time.Now()
		for r, g := range groups {
			wg.Add(1)
			go func(r int, g *coll.Group) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := f(g); err != nil {
						errs[r] = err
						return
					}
				}
			}(r, g)
		}
		wg.Wait()
		res[name] = time.Since(start) / time.Duration(iters)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	if err := run("barrier", func(g *coll.Group) error { return g.Barrier() }); err != nil {
		return nil, err
	}
	if err := run("allreduce", func(g *coll.Group) error {
		v := make([]float64, vec)
		return g.Allreduce(v, coll.Sum)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// E15 — the offload thesis taken to its conclusion: collectives whose whole
// progression is NIC-resident (internal/coll.TGroup, triggered operations
// armed against counting events) versus the same operations driven by host
// code (coll.Group). Each rank starts the collective, burns CPU making no
// library calls, then waits. With the chain offloaded the collective
// progresses on the delivery lanes DURING the burn, so per-op time tends
// to max(burn, latency); the host-driven one cannot progress until the
// burn ends, so it pays burn + latency. The gap — Hidden — is the latency
// the offload buries under compute interference.

// OffloadPoint is one row of the offloaded-vs-host-driven comparison.
type OffloadPoint struct {
	Procs int
	Op    string        // "barrier" or "allreduce"
	Burn  time.Duration // per-iteration compute burn (0 = bare latency)
	// Offloaded is per-op wall time for Start / burn / Wait on a TGroup.
	Offloaded time.Duration
	// Host is per-op wall time for burn-then-collective on a coll.Group.
	Host time.Duration
	// Hidden = Host − Offloaded: collective latency overlapped with compute.
	Hidden time.Duration
}

// OffloadConfig parameterizes RunOffload. Zero fields take defaults.
type OffloadConfig struct {
	Iters int // repetitions per op (default 8)
	Vec   int // allreduce vector length (default 8)
	Lanes int // delivery lanes per node (default 1: one simulated NIC engine)
	// Metrics, when non-nil, receives every layer's counters from each
	// measurement machine — including portals_trig_armed/fired_total, the
	// offload's footprint.
	Metrics *metrics.Registry
}

func (c OffloadConfig) withDefaults() OffloadConfig {
	if c.Iters <= 0 {
		c.Iters = 8
	}
	if c.Vec <= 0 {
		c.Vec = 8
	}
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	return c
}

// burnSpan runs one compute burn bracketed by flight-recorder records so a
// trace capture shows what fired during it. With the triggered chain armed,
// lane-side trig-fire instants land INSIDE these spans — the evidence
// cmd/tracecheck -require-offload asserts.
func burnSpan(id portals.ProcessID, seq uint64, d time.Duration) {
	if d <= 0 {
		return
	}
	trace.Record(trace.StageAppBurnStart, uint32(id.NID), uint32(id.PID), seq, uint64(d))
	spin(d, 0, nil)
	trace.Record(trace.StageAppBurnEnd, uint32(id.NID), uint32(id.PID), seq, 0)
}

// RunOffload measures one (procs, burn) cell for both ops, both ways.
func RunOffload(fab portals.Fabric, procs int, burn time.Duration, cfg OffloadConfig) ([]OffloadPoint, error) {
	cfg = cfg.withDefaults()
	fab = fab.WithLanes(cfg.Lanes)
	off, err := timeOffloaded(fab, procs, burn, cfg)
	if err != nil {
		return nil, fmt.Errorf("offloaded: %w", err)
	}
	host, err := timeHostDriven(fab, procs, burn, cfg)
	if err != nil {
		return nil, fmt.Errorf("host-driven: %w", err)
	}
	out := make([]OffloadPoint, 0, 2)
	for _, op := range []string{"barrier", "allreduce"} {
		out = append(out, OffloadPoint{
			Procs: procs, Op: op, Burn: burn,
			Offloaded: off[op], Host: host[op], Hidden: host[op] - off[op],
		})
	}
	return out, nil
}

// checkSum verifies the result of allreduce iteration i over n ranks, in
// which rank r contributed r+i in every element.
func checkSum(v []float64, n, i int) error {
	want := float64(n*i + n*(n-1)/2)
	for k, x := range v {
		if x != want {
			return fmt.Errorf("allreduce iteration %d: element %d is %v, want %v", i, k, x, want)
		}
	}
	return nil
}

// runRanks times iters repetitions of step on n concurrent rank loops and
// returns the per-op average.
func runRanks(n, iters int, step func(r, i int) error) (time.Duration, error) {
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := step(r, i); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	per := time.Since(start) / time.Duration(iters)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return per, nil
}

func timeOffloaded(fab portals.Fabric, n int, burn time.Duration, cfg OffloadConfig) (map[string]time.Duration, error) {
	m := portals.NewMachine(fab)
	defer m.Close()
	nis, err := m.LaunchJob(n)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		m.RegisterMetrics(cfg.Metrics)
	}
	ids := make([]portals.ProcessID, n)
	for r, ni := range nis {
		ids[r] = ni.ID()
	}
	groups := make([]*coll.TGroup, n)
	for r, ni := range nis {
		tg, err := coll.NewTGroup(ni, r, ids, coll.Config{MaxVec: cfg.Vec})
		if err != nil {
			return nil, err
		}
		groups[r] = tg
	}
	// Burn spans are keyed (NID, PID, seq); the per-op seq offsets below
	// keep barrier and allreduce iterations on distinct trace spans.
	res := map[string]time.Duration{}
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, cfg.Vec)
	}
	res["barrier"], err = runRanks(n, cfg.Iters, func(r, i int) error {
		tg := groups[r]
		if err := tg.BarrierStart(); err != nil {
			return err
		}
		burnSpan(ids[r], uint64(i), burn)
		return tg.BarrierWait()
	})
	if err != nil {
		return nil, err
	}
	res["allreduce"], err = runRanks(n, cfg.Iters, func(r, i int) error {
		tg := groups[r]
		v := vecs[r]
		for k := range v {
			v[k] = float64(r + i)
		}
		if err := tg.AllreduceSumStart(v); err != nil {
			return err
		}
		burnSpan(ids[r], uint64(1_000_000+i), burn)
		if err := tg.AllreduceSumWait(v); err != nil {
			return err
		}
		return checkSum(v, n, i)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func timeHostDriven(fab portals.Fabric, n int, burn time.Duration, cfg OffloadConfig) (map[string]time.Duration, error) {
	m := portals.NewMachine(fab)
	defer m.Close()
	nis, err := m.LaunchJob(n)
	if err != nil {
		return nil, err
	}
	ids := make([]portals.ProcessID, n)
	for r, ni := range nis {
		ids[r] = ni.ID()
	}
	groups := make([]*coll.Group, n)
	for r, ni := range nis {
		g, err := coll.NewGroup(ni, r, ids, coll.Config{MaxVec: cfg.Vec})
		if err != nil {
			return nil, err
		}
		groups[r] = g
	}
	res := map[string]time.Duration{}
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, cfg.Vec)
	}
	res["barrier"], err = runRanks(n, cfg.Iters, func(r, i int) error {
		burnSpan(ids[r], uint64(2_000_000+i), burn)
		return groups[r].Barrier()
	})
	if err != nil {
		return nil, err
	}
	res["allreduce"], err = runRanks(n, cfg.Iters, func(r, i int) error {
		v := vecs[r]
		for k := range v {
			v[k] = float64(r + i)
		}
		burnSpan(ids[r], uint64(3_000_000+i), burn)
		if err := groups[r].Allreduce(v, coll.Sum); err != nil {
			return err
		}
		return checkSum(v, n, i)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// OffloadSweep runs the full grid — the paper-shaped experiment behind
// cmd/collbench and docs/PERF.md's offloaded-collectives table.
func OffloadSweep(fab portals.Fabric, procCounts []int, burns []time.Duration, cfg OffloadConfig) ([]OffloadPoint, error) {
	var out []OffloadPoint
	for _, n := range procCounts {
		for _, b := range burns {
			pts, err := RunOffload(fab, n, b, cfg)
			if err != nil {
				return nil, fmt.Errorf("procs=%d burn=%v: %w", n, b, err)
			}
			out = append(out, pts...)
		}
	}
	return out, nil
}

func timeOverMPI(fab portals.Fabric, n, iters, vec int) (map[string]time.Duration, error) {
	m := portals.NewMachine(fab)
	defer m.Close()
	w, err := mpi.NewWorld(m, n, mpi.Config{})
	if err != nil {
		return nil, err
	}
	res := map[string]time.Duration{}
	run := func(name string, f func(c *mpi.Comm) error) error {
		start := time.Now()
		err := w.Run(func(c *mpi.Comm) error {
			for i := 0; i < iters; i++ {
				if err := f(c); err != nil {
					return err
				}
			}
			return nil
		})
		res[name] = time.Since(start) / time.Duration(iters)
		return err
	}
	if err := run("barrier", func(c *mpi.Comm) error { return c.Barrier() }); err != nil {
		return nil, err
	}
	if err := run("allreduce", func(c *mpi.Comm) error {
		v := make([]float64, vec)
		return c.Allreduce(v, mpi.Sum)
	}); err != nil {
		return nil, err
	}
	return res, nil
}
