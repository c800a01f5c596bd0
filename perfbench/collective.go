package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/transport/loopback"
	"repro/portals"
)

// collective: 4 ranks on Loopback(), each a goroutine that blocks in
// waits. Each round, every rank runs an allreduce of 8 float64 through
// three executors in turn, each on its own Machine: mpi.Comm.Allreduce
// over point-to-point messages, coll.Group.Allreduce driven by the host,
// and coll.TGroup.AllreduceSum offloaded to triggered operations. There is
// no compute burn: on 2 CPUs spinning ranks would measure the scheduler.
// Without this workload the mpi, coll and counting-event/triggered-op
// layers go unmeasured.
type collective struct {
	seed  int64
	ms    [coExecs]*portals.Machine
	ni    [coExecs][]*portals.NI
	run   [coExecs][coRanks]func([]float64) error
	all   []*portals.NI
	wrong error // the first wrong allreduce result any rank saw
}

const (
	coRanks = 4
	coVec   = 8
	coExecs = 3 // mpi, host, offload
	// coBatch is how many rounds the ranks run between checks of the
	// clock; the ranks must agree on when to stop.
	coBatch  = 64
	coWarmup = 5 * coBatch
)

var coNames = [coExecs]string{"mpi", "host", "offload"}

func newCollective(seed int64) bench { return &collective{seed: seed} }

func (c *collective) setupReps() int { return 51 }

func (c *collective) nis() []*portals.NI { return c.all }

func (c *collective) machines() []*portals.Machine { return c.ms[:] }

func (c *collective) close() {
	for _, m := range c.ms {
		if m != nil {
			_ = m.Close() // teardown; the run's results are already taken
		}
	}
}

func (c *collective) setup(tr *tracer) error {
	for e := range c.ms {
		fab := portals.Loopback()
		if tr != nil {
			fab = portals.CustomFabric("loopback", wrapNetwork(loopback.New(), tr))
		}
		c.ms[e] = portals.NewMachine(fab)
	}
	w, err := mpi.NewWorld(c.ms[0], coRanks, mpi.Config{})
	if err != nil {
		return err
	}
	for r := 0; r < coRanks; r++ {
		comm := w.Comm(r)
		c.ni[0] = append(c.ni[0], comm.NI())
		c.run[0][r] = func(v []float64) error { return comm.Allreduce(v, mpi.Sum) }
	}
	for e := 1; e < coExecs; e++ {
		nis, err := c.ms[e].LaunchJob(coRanks)
		if err != nil {
			return err
		}
		c.ni[e] = nis
		ids := make([]portals.ProcessID, coRanks)
		for r, ni := range nis {
			ids[r] = ni.ID()
		}
		for r, ni := range nis {
			if e == 1 {
				g, err := coll.NewGroup(ni, r, ids, coll.Config{MaxVec: coVec})
				if err != nil {
					return err
				}
				c.run[e][r] = func(v []float64) error { return g.Allreduce(v, coll.Sum) }
			} else {
				g, err := coll.NewTGroup(ni, r, ids, coll.Config{MaxVec: coVec})
				if err != nil {
					return err
				}
				c.run[e][r] = g.AllreduceSum
			}
		}
	}
	for _, nis := range c.ni {
		c.all = append(c.all, nis...)
	}
	return nil
}

// input is rank r's vector element j in round k of executor e: a small
// integer, so every summation order gives the exact same float64 sum.
func (c *collective) input(k int64, e, r, j int) float64 {
	x := uint64(c.seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9 +
		uint64(e*coRanks*coVec+r*coVec+j)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86677A535
	x ^= x >> 29
	return float64(x % 1024)
}

// check compares a rank's allreduce result with the sum of every rank's
// input.
func (c *collective) check(k int64, e, r int, got []float64) error {
	for j := range got {
		var want float64
		for rr := 0; rr < coRanks; rr++ {
			want += c.input(k, e, rr, j)
		}
		if got[j] != want {
			return fmt.Errorf("round %d, %s allreduce, rank %d: element %d is %v, want %v",
				k, coNames[e], r, j, got[j], want)
		}
	}
	return nil
}

// rankSamples is what one rank measured, in ns: each executor's call
// durations and each round's total, and the first wrong result it saw.
type rankSamples struct {
	exec  [coExecs][]int64
	round []int64
	end   []int64 // when each round ended
	wrong error
}

// rounds runs rounds [from, from+n) on every rank and waits for them.
func (c *collective) rounds(from int64, n int, out *[coRanks]rankSamples) error {
	errs := make([]error, coRanks)
	var wg sync.WaitGroup
	for r := 0; r < coRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = c.rankRounds(r, from, n, &out[r])
		}(r)
	}
	wg.Wait()
	for r := range out {
		if c.wrong == nil {
			c.wrong = out[r].wrong
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *collective) rankRounds(r int, from int64, n int, s *rankSamples) error {
	vec := make([]float64, coVec)
	for k := from; k < from+int64(n); k++ {
		var total int64
		for e := 0; e < coExecs; e++ {
			for j := range vec {
				vec[j] = c.input(k, e, r, j)
			}
			t0 := nanos()
			if err := c.run[e][r](vec); err != nil {
				return fmt.Errorf("round %d, %s allreduce, rank %d: %w", k, coNames[e], r, err)
			}
			d := nanos() - t0
			// A wrong result does not stop the rank: the others would
			// block in the next allreduce waiting for it.
			if err := c.check(k, e, r, vec); err != nil && s.wrong == nil {
				s.wrong = err
			}
			s.exec[e] = append(s.exec[e], d)
			total += d
		}
		s.round = append(s.round, total)
		s.end = append(s.end, nanos())
	}
	return nil
}

func (c *collective) warm() error {
	var scratch [coRanks]rankSamples
	return c.rounds(0, coWarmup, &scratch)
}

func (c *collective) measure(w *window, d time.Duration) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	var samples [coRanks]rankSamples
	for r := range samples {
		for e := range samples[r].exec {
			samples[r].exec[e] = make([]int64, 0, 1<<17)
		}
		samples[r].round = make([]int64, 0, 1<<17)
		samples[r].end = make([]int64, 0, 1<<17)
	}
	var sent0 [coExecs]int64
	for e := range c.ni {
		sent0[e] = sumStatus(c.ni[e]).SendMsgs
	}
	k := int64(coWarmup)
	w.open()
	t0 := nanos()
	mt := newMeter(t0, d)
	for now := t0; now < t0+int64(d); now = nanos() {
		if err := c.rounds(k, coBatch, &samples); err != nil {
			return nil, err
		}
		k += coBatch
		mt.add(nanos(), coBatch*coExecs, coBatch*coExecs*coVec*8)
	}
	w.close()
	rounds := k - coWarmup
	m.ops = rounds * coExecs
	m.rate, m.goodput = mt.rates()
	var all []int64
	for r := range samples {
		all = append(all, samples[r].round...)
		for i, l := range samples[r].round {
			mt.addLat(samples[r].end[i], l)
		}
	}
	m.p50, m.p90, m.p99 = mt.latPct(0.50), mt.latPct(0.90), mt.latPct(0.99)
	m.lat = sortSamples(all)
	keys := [coExecs]string{"mpi.allreduce_p50_us", "coll.allreduce_host_p50_us", "coll.allreduce_offload_p50_us"}
	msgs := [coExecs]string{"mpi.msgs_per_allreduce", "coll.host_msgs_per_allreduce", "coll.offload_msgs_per_allreduce"}
	for e := range keys {
		var x []int64
		for r := range samples {
			x = append(x, samples[r].exec[e]...)
		}
		s := sortSamples(x)
		m.layer[keys[e]] = s.pct(0.5) / 1e3
		m.layer[msgs[e]] = ratio(sumStatus(c.ni[e]).SendMsgs-sent0[e], rounds)
		m.notes = append(m.notes, s.describe(coNames[e]+" allreduce"))
	}
	m.notes = append(m.notes, fmt.Sprintf("%d rounds of %d allreduces; latency is one round on one rank", rounds, coExecs))
	return m, nil
}

// verify reports the first wrong result: every rank checks every result
// of every executor as it returns.
func (c *collective) verify(m *measurement) error {
	if c.wrong != nil {
		return c.wrong
	}
	if st := sumStatus(c.all); st.Dropped != 0 {
		return fmt.Errorf("%d messages dropped", st.Dropped)
	}
	return nil
}
