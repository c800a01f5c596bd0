package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/metrics"
	"repro/portals"
)

const (
	// pollTimeout bounds each EQPoll wait, as the waits in mpi do.
	pollTimeout = 200 * time.Microsecond
	// hangAfter: an operation still incomplete after this long is a hang.
	hangAfter = 5 * time.Second
)

// bench is one workload. A bench is used once: set up, warmed, measured,
// verified and closed.
type bench interface {
	// setupReps is how many times an untraced run sets the workload up;
	// setup_s is the median.
	setupReps() int
	// setup builds the machines. tr is nil for an untraced run; otherwise
	// the fabric is wrapped with wrapNetwork and calls are timed through tr.
	setup(tr *tracer) error
	// nis lists the interfaces whose counters the layer metrics sum.
	nis() []*portals.NI
	// machines lists the machines whose fabric metrics (rtscts, udp) are
	// read through Machine.RegisterMetrics.
	machines() []*portals.Machine
	// warm runs untimed traffic and returns with every operation complete.
	warm() error
	// measure runs the timed traffic for d, opening and closing w around
	// it, and returns once every operation it started has completed.
	measure(w *window, d time.Duration) (*measurement, error)
	// verify checks the workload's outputs once the fabric is quiet.
	verify(m *measurement) error
	close()
}

// measurement is what one timed window produced.
type measurement struct {
	ops     int64   // operations completed inside the window
	failed  int64   // operations that returned an error or were refused
	rate    float64 // throughput, ops/s
	goodput float64 // payload bytes delivered per second
	p50     float64 // latency percentiles, ns (meter.latPct)
	p90     float64
	p99     float64
	lat     sortedSamples // every latency sample of the window
	// layer holds workload-specific per-layer values by metric name.
	layer map[string]float64
	notes []string
}

// window brackets the timed part of a run with memory statistics.
type window struct{ ms0, ms1 runtime.MemStats }

func (w *window) open() { runtime.ReadMemStats(&w.ms0) }

func (w *window) close() { runtime.ReadMemStats(&w.ms1) }

// slices is the number of equal slices a window is cut into. Throughput
// is the median of the slices' rates, and a latency percentile the median
// of the slices' percentiles, so that a stall in one slice moves neither
// as much as it would move a figure pooled over the whole window.
const slices = 10

// meter counts completions and latency samples per slice of a window.
type meter struct {
	start, step int64
	ops, bytes  [slices]int64
	lat         [slices][]int64
}

func newMeter(start int64, d time.Duration) *meter {
	return &meter{start: start, step: max(int64(d)/slices, 1)}
}

func (m *meter) slice(now int64) int {
	if m == nil || now < m.start || (now-m.start)/m.step >= slices {
		return -1
	}
	return int((now - m.start) / m.step)
}

// add counts ops completions carrying bytes of payload at time now.
// Completions outside the window are not counted, nor any on a nil meter.
func (m *meter) add(now, ops, bytes int64) {
	if i := m.slice(now); i >= 0 {
		m.ops[i] += ops
		m.bytes[i] += bytes
	}
}

// addLat records the latency of an operation that completed at now.
func (m *meter) addLat(now, lat int64) {
	if i := m.slice(now); i >= 0 {
		m.lat[i] = append(m.lat[i], lat)
	}
}

// rates returns the median slice rates in ops/s and bytes/s.
func (m *meter) rates() (ops, bytes float64) {
	med := func(x [slices]int64) float64 {
		s := x[:]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return float64(s[slices/2-1]+s[slices/2]) / 2 / (float64(m.step) / 1e9)
	}
	return med(m.ops), med(m.bytes)
}

// latPct returns the median over slices of each slice's q-quantile, in
// ns. A slice without samples stalled throughout; it counts as the
// largest latency seen.
func (m *meter) latPct(q float64) float64 {
	var worst int64
	for _, l := range m.lat {
		for _, x := range l {
			worst = max(worst, x)
		}
	}
	var per [slices]float64
	for i, l := range m.lat {
		per[i] = float64(worst)
		if len(l) > 0 {
			per[i] = sortSamples(l).pct(q)
		}
	}
	sort.Float64s(per[:])
	return (per[slices/2-1] + per[slices/2]) / 2
}

// setupOnce builds a bench and reports how long setup took.
func setupOnce(mk func() bench, tr *tracer) (bench, time.Duration, error) {
	runtime.GC()
	b := mk()
	t0 := time.Now()
	err := b.setup(tr)
	d := time.Since(t0)
	if err != nil {
		b.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return b, d, nil
}

// pass warms b, measures it for d and verifies it. The tracer, if any,
// restarts its counts when the window opens.
func pass(b bench, tr *tracer, w *window, d time.Duration, before, after *snapshot) (*measurement, error) {
	if err := b.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := quiesce(b); err != nil {
		return nil, err
	}
	if before != nil {
		before.read(b)
	}
	tr.reset()
	m, err := b.measure(w, d)
	if err != nil {
		return nil, err
	}
	if err := quiesce(b); err != nil {
		return nil, err
	}
	if after != nil {
		after.read(b)
	}
	if err := b.verify(m); err != nil {
		return m, err
	}
	return m, nil
}

// runUntraced sets the workload up setupReps times, keeps the last, and
// measures the end-to-end metrics over the whole window.
func runUntraced(mk func() bench, d time.Duration, out io.Writer) (*result, error) {
	var setups []float64
	var b bench
	for i, reps := 0, mk().setupReps(); i < reps; i++ {
		nb, took, err := setupOnce(mk, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < reps-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	defer b.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	var w window
	m, check := pass(b, nil, &w, d, nil, nil)
	if m == nil {
		return nil, check
	}
	writeNotes(out, m, check)
	sort.Float64s(setups)
	fmt.Fprintf(out, "setup: %d runs, median %.4fs, min %.4fs, max %.4fs\n",
		len(setups), setups[len(setups)/2], setups[0], setups[len(setups)-1])
	values := map[string]float64{
		"setup_s":       setups[len(setups)/2],
		"ops_per_s":     m.rate,
		"lat_p50_us":    m.p50 / 1e3,
		"goodput_MBps":  m.goodput / 1e6,
		"allocs_per_op": ratio(int64(w.ms1.Mallocs-w.ms0.Mallocs), m.ops),
		"heap_MB":       heapMB,
	}
	return newResult(endToEnd, values, m.ops+m.failed, m.failed, check)
}

// untracedLayer names the workload-specific per-layer values taken from
// the untraced half of a traced run, because they are latencies that
// tracing would inflate.
var untracedLayer = map[string]bool{
	"portals.get_rtt_p50_us":        true,
	"mpi.allreduce_p50_us":          true,
	"coll.allreduce_host_p50_us":    true,
	"coll.allreduce_offload_p50_us": true,
	"gen.late_p99_us":               true,
}

// runTraced measures the workload untraced and then traced, half of the
// window each, each on freshly set-up machines, and prints the per-layer
// metrics.
func runTraced(mk func() bench, d time.Duration, out io.Writer) (*result, error) {
	half := d / 2
	b, _, err := setupOnce(mk, nil)
	if err != nil {
		return nil, err
	}
	mu, check := pass(b, nil, new(window), half, nil, nil)
	b.close()
	if mu == nil {
		return nil, check
	}
	writeNotes(out, mu, check)
	if check != nil {
		return newResult(perLayer, zeroLayer(), mu.ops+mu.failed, mu.failed, check)
	}

	tr := newTracer()
	b, took, err := setupOnce(mk, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var wt window
	var before, after snapshot
	mt, check := pass(b, tr, &wt, half, &before, &after)
	if mt == nil {
		return nil, check
	}
	fmt.Fprintf(out, "traced pass:\n")
	writeNotes(out, mt, check)

	v := layerValues(tr.acc.Load(), &before, &after, mt)
	v["setup.per_endpoint_us"] = took.Seconds() * 1e6 / float64(len(b.nis()))
	v["runtime.gc_cycles"] = float64(wt.ms1.NumGC - wt.ms0.NumGC)
	v["runtime.gc_pause_ms"] = float64(wt.ms1.PauseTotalNs-wt.ms0.PauseTotalNs) / 1e6
	tp, tv := mu.lat.tail()
	v["lat.p90_us"] = mu.p90 / 1e3
	v["lat.p99_us"] = mu.p99 / 1e3
	v["lat.samples"] = float64(len(mu.lat))
	v["lat.tail_pct"] = tp
	v["lat.tail_us"] = tv / 1e3
	v["trace.overhead_pct"] = 100 * (mu.rate/mt.rate - 1)
	for k, x := range mt.layer {
		if !untracedLayer[k] {
			v[k] = x
		}
	}
	for k, x := range mu.layer {
		if untracedLayer[k] {
			v[k] = x
		}
	}
	fmt.Fprintf(out, "tracing overhead: %.0f ops/s untraced, %.0f ops/s traced, %+.1f%% time per op\n",
		mu.rate, mt.rate, v["trace.overhead_pct"])
	return newResult(perLayer, v, mt.ops+mt.failed, mt.failed, check)
}

func zeroLayer() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		v[s.name] = 0
	}
	return v
}

func writeNotes(out io.Writer, m *measurement, check error) {
	for _, n := range m.notes {
		fmt.Fprintln(out, n)
	}
	if len(m.lat) > 0 {
		fmt.Fprintln(out, m.lat.describe("latency"))
		fmt.Fprintf(out, "latency, median of %d slices: p50=%.2fus p90=%.2fus p99=%.2fus\n",
			slices, m.p50/1e3, m.p90/1e3, m.p99/1e3)
	}
	fmt.Fprintf(out, "ops: %d completed, %d failed\n", m.ops, m.failed)
	if check != nil {
		fmt.Fprintf(out, "CHECK FAILED: %v\n", check)
	}
}

// layerValues derives the per-layer metrics every workload reports from
// the tracer's spans and the counter deltas over the traced window. Layers
// a workload does not use read 0.
func layerValues(a *accum, before, after *snapshot, m *measurement) map[string]float64 {
	v := zeroLayer()
	v["portals.put_ns"] = a.put.mean()
	v["portals.get_ns"] = a.get.mean()
	v["portals.call_errors"] = float64(a.callErrors.Load())
	v["eventq.wait_ns"] = a.wait.mean()
	v["eventq.empty_poll_ratio"] = ratio(a.empty.Load(), a.eqCalls.Load())
	v["eventq.dropped"] = float64(a.dropped.Load())
	v["transport.send_ns"] = a.send.mean()
	qn := a.queueWait[0].n.Load() + a.queueWait[1].n.Load()
	qns := a.queueWait[0].ns.Load() + a.queueWait[1].ns.Load()
	v["transport.queue_wait_ns"] = ratio(qns, qn)
	v["transport.batch_msgs"] = ratio(a.batchedMsgs.Load(), a.batches.Load())
	v["nicsim.handler_ns_per_msg"] = ratio(a.handlerNs.Load(), a.batchedMsgs.Load())
	dn := a.deliverToEvent[0].n.Load() + a.deliverToEvent[1].n.Load()
	dns := a.deliverToEvent[0].ns.Load() + a.deliverToEvent[1].ns.Load()
	v["nicsim.deliver_to_event_ns"] = ratio(dns, dn)

	s := after.st.minus(before.st)
	v["core.match_steps_per_walk"] = ratio(s.MatchSteps, s.MatchWalks)
	v["core.index_hit_ratio"] = ratio(s.IndexHits, s.MatchWalks)
	v["core.copy_bytes_per_msg"] = ratio(s.CopyBytes, s.RecvMsgs)
	v["core.drops"] = float64(s.Dropped)
	v["core.trig_fired_per_op"] = ratio(s.TrigFired, m.ops)
	v["core.ct_incs_per_op"] = ratio(s.CTIncs, m.ops)
	v["bufpool.hit_ratio"] = ratio(s.PoolHits, s.PoolHits+s.PoolMisses)

	c := func(name string) int64 { return after.reg[name] - before.reg[name] }
	delivered := c("portals_rtscts_delivered_total")
	v["rtscts.retransmit_ratio"] = ratio(c("portals_rtscts_retransmits_total"), c("portals_udp_sent_total"))
	v["rtscts.dups"] = float64(c("portals_rtscts_dups_total"))
	v["rtscts.rts_per_msg"] = ratio(c("portals_rtscts_rts_total"), delivered)
	v["rtscts.acks_per_msg"] = ratio(c("portals_rtscts_acks_total"), delivered)
	v["rtscts.srtt_us"] = float64(after.srttMax) / 1e3
	v["rtscts.window_pkts"] = float64(after.windowMin)
	v["udp.datagrams_per_burst"] = ratio(c("portals_udp_sent_total"), c("portals_udp_send_bursts_total"))
	v["udp.datagrams_per_msg"] = ratio(c("portals_udp_sent_total"), delivered)
	v["udp.tx_drops"] = float64(c("portals_udp_tx_drops_total"))
	return v
}

// counts is the sum of the interface counters the layer metrics use.
type counts struct {
	RecvMsgs, SendMsgs, Acks, Replies, Dropped     int64
	CopyBytes, MatchWalks, MatchSteps, IndexHits   int64
	PoolHits, PoolMisses, CTIncs, TrigFired, Bytes int64
}

func sumStatus(nis []*portals.NI) counts {
	var c counts
	for _, ni := range nis {
		s := ni.Status()
		c.RecvMsgs += s.RecvMsgs
		c.SendMsgs += s.SendMsgs
		c.Acks += s.Acks
		c.Replies += s.Replies
		c.Dropped += s.Dropped
		c.CopyBytes += s.CopyBytes
		c.MatchWalks += s.MatchWalks
		c.MatchSteps += s.MatchSteps
		c.IndexHits += s.IndexHits
		c.PoolHits += s.PoolHits
		c.PoolMisses += s.PoolMisses
		c.CTIncs += s.CTIncs
		c.TrigFired += s.TrigFired
		c.Bytes += s.RecvBytes
	}
	return c
}

func (c counts) minus(o counts) counts {
	return counts{
		RecvMsgs: c.RecvMsgs - o.RecvMsgs, SendMsgs: c.SendMsgs - o.SendMsgs,
		Acks: c.Acks - o.Acks, Replies: c.Replies - o.Replies, Dropped: c.Dropped - o.Dropped,
		CopyBytes: c.CopyBytes - o.CopyBytes, MatchWalks: c.MatchWalks - o.MatchWalks,
		MatchSteps: c.MatchSteps - o.MatchSteps, IndexHits: c.IndexHits - o.IndexHits,
		PoolHits: c.PoolHits - o.PoolHits, PoolMisses: c.PoolMisses - o.PoolMisses,
		CTIncs: c.CTIncs - o.CTIncs, TrigFired: c.TrigFired - o.TrigFired, Bytes: c.Bytes - o.Bytes,
	}
}

// snapshot is one reading of every counter the layer metrics use.
type snapshot struct {
	st        counts
	reg       map[string]int64 // counter families summed over series
	srttMax   int64            // largest per-node smoothed RTT, ns
	windowMin int64            // most constricted per-node tx window
}

func (s *snapshot) read(b bench) {
	s.st = sumStatus(b.nis())
	s.reg, s.srttMax, s.windowMin = readRegistry(b.machines())
}

// readRegistry renders the machines' metrics and sums each counter
// family over its series. Histograms are skipped.
func readRegistry(ms []*portals.Machine) (sums map[string]int64, srttMax, windowMin int64) {
	sums = make(map[string]int64)
	if len(ms) == 0 {
		return sums, 0, 0
	}
	r := metrics.NewRegistry()
	for _, m := range ms {
		m.RegisterMetrics(r)
	}
	var buf bytes.Buffer
	_ = r.WriteText(&buf) // a bytes.Buffer write cannot fail
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count") {
			continue
		}
		x, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "portals_rtscts_srtt_ns":
			srttMax = max(srttMax, x)
		case "portals_rtscts_window_pkts":
			if x > 0 && (windowMin == 0 || x < windowMin) {
				windowMin = x
			}
		default:
			sums[name] += x
		}
	}
	return sums, srttMax, windowMin
}

// quiesce waits until the counters stop moving: three equal readings in
// a row, 2ms apart. It is called only once every operation the workload
// started has completed, so what it waits out is trailing protocol
// traffic (acks, triggered chains, retransmissions).
func quiesce(b bench) error {
	deadline := time.Now().Add(10 * time.Second)
	var last string
	same := 0
	for same < 3 {
		if time.Now().After(deadline) {
			return errors.New("counters did not settle within 10s")
		}
		time.Sleep(2 * time.Millisecond)
		c := sumStatus(b.nis())
		reg, _, _ := readRegistry(b.machines())
		fp := fmt.Sprint(c, reg["portals_udp_sent_total"], reg["portals_udp_received_total"],
			reg["portals_fabric_delivered_total"])
		if fp == last {
			same++
		} else {
			last, same = fp, 1
		}
	}
	return nil
}
