// Command perfbench is the repository benchmark. It runs one workload
// through the public portals API and the exported functions of
// internal/mpi and internal/coll, checks the workload's outputs, and
// prints its metrics as the last line of standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, from a
// run with no tracing. With --trace 1 it prints the per-layer metrics: it
// runs the workload untraced for half of --seconds, then again with every
// call into a layer timed from outside (tracer.go), and reports the
// difference between the two as the tracing overhead.
//
// The workloads and why each was chosen:
//
//   - pingpong: the fixed per-message cost of the whole software path,
//     with nothing amortized (pingpong.go).
//   - swarm: the match index, handle tables, lane dispatch and the ack
//     path over a working set larger than the last-level cache
//     (swarm.go).
//   - bulk-udp: rtscts packetization and rendezvous, udp syscall
//     batching, payload copies and the buffer pool (bulkudp.go).
//   - collective: the mpi, coll and triggered-operation layers, one
//     allreduce executor each (collective.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one printed metric and its unit. The lists below must
// equal the end_to_end and per_layer lists of BENCHMARK.json; the
// self-test compares them.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"goodput_MBps", "MB/s"},
	{"allocs_per_op", "count"},
	{"heap_MB", "MB"},
}

var perLayer = []metricSpec{
	{"portals.put_ns", "ns"},
	{"portals.get_ns", "ns"},
	{"portals.call_errors", "count"},
	{"portals.get_rtt_p50_us", "us"},
	{"eventq.wait_ns", "ns"},
	{"eventq.empty_poll_ratio", "ratio"},
	{"eventq.dropped", "count"},
	{"transport.send_ns", "ns"},
	{"transport.queue_wait_ns", "ns"},
	{"transport.batch_msgs", "count"},
	{"nicsim.handler_ns_per_msg", "ns"},
	{"nicsim.deliver_to_event_ns", "ns"},
	{"core.match_steps_per_walk", "count"},
	{"core.index_hit_ratio", "ratio"},
	{"core.copy_bytes_per_msg", "B"},
	{"core.drops", "count"},
	{"core.trig_fired_per_op", "count"},
	{"core.ct_incs_per_op", "count"},
	{"bufpool.hit_ratio", "ratio"},
	{"rtscts.retransmit_ratio", "ratio"},
	{"rtscts.dups", "count"},
	{"rtscts.rts_per_msg", "count"},
	{"rtscts.acks_per_msg", "count"},
	{"rtscts.srtt_us", "us"},
	{"rtscts.window_pkts", "count"},
	{"udp.datagrams_per_burst", "count"},
	{"udp.datagrams_per_msg", "count"},
	{"udp.tx_drops", "count"},
	{"mpi.msgs_per_allreduce", "count"},
	{"coll.host_msgs_per_allreduce", "count"},
	{"coll.offload_msgs_per_allreduce", "count"},
	{"mpi.allreduce_p50_us", "us"},
	{"coll.allreduce_host_p50_us", "us"},
	{"coll.allreduce_offload_p50_us", "us"},
	{"setup.per_endpoint_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.late_p99_us", "us"},
	{"lat.p90_us", "us"},
	{"lat.p99_us", "us"},
	{"lat.samples", "count"},
	{"lat.tail_pct", "%"},
	{"lat.tail_us", "us"},
	{"trace.overhead_pct", "%"},
	{"budget.rtt_ns", "ns"},
	{"budget.unattributed_ns", "ns"},
	{"budget.unattributed_share", "ratio"},
}

// workloads maps each --workload name to its constructor.
var workloads = map[string]func(seed int64) bench{
	"pingpong":   newPingpong,
	"swarm":      newSwarm,
	"bulk-udp":   newBulkUDP,
	"collective": newCollective,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pingpong, swarm, bulk-udp or collective")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload pingpong|swarm|bulk-udp|collective --seed N --seconds S --trace 0|1")
		return 2
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d %s\n",
		*name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.Version())
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(func() bench { return mk(*seed) }, window, stdout)
	} else {
		res, err = runUntraced(func() bench { return mk(*seed) }, window, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult checks that values holds exactly the specs' names.
func newResult(specs []metricSpec, values map[string]float64, attempted, failed int64, check error) (*result, error) {
	r := &result{
		Correct:   check == nil && failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		return nil, fmt.Errorf("measured %d metrics, want %d", len(values), len(specs))
	}
	return r, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sortedSamples holds per-operation latencies in ns, sorted ascending.
type sortedSamples []int64

func sortSamples(s []int64) sortedSamples {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pct is the nearest-rank q-quantile, 0 < q <= 1, in ns.
func (s sortedSamples) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

// tail is the highest percentile with at least ten samples beyond it.
func (s sortedSamples) tail() (pct, ns float64) {
	if len(s) <= 10 {
		return 0, 0
	}
	q := 1 - 10/float64(len(s))
	return 100 * q, s.pct(q)
}

func (s sortedSamples) describe(what string) string {
	tp, tv := s.tail()
	return fmt.Sprintf("%s: n=%d p50=%.2fus p90=%.2fus p95=%.2fus p99=%.2fus p%.6g=%.2fus (highest percentile with >=10 samples beyond)",
		what, len(s), s.pct(0.5)/1e3, s.pct(0.9)/1e3, s.pct(0.95)/1e3, s.pct(0.99)/1e3, tp, tv/1e3)
}
