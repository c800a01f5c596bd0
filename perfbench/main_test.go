package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/loopback"
	"repro/internal/types"
)

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for n := range workloads {
		ours = append(ours, n)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, perfbench has %v", names, ours)
	}
	for _, c := range []struct {
		what  string
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", c.what, len(c.json), len(c.specs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.specs[i].name || m.Unit != c.specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)",
					c.what, i, m.Name, m.Unit, c.specs[i].name, c.specs[i].unit)
			}
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that it passes its own checks and prints exactly the metric
// names of BENCHMARK.json with their units.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	want := map[string][]struct{ Name, Unit string }{"0": b.EndToEnd, "1": b.PerLayer}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace}, &out, &errs)
			if code != 0 {
				t.Errorf("%s --trace %s: exit %d: %s\n%s", name, trace, code, errs.String(), out.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s --trace %s: last line: %v", name, trace, err)
				continue
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s --trace %s: %d metrics, want %d", name, trace, len(res.Metrics), len(want[trace]))
			}
			for _, m := range want[trace] {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s: got %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestBadUsageExits2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seconds", "1"},
		{"--workload", "pingpong", "--trace", "2"},
		{"--workload", "pingpong", "--seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestWrongAllreduceTripsCheck corrupts one executor's result on one rank
// in a live run; verify must report it.
func TestWrongAllreduceTripsCheck(t *testing.T) {
	c := newCollective(3).(*collective)
	if err := c.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.rounds(0, 4, new([coRanks]rankSamples)); err != nil {
		t.Fatal(err)
	}
	if err := c.verify(nil); err != nil {
		t.Fatalf("clean rounds: %v", err)
	}
	offload := c.run[2][1]
	c.run[2][1] = func(v []float64) error {
		err := offload(v)
		v[3]++
		return err
	}
	if err := c.rounds(4, 4, new([coRanks]rankSamples)); err != nil {
		t.Fatal(err)
	}
	if err := c.verify(nil); err == nil || !strings.Contains(err.Error(), "offload allreduce, rank 1") {
		t.Errorf("verify after a wrong result: %v", err)
	}
}

// TestDroppedAckTripsCheck: after a real bulk-udp pass, one ack that never
// arrived, or bytes the receiver never got, must fail verify.
func TestDroppedAckTripsCheck(t *testing.T) {
	u := newBulkUDP(5).(*bulkUDP)
	if err := u.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer u.close()
	var w window
	m, err := pass(u, nil, &w, 200*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	u.drv.acked--
	if err := u.verify(m); err == nil {
		t.Error("verify passed with an ack missing")
	}
	u.drv.acked++
	u.bytes++
	if err := u.verify(m); err == nil {
		t.Error("verify passed with a byte missing at the receiver")
	}
	u.bytes--
	if err := u.verify(m); err != nil {
		t.Errorf("verify of the untouched run: %v", err)
	}
}

// plainNet is a Network with neither batch delivery nor a BufSender
// endpoint.
type plainNet struct{}

type plainEndpoint struct{ nid types.NID }

func (plainNet) Attach(nid types.NID, h transport.Handler) (transport.Endpoint, error) {
	return plainEndpoint{nid}, nil
}
func (plainNet) Close() error                              { return nil }
func (plainEndpoint) Send(dst types.NID, msg []byte) error { return nil }
func (e plainEndpoint) LocalNID() types.NID                { return e.nid }
func (plainEndpoint) Close() error                         { return nil }

// TestDecoratorForwardsExactly: the traced fabric offers BatchNetwork and
// BufSender exactly when the wrapped one does, so tracing keeps nicsim on
// the same delivery and send paths.
func TestDecoratorForwardsExactly(t *testing.T) {
	for _, c := range []struct {
		name  string
		inner transport.Network
	}{{"loopback", loopback.New()}, {"plain", plainNet{}}} {
		wrapped := wrapNetwork(c.inner, newTracer())
		_, innerBatch := c.inner.(transport.BatchNetwork)
		_, batch := wrapped.(transport.BatchNetwork)
		if batch != innerBatch {
			t.Errorf("%s: BatchNetwork %v, wrapped network has it: %v", c.name, batch, innerBatch)
		}
		innerEP, err := c.inner.Attach(1, func(types.NID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := wrapped.Attach(2, func(types.NID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		_, innerBuf := innerEP.(transport.BufSender)
		if _, buf := ep.(transport.BufSender); buf != innerBuf {
			t.Errorf("%s: BufSender %v, wrapped endpoint has it: %v", c.name, buf, innerBuf)
		}
		_ = wrapped.Close() // test teardown
	}
}
