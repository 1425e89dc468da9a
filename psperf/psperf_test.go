package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"peerstripe"
	"peerstripe/internal/core"
	"peerstripe/internal/telemetry"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, limit, want int }{
		{0, 99, 50}, {39, 99, 50}, {40, 99, 75}, {99, 99, 75}, {100, 99, 90},
		{199, 99, 90}, {200, 99, 95}, {999, 99, 95}, {1000, 99, 99}, {50000, 99, 99},
		{50000, 95, 95}, {150, 90, 90}, {5000, 90, 90}, {60, 90, 75},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %d) = %d, want %d", c.n, c.limit, got, c.want)
		}
		// The rule itself: at least ten samples lie beyond the
		// chosen percentile whenever it is a ladder rung.
		if p := tailPercentile(c.n, c.limit); p != 50 && c.n*(100-p) < 1000 {
			t.Errorf("n=%d: p%d leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestParseTextSumCount(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("x_seconds", "test latency")
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(int64(d))
	}
	lab := reg.Histogram("y_seconds", "labeled latency", "op", "fetch")
	lab.Observe(int64(100 * time.Microsecond))
	reg.Counter("z_total", "a counter", "op", "fetch").Add(7)
	reg.Counter("z_total", "a counter", "op", "store").Add(5)
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	m, err := parseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["x_seconds_count"]; got != 3 {
		t.Errorf("x_seconds_count = %v, want 3", got)
	}
	if got := m["x_seconds_sum"]; math.Abs(got-0.006)/0.006 > 0.07 {
		t.Errorf("x_seconds_sum = %v, want 0.006 within one bucket width", got)
	}
	if got := m.family("x_seconds_bucket"); got != 3 {
		t.Errorf("per-bucket counts sum to %v, want 3", got)
	}
	if got := m.quantile("x_seconds", "", 0.5); math.Abs(got-0.002)/0.002 > 0.07 {
		t.Errorf("median = %v, want 0.002 within one bucket width", got)
	}
	if got := m.quantile("y_seconds", `op="fetch"`, 0.5); math.Abs(got-0.0001)/0.0001 > 0.07 {
		t.Errorf("labeled median = %v, want 0.0001", got)
	}
	if got := m.family("z_total"); got != 12 {
		t.Errorf("z_total family = %v, want 12", got)
	}

	// Deltas: observations made after a snapshot are exactly what the
	// difference of two parsed snapshots holds.
	h.Observe(int64(50 * time.Millisecond))
	buf.Reset()
	telemetry.WritePrometheus(&buf, reg) //nolint:errcheck
	m2, err := parseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := m2.sub(m)
	if got := d["x_seconds_count"]; got != 1 {
		t.Errorf("delta count = %v, want 1", got)
	}
	if got := d.quantile("x_seconds", "", 0.5); math.Abs(got-0.05)/0.05 > 0.07 {
		t.Errorf("delta median = %v, want 0.05", got)
	}
}

// TestParseNodeMetrics parses a live node's exposition and checks it
// against the counts the public Metrics snapshot reports.
func TestParseNodeMetrics(t *testing.T) {
	r, err := startRing()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	cl, err := peerstripe.Dial(context.Background(), r.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.StoreBytes(context.Background(), "parse-me", make([]byte, 100<<10)); err != nil {
		t.Fatal(err)
	}
	for _, n := range r.nodes {
		m, err := nodeMetrics(n)
		if err != nil {
			t.Fatal(err)
		}
		want := n.Metrics().Latencies["ps_node_handle_seconds"].Count
		if got := m["ps_node_handle_seconds_count"]; int64(got) < want {
			t.Errorf("node %s: handle count %v, public snapshot %d", n.ID(), got, want)
		}
		if m["ps_node_handle_seconds_sum"] <= 0 {
			t.Errorf("node %s: handle sum %v", n.ID(), m["ps_node_handle_seconds_sum"])
		}
	}
}

func TestContentRanges(t *testing.T) {
	whole := make([]byte, 1000)
	fill(whole, 42, 0)
	for _, c := range []struct{ off, n int }{{0, 1000}, {3, 17}, {8, 64}, {999, 1}, {5, 995}} {
		part := make([]byte, c.n)
		fill(part, 42, int64(c.off))
		if !bytes.Equal(part, whole[c.off:c.off+c.n]) {
			t.Errorf("fill at %d+%d differs from the whole content", c.off, c.n)
		}
		if !matches(whole[c.off:c.off+c.n], 42, int64(c.off), make([]byte, 7)) {
			t.Errorf("matches rejects the content at %d+%d", c.off, c.n)
		}
	}
	bad := append([]byte(nil), whole...)
	bad[500] ^= 1
	if matches(bad, 42, 0, make([]byte, 64)) {
		t.Error("matches accepts a flipped bit")
	}
	if contentKey(1, "a", 0) == contentKey(1, "a", 1) || contentKey(1, "a", 0) == contentKey(2, "a", 0) {
		t.Error("content keys collide across versions or seeds")
	}
}

// TestSeedDeterminism: one seed yields the same op sequences, and the
// fixed node names the same placement (TestPlacementModel checks the
// model against a live ring); another seed changes the sequences.
func TestSeedDeterminism(t *testing.T) {
	seq := func(seed int64) (out []any) {
		bo := &bulkOps{r: opStream(seed, 1), w: 1}
		ro := &rangedOps{r: opStream(seed, 0), w: 0}
		vi := &victims{r: opStream(seed, 0)}
		for i := 0; i < 200; i++ {
			out = append(out, bo.next(), ro.next(), vi.next())
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	same := func(x, y []any) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("one seed gave two op sequences")
	}
	if same(a, c) {
		t.Error("two seeds gave one op sequence")
	}

	puts := 0
	ro := &rangedOps{r: opStream(3, 1), w: 1}
	for i := 0; i < 10*rangedPutEvery; i++ {
		if op := ro.next(); op.put {
			puts++
		} else if op.off < 0 || op.off+rangedLen > rangedSize || op.obj/(rangedObjects/rangedWorkers) != 1 {
			t.Fatalf("ranged op %+v outside client 1's objects", op)
		}
	}
	if puts != 10 {
		t.Errorf("%d PUTs in %d ops, want one in %d", puts, 10*rangedPutEvery, rangedPutEvery)
	}
	stores, round := 0, 2*bulkSlots/bulkWorkers
	bo := &bulkOps{r: opStream(3, 0), w: 0}
	for i := 0; i < 10*round; i++ {
		op := bo.next()
		if op.store {
			stores++
		}
		if op.slot/(bulkSlots/bulkWorkers) != 0 {
			t.Fatalf("bulk op %+v outside worker 0's slots", op)
		}
	}
	if stores != 5*round {
		t.Errorf("%d stores in %d bulk ops, want half", stores, 10*round)
	}

	p1, err := (&ring{info: placementRing()}).place((&degraded{}).files(), degradedCode, catReplicas)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := (&ring{info: placementRing()}).place((&degraded{}).files(), degradedCode, catReplicas)
	if p1.colocated != p2.colocated || p1.chunks != p2.chunks {
		t.Error("one set of names gave two placements")
	}
	for v := range p1.lostIf {
		if len(p1.lostIf[v]) != len(p2.lostIf[v]) {
			t.Error("one set of names gave two loss models")
		}
	}
}

// TestPlacementModel checks the placement model against where a live
// ring actually puts blocks and CAT replicas.
func TestPlacementModel(t *testing.T) {
	r, err := startRing()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	cl, err := peerstripe.Dial(context.Background(), r.addrs[0], peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	files := map[string]int{}
	for _, name := range []string{"pm-a", "pm-b", "pm-c"} {
		info, err := cl.StoreBytes(context.Background(), name, make([]byte, 200<<10))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = info.Chunks
	}
	want := make([]int, ringSize)
	for name, chunks := range files {
		for ci := 0; ci < chunks; ci++ {
			for e := 0; e < 3; e++ {
				want[r.owner(core.BlockName(name, ci, e))]++
			}
		}
		for rep := 0; rep <= catReplicas; rep++ {
			want[r.owner(core.ReplicaName(core.CATName(name), rep))]++
		}
	}
	for i, n := range r.nodes {
		if n.Blocks() != want[i] {
			t.Errorf("node %s holds %d blocks, placement model says %d", nodeNames[i], n.Blocks(), want[i])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(specs))
	}
	for _, w := range spec.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if strings.ContainsAny(m.Name, " /") {
			t.Errorf("per-layer metric name %q", m.Name)
		}
	}
}
