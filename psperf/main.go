// Command psperf is PeerStripe's benchmark. It starts a 4-node ring in
// this process on loopback TCP, drives it through the public API —
// peerstripe.Dial, Store, Open, File.ReadAt, Repair and the gateway
// handler over HTTP — with at most two closed-loop clients, checks
// every byte read, and prints one result object as its last line.
//
//	psperf --workload bulk|ranged|degraded --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with alternating plain and peel windows and prints the
// per-layer metrics (see README.md). Run it through run.sh, which
// builds it from the checkout's sources.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"peerstripe"
	"peerstripe/internal/erasure"
)

// workload is one traffic mix on a freshly started ring.
type workload interface {
	// setup dials the client and stores the workload's objects.
	setup(b *bench) error
	// run drives the timed windows.
	run(b *bench) error
	// checks lists the disagreements between the benchmark's tallies
	// and the program's counter deltas over the run.
	checks(d metricSet, st *wstats) []string
	// files maps each stored object to its chunk count.
	files() map[string]int
	teardown()
}

// spec is a workload's fixed shape.
type spec struct {
	make        func() workload
	code        string
	size, chunk int64 // one object's size and chunk cap
	// tailLimit is the highest percentile read_tail_ms reports: the
	// rung a run of the benchmark's length clears with margin.
	tailLimit int
	// ownNames renames the generic metrics after what they measure
	// on this workload, for the report.
	ownNames map[string]string
}

var specs = map[string]spec{
	"bulk": {func() workload { return &bulk{} }, bulkCode, bulkSize, bulkChunk, 90,
		map[string]string{"write_mb_s": "store_mb_s", "read_mb_s": "fetch_mb_s"}},
	"ranged": {func() workload { return &ranged{} }, rangedCode, rangedSize, rangedChunk, 99,
		map[string]string{"read_p50_ms": "range_p50_ms", "reads_per_s": "range_rps", "write_p50_ms": "put_p50_ms"}},
	"degraded": {func() workload { return &degraded{} }, degradedCode, degradedSize, peerstripe.DefaultChunkCap, 90,
		map[string]string{"read_mb_s": "degraded_fetch_mb_s", "write_mb_s": "repair_mb_s"}},
}

// setups is how many times a run starts a ring and preloads it;
// setup_s is the median.
const setups = 5

// runBudget bounds a whole run, set-up included.
const runBudget = 170 * time.Second

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "bulk, ranged or degraded")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	if _, ok := specs[cfg.workload]; !ok || cfg.seconds < 1 || cfg.seconds > 120 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: psperf --workload bulk|ranged|degraded --seed N --seconds 1..120 --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	report, res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psperf:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]any{"report": report}) //nolint:errcheck
	enc.Encode(res)                              //nolint:errcheck
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "psperf: incorrect run:", strings.Join(report.Problems, "; "))
		os.Exit(1)
	}
}

// report is the full account of a run, printed before the result.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Env      map[string]any `json:"env"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests while the run measured: runs with a high
	// share are slower for reasons outside the program.
	StealShare float64            `json:"cpu_steal_share"`
	SetupS     []float64          `json:"setup_runs_s"`
	Windows    int                `json:"windows"`
	Reads      int                `json:"read_samples"`
	Writes     int                `json:"write_samples"`
	TailPct    int                `json:"read_tail_percentile"`
	ReadPcts   map[string]float64 `json:"read_percentiles_ms"`
	CacheHits  float64            `json:"cache_hit_ratio"`
	Lost       int                `json:"lost_reads"`
	Mismatched int                `json:"byte_mismatches"`
	FailRatio  float64            `json:"fail_ratio"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Named      map[string]float64 `json:"workload_metrics"`
	Problems   []string           `json:"problems,omitempty"`
}

func run(cfg config) (rep report, res result, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	sp := specs[cfg.workload]
	b := &bench{cfg: cfg, ctx: ctx}
	var w workload
	release := func() {
		if w != nil {
			w.teardown()
		}
		if b.cl != nil {
			b.cl.Close()
			b.cl = nil
		}
		if b.ring != nil {
			b.ring.close()
			b.ring = nil
		}
	}
	defer release()
	for i := 0; i < setups; i++ {
		release()
		runtime.GC()
		debug.FreeOSMemory()
		w = sp.make()
		t0 := time.Now()
		if b.ring, err = startRing(); err != nil {
			return rep, res, err
		}
		if err = w.setup(b); err != nil {
			return rep, res, fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(t0))
	}
	// Collect the set-up's garbage now, so the timed windows do not
	// pay for it.
	runtime.GC()
	total0, steal0, stealOK := cpuSteal()
	if err = w.run(b); err != nil {
		return rep, res, err
	}
	rep = report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Env: environment(), Windows: len(b.windows)}
	if total1, steal1, ok := cpuSteal(); ok && stealOK {
		rep.StealShare = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	rep.Problems = b.reconcile(w.checks)
	tot, _, _, _, _ := b.total(all)
	rep.Problems = append(rep.Problems, tot.errs...)
	e2e := endToEndValues(b, sp, &rep)
	rep.EndToEnd = e2e
	rep.Named = make(map[string]float64)
	for k, v := range e2e {
		if n, ok := sp.ownNames[k]; ok {
			k = n
		}
		if k == "read_tail_ms" {
			k = fmt.Sprintf("read_p%d_ms", rep.TailPct)
			if cfg.workload == "ranged" {
				k = fmt.Sprintf("range_p%d_ms", rep.TailPct)
			}
		}
		rep.Named[k] = v
	}
	rep.Lost, rep.Mismatched = tot.lost, tot.mismatched
	rep.FailRatio = ratio(float64(tot.failed+tot.lost), float64(tot.attempted))
	rep.Named["fail_ratio"] = rep.FailRatio
	delete(rep.Named, "ok_ratio")

	res = result{Correct: tot.failed == 0 && len(rep.Problems) == 0, Attempted: tot.attempted, Failed: tot.failed, Metrics: map[string]metricOutput{}}
	if res.Attempted == 0 {
		return rep, res, errors.New("no operation completed")
	}
	defs, values := endToEnd, e2e
	if cfg.trace {
		defs = perLayer
		if values, err = perLayerValues(b, w, sp); err != nil {
			return rep, res, err
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return rep, res, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricOutput{v, d.unit}
	}
	return rep, res, nil
}

// endToEndValues computes the end-to-end metrics from the plain
// windows (all windows of an untraced run).
func endToEndValues(b *bench, sp spec, rep *report) map[string]float64 {
	st, c, _, _, _ := b.total(plain)
	tot, _, _, _, _ := b.total(all)
	rep.CacheHits = ratio(c["ps_cache_hits_total"], c["ps_cache_hits_total"]+c["ps_cache_misses_total"])
	var setupS []float64
	for _, d := range b.setups {
		setupS = append(setupS, d.Seconds())
	}
	rep.SetupS = setupS
	rep.Reads, rep.Writes = len(st.readLat), len(st.writeLat)
	rep.TailPct = tailPercentile(len(st.readLat), sp.tailLimit)
	reads := millis(st.readLat)
	rep.ReadPcts = make(map[string]float64)
	for _, p := range append([]int{50}, tailLadder...) {
		rep.ReadPcts[fmt.Sprintf("p%d", p)] = percentile(reads, float64(p))
	}
	return map[string]float64{
		"setup_s":      median(append([]float64(nil), setupS...)),
		"read_mb_s":    mbPerSec(st.readBytes, st.readLat),
		"write_mb_s":   mbPerSec(st.writeBytes, st.writeLat),
		"read_p50_ms":  percentile(reads, 50),
		"read_tail_ms": percentile(reads, float64(rep.TailPct)),
		"write_p50_ms": percentile(millis(st.writeLat), 50),
		"reads_per_s": b.medianOver(plain, func(w *window) float64 {
			return float64(w.reads) / w.wall.Seconds()
		}),
		"storage_overhead": b.medianOver(measured, func(w *window) float64 { return w.overhead }),
		"ok_ratio":         1 - ratio(float64(tot.failed+tot.lost), float64(tot.attempted)),
		"rss_peak_mb":      float64(peakRSS()) / 1e6,
	}
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpu,
		"erasure_kernel": erasure.KernelImpl(),
		"transport":      "loopback TCP on 127.0.0.1 inside one process, not a real network link",
		"ring_nodes":     ringSize,
		"clients":        2,
	}
}
