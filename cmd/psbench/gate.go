package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"peerstripe"
	"peerstripe/gateway"
	"peerstripe/internal/node"
)

// The gate experiment loads the HTTP gateway end to end: a live
// loopback ring behind cmd/psgate's handler, a 64-client herd issuing
// full-object and ranged GETs, with the shared singleflight chunk
// cache and automatic hot promotion doing their work in between. It
// reports aggregate MB/s and tail latencies per phase as a JSON report
// in the BENCH_PR9.json schema (see writeReport). Like churn it drives
// a live ring and takes seconds of wall clock, so it runs only when
// asked for by name, never under -exp all.

// fatalf aborts the experiment with a message on stderr.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

type gatePhaseResult struct {
	Requests    int     `json:"requests"`
	Clients     int     `json:"clients"`
	AggregateMB float64 `json:"aggregate_mb_s"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
}

type gateBenchReport struct {
	Description string `json:"description"`
	Environment struct {
		GOOS   string `json:"goos"`
		GOARCH string `json:"goarch"`
		Cores  int    `json:"cores"`
		Go     string `json:"go"`
		Date   string `json:"date"`
	} `json:"environment"`
	Config struct {
		Nodes      int    `json:"nodes"`
		Code       string `json:"code"`
		ChunkCap   int    `json:"chunk_cap_bytes"`
		ObjectSize int    `json:"object_size_bytes"`
		CacheBytes int64  `json:"chunk_cache_bytes"`
		HotAfter   int    `json:"hot_after"`
		HotCopies  int    `json:"hot_copies"`
	} `json:"config"`
	Phases map[string]gatePhaseResult `json:"phases"`
	Cache  peerstripe.CacheStats      `json:"cache"`
	Stats  gateway.Stats              `json:"gateway"`
	// After carries the MB/s floors `make bench-guard` compares the
	// gateway go-bench arms against (cmd/benchguard -match 'Gateway').
	After map[string]map[string]float64 `json:"after"`
}

// gatePercentiles reduces per-request latencies to the tail summary.
func gatePercentiles(lat []time.Duration) (p50, p95, p99, max float64) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i].Microseconds()) / 1000
	}
	return at(0.50), at(0.95), at(0.99), float64(lat[len(lat)-1].Microseconds()) / 1000
}

// gatePhase runs one load phase: clients goroutines each issuing
// reqsPer requests built by mkReq, verifying status and draining
// bodies, and returns the latency/throughput summary.
func gatePhase(clients, reqsPer int, mkReq func(cli, i int) (*http.Request, int)) (gatePhaseResult, error) {
	var (
		mu    sync.Mutex
		lats  []time.Duration
		bytes int64
		errs  []error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(cli int) {
			defer wg.Done()
			local := make([]time.Duration, 0, reqsPer)
			var localBytes int64
			for i := 0; i < reqsPer; i++ {
				req, wantStatus := mkReq(cli, i)
				t0 := time.Now()
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					var n int64
					n, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					localBytes += n
					if err == nil && resp.StatusCode != wantStatus {
						err = fmt.Errorf("status %d, want %d", resp.StatusCode, wantStatus)
					}
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			bytes += localBytes
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if len(errs) > 0 {
		return gatePhaseResult{}, errs[0]
	}
	r := gatePhaseResult{Requests: len(lats), Clients: clients}
	r.AggregateMB = float64(bytes) / (1 << 20) / wall.Seconds()
	r.P50MS, r.P95MS, r.P99MS, r.MaxMS = gatePercentiles(lats)
	return r, nil
}

func runGate() {
	const (
		nodes      = 4
		chunkCap   = 256 << 10
		objectSize = 8 << 20 // 32 chunks
		clients    = 64
		hotAfter   = 8
		hotCopies  = 2
	)
	section("Gateway load: 64-client herd through cmd/psgate's handler (live loopback ring)")

	var servers []*node.Server
	seed := ""
	for i := 0; i < nodes; i++ {
		s, err := node.NewServer("127.0.0.1:0", 1<<30, seed)
		if err != nil {
			fatalf("gate: %v", err)
		}
		if seed == "" {
			seed = s.Addr()
		}
		servers = append(servers, s)
		defer s.Close()
	}
	for converged := false; !converged; time.Sleep(5 * time.Millisecond) {
		converged = true
		for _, s := range servers {
			if s.RingSize() != nodes {
				converged = false
			}
		}
	}

	ctx := context.Background()
	cl, err := peerstripe.Dial(ctx, seed,
		peerstripe.WithCode("xor"),
		peerstripe.WithChunkCap(chunkCap))
	if err != nil {
		fatalf("gate: %v", err)
	}
	defer cl.Close()

	gw := gateway.New(cl, gateway.Config{HotAfter: hotAfter, HotCopies: hotCopies})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("gate: %v", err)
	}
	srv := &http.Server{Handler: gw}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	data := make([]byte, objectSize)
	rand.New(rand.NewSource(9)).Read(data)
	req, _ := http.NewRequest(http.MethodPut, base+"/gate.bin", bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("gate: PUT: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		fatalf("gate: PUT: %s", resp.Status)
	}

	report := gateBenchReport{Phases: map[string]gatePhaseResult{}}
	report.Description = "HTTP gateway load harness (psbench -exp gate): a 64-client herd issuing " +
		"full-object and 64 KiB ranged GETs on one 8 MiB object through the psgate handler over a live " +
		"4-node loopback ring (xor code, 256 KiB chunks). 'herd_cold' includes the singleflight decode " +
		"of every chunk exactly once plus the automatic hot promotion; 'herd_warm' and 'ranged' run " +
		"against the warm shared cache. The 'after' section holds the go-bench MB/s floors for " +
		"`make bench-guard` (go test -bench Gateway ./gateway vs cmd/benchguard, LIVE_GUARD_PCT tolerance)."
	report.Environment.GOOS = runtime.GOOS
	report.Environment.GOARCH = runtime.GOARCH
	report.Environment.Cores = runtime.NumCPU()
	report.Environment.Go = runtime.Version()
	report.Environment.Date = time.Now().Format("2006-01-02")
	report.Config.Nodes = nodes
	report.Config.Code = "xor"
	report.Config.ChunkCap = chunkCap
	report.Config.ObjectSize = objectSize
	report.Config.CacheBytes = peerstripe.DefaultChunkCache
	report.Config.HotAfter = hotAfter
	report.Config.HotCopies = hotCopies

	fullReq := func(cli, i int) (*http.Request, int) {
		r, _ := http.NewRequest(http.MethodGet, base+"/gate.bin", nil)
		return r, http.StatusOK
	}
	fmt.Printf("%-10s %9s %9s %9s %9s %9s %12s\n",
		"phase", "reqs", "p50 ms", "p95 ms", "p99 ms", "max ms", "aggr MB/s")
	runPhase := func(name string, reqsPer int, mk func(cli, i int) (*http.Request, int)) {
		r, err := gatePhase(clients, reqsPer, mk)
		if err != nil {
			fatalf("gate: phase %s: %v", name, err)
		}
		report.Phases[name] = r
		fmt.Printf("%-10s %9d %9.2f %9.2f %9.2f %9.2f %12.1f\n",
			name, r.Requests, r.P50MS, r.P95MS, r.P99MS, r.MaxMS, r.AggregateMB)
	}

	// Cold herd: every chunk of the object decodes exactly once under
	// the herd (singleflight), and the GET count crosses HotAfter so a
	// promotion runs concurrently with the tail of the phase.
	runPhase("herd_cold", 4, fullReq)
	// Warm herd: the whole object is cached; pure gateway + HTTP cost.
	runPhase("herd_warm", 16, fullReq)
	// Ranged: 64 KiB slices at random offsets, the CDN-ish access mix.
	rngs := make([]*rand.Rand, clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(100 + i)))
	}
	runPhase("ranged", 64, func(cli, i int) (*http.Request, int) {
		off := rngs[cli].Int63n(objectSize - 64<<10)
		r, _ := http.NewRequest(http.MethodGet, base+"/gate.bin", nil)
		r.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+64<<10-1))
		return r, http.StatusPartialContent
	})
	// Sequential phases: one client, warm cache — the same shape the
	// gateway go-bench arms measure, so their aggregates become the
	// bench-guard floors below.
	seqPhase := func(name string, reqsPer int, mk func(cli, i int) (*http.Request, int)) {
		r, err := gatePhase(1, reqsPer, mk)
		if err != nil {
			fatalf("gate: phase %s: %v", name, err)
		}
		report.Phases[name] = r
		fmt.Printf("%-10s %9d %9.2f %9.2f %9.2f %9.2f %12.1f\n",
			name, r.Requests, r.P50MS, r.P95MS, r.P99MS, r.MaxMS, r.AggregateMB)
	}
	seqPhase("seq_full", 64, fullReq)
	seqPhase("seq_ranged", 512, func(cli, i int) (*http.Request, int) {
		off := rngs[0].Int63n(objectSize - 64<<10)
		r, _ := http.NewRequest(http.MethodGet, base+"/gate.bin", nil)
		r.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+64<<10-1))
		return r, http.StatusPartialContent
	})

	report.Cache = cl.CacheStats()
	report.Stats = gw.Stats()
	// Every chunk decodes at most once across the entire run: the herd
	// collapses into singleflight leaders, and chunks the concurrent
	// promotion fetched first enter the shared cache without a leader
	// at all — so Decodes can come in under the chunk count, never over.
	const chunks = objectSize / chunkCap
	fmt.Printf("cache: %d decodes for %d chunks (%d pre-filled by promotion), %d hits, promotions=%d\n",
		report.Cache.Decodes, chunks, chunks-int(report.Cache.Decodes), report.Cache.Hits, report.Stats.Promotions)
	if report.Cache.Decodes > chunks {
		fmt.Printf("WARNING: %d decodes for %d chunks — the herd re-decoded\n", report.Cache.Decodes, chunks)
	}

	// Floors for `make bench-guard`: the sequential warm phases measure
	// the same thing as the gateway go-bench arms (one client, cached
	// object), so their aggregates are the floors; LIVE_GUARD_PCT in
	// the Makefile supplies the run-to-run slack.
	report.After = map[string]map[string]float64{
		"BenchmarkGatewayGet":       {"mb_s": report.Phases["seq_full"].AggregateMB},
		"BenchmarkGatewayGetRanged": {"mb_s": report.Phases["seq_ranged"].AggregateMB},
	}

	writeReport("gate", &report)
}
