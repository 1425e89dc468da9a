package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"peerstripe"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// wstats is what one worker records during one window. lost counts
// reads of data the killed node took with it — the program reports
// them as errors, which is correct; failed counts everything else that
// went wrong: errors, wrong statuses and byte mismatches.
type wstats struct {
	attempted, failed, lost, mismatched int
	readLat, writeLat                   []time.Duration
	readBytes, writeBytes               int64
	userBytes                           int64 // user bytes moved, the base of per-byte ratios
	reads                               int
	gets, puts                          int   // HTTP requests sent (ranged)
	getBytes                            int64 // GET body bytes received, checked or not (ranged)
	stores, repairs                     int   // Client.Store and RepairCtx calls made
	lookups                             int64 // chunk reads the File layer performs (cache hits + misses)
	spans                               map[string][]time.Duration
	errs                                []string
}

func (w *wstats) span(name string, d time.Duration) {
	if w.spans == nil {
		w.spans = make(map[string][]time.Duration)
	}
	w.spans[name] = append(w.spans[name], d)
}

// fail records an unexpected failure.
func (w *wstats) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

func (w *wstats) merge(o *wstats) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.lost += o.lost
	w.mismatched += o.mismatched
	w.readLat = append(w.readLat, o.readLat...)
	w.writeLat = append(w.writeLat, o.writeLat...)
	w.readBytes += o.readBytes
	w.writeBytes += o.writeBytes
	w.userBytes += o.userBytes
	w.reads += o.reads
	w.gets += o.gets
	w.getBytes += o.getBytes
	w.puts += o.puts
	w.stores += o.stores
	w.repairs += o.repairs
	w.lookups += o.lookups
	for k, v := range o.spans {
		if w.spans == nil {
			w.spans = make(map[string][]time.Duration)
		}
		w.spans[k] = append(w.spans[k], v...)
	}
	for _, e := range o.errs {
		if len(w.errs) < 5 {
			w.errs = append(w.errs, e)
		}
	}
}

// procStats is the process-wide cost the Go runtime and kernel report.
type procStats struct {
	mallocs, allocBytes uint64
	gcs                 uint32
	cpu                 time.Duration
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcs: ms.NumGC, cpu: cpu}
}

func (p procStats) sub(o procStats) procStats {
	return procStats{p.mallocs - o.mallocs, p.allocBytes - o.allocBytes, p.gcs - o.gcs, p.cpu - o.cpu}
}

func (p procStats) add(o procStats) procStats {
	return procStats{p.mallocs + o.mallocs, p.allocBytes + o.allocBytes, p.gcs + o.gcs, p.cpu + o.cpu}
}

// cpuSteal reads the machine's cumulative CPU and steal time (in
// clock ticks) from /proc/stat; ok is false where it is unavailable.
func cpuSteal() (total, steal int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// peakRSS is the process's peak resident set in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return ru.Maxrss << 10                      // kilobytes on Linux
}

// snapshot is the program's counters at one instant.
type snapshot struct {
	client, server metricSet
	proc           procStats
	at             time.Time
}

// window is one measurement interval: every worker stops at its end,
// so the counter deltas cover exactly the operations tallied in it.
// The first window of a run is a warm-up: its ops are checked and
// reconciled but not measured. In a traced run, odd windows are peel
// windows — each op is also re-issued layer by layer and timed — and
// even windows are plain.
type window struct {
	wstats
	warm, peel     bool
	wall           time.Duration
	client, server metricSet
	proc           procStats
	overhead       float64 // Σ node Used ÷ live user bytes at the window's end
	maxShare       float64 // largest node's share of Σ Used at the window's end
}

// bench is one run of one workload.
type bench struct {
	cfg  config
	ctx  context.Context
	ring *ring
	cl   *peerstripe.Client
	// scrapeClient reads the client-side counters: the client's own
	// exposition, or the gateway's /-/metrics, which includes it.
	scrapeClient func() (metricSet, error)
	liveBytes    int64 // user bytes the workload keeps stored
	setups       []time.Duration
	windows      []window
	first        snapshot
}

func (b *bench) clientMetrics() (metricSet, error) {
	var buf bytes.Buffer
	if err := b.cl.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return parseText(&buf)
}

func (b *bench) snap() (snapshot, error) {
	c, err := b.scrapeClient()
	if err != nil {
		return snapshot{}, err
	}
	s, err := b.ring.serverTotals()
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{client: c, server: s, proc: readProc(), at: time.Now()}, nil
}

// closeWindow records the window that ran since prev and returns the
// snapshot that opens the next one.
func (b *bench) closeWindow(prev snapshot, st *wstats, warm, peel bool) (snapshot, error) {
	now, err := b.snap()
	if err != nil {
		return snapshot{}, err
	}
	w := window{
		wstats: *st, warm: warm, peel: peel, wall: now.at.Sub(prev.at),
		client: now.client.sub(prev.client), server: now.server.sub(prev.server),
		proc: now.proc.sub(prev.proc),
	}
	var total, most int64
	for _, u := range b.ring.used() {
		total += u
		most = max(most, u)
	}
	w.overhead = ratio(float64(total), float64(b.liveBytes))
	w.maxShare = ratio(float64(most), float64(total))
	b.windows = append(b.windows, w)
	return now, nil
}

// windowCount splits the run into windows of about per each, an even
// number in a traced run so plain and peel windows pair up.
func (b *bench) windowCount(per time.Duration) int {
	n := max(2, int(time.Duration(b.cfg.seconds)*time.Second/per))
	if b.cfg.trace && n%2 == 1 {
		n++
	}
	return n
}

// runTimed drives workers closed-loop, window by window, for a
// warm-up window and then the run's duration: each worker issues its
// next op only after the previous one completed.
func (b *bench) runTimed(workers int, per time.Duration, op func(w int, peel bool, st *wstats)) error {
	n := b.windowCount(per)
	length := time.Duration(b.cfg.seconds) * time.Second / time.Duration(n)
	prev, err := b.snap()
	if err != nil {
		return err
	}
	b.first = prev
	for i := -1; i < n; i++ {
		warm, peel := i < 0, b.cfg.trace && i%2 == 1
		end := time.Now().Add(length)
		sts := make([]wstats, workers)
		parallel(workers, func(w int) {
			for time.Now().Before(end) && b.ctx.Err() == nil {
				op(w, peel, &sts[w])
			}
		})
		var st wstats
		for w := range sts {
			st.merge(&sts[w])
		}
		if prev, err = b.closeWindow(prev, &st, warm, peel); err != nil {
			return err
		}
	}
	return b.ctx.Err()
}

// parallel runs fn(w) for each of workers goroutines and waits.
func parallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// total merges the windows selected by keep.
func (b *bench) total(keep func(w *window) bool) (st wstats, client, server metricSet, proc procStats, wall time.Duration) {
	client, server = make(metricSet), make(metricSet)
	for i := range b.windows {
		w := &b.windows[i]
		if !keep(w) {
			continue
		}
		st.merge(&w.wstats)
		client.add(w.client)
		server.add(w.server)
		proc = proc.add(w.proc)
		wall += w.wall
	}
	return
}

func all(*window) bool        { return true }
func measured(w *window) bool { return !w.warm }
func plain(w *window) bool    { return !w.warm && !w.peel }
func peeled(w *window) bool   { return !w.warm && w.peel }

// reconcile compares the benchmark's own tallies with the program's
// counter deltas over the whole run. Some counters are recorded after
// a response has already reached the client, so the comparison is
// retried briefly before a disagreement fails the run.
func (b *bench) reconcile(checks func(d metricSet, st *wstats) []string) []string {
	st, _, _, _, _ := b.total(all)
	var bad []string
	for try := 0; try < 50; try++ {
		c, err := b.scrapeClient()
		if err != nil {
			return []string{err.Error()}
		}
		if bad = checks(c.sub(b.first.client), &st); len(bad) == 0 {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return bad
}

// expect formats a reconciliation disagreement, or returns nothing.
func expect(what string, got float64, want int64) []string {
	if int64(got) != want || got != float64(int64(got)) {
		return []string{fmt.Sprintf("%s: counter delta %v, benchmark counted %d", what, got, want)}
	}
	return nil
}

// medianOver is the median over the windows selected by keep of f.
func (b *bench) medianOver(keep func(w *window) bool, f func(w *window) float64) float64 {
	var xs []float64
	for i := range b.windows {
		if w := &b.windows[i]; keep(w) {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

func durMedian(ds []time.Duration) float64 { return median(micros(ds)) }
