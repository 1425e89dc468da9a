package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"peerstripe"
	"peerstripe/gateway"
)

// ranged is the gateway front door with psgate's defaults: 64 KiB
// Range GETs at seeded offsets from two closed-loop HTTP clients over
// 16 objects of 2 MiB (xor, 256 KiB chunks). The 32 MiB set fits the
// 64 MiB cache, so erasure coding is nearly idle and the cost is the
// per-GET Open, the cache, the gateway and small-RPC latency. One op
// in 50 re-stores one of the client's own objects with a PUT, which
// invalidates cache entries and hot state.
const (
	rangedWorkers  = 2
	rangedObjects  = 16
	rangedSize     = 2 << 20
	rangedChunk    = 256 << 10
	rangedLen      = 64 << 10
	rangedPutEvery = 50
	rangedCode     = "xor"
	hotAfter       = 64 // psgate's -hot-after default
	hotCopies      = 2  // psgate's -hot-copies default
)

type ranged struct {
	b        *bench
	srv      *http.Server
	base     string
	hcs      [rangedWorkers]*http.Client
	scraper  *http.Client
	versions [rangedObjects]int // each object is written by one worker only
	ops      [rangedWorkers]*rangedOps
	putBufs  [rangedWorkers][]byte
	getBufs  [rangedWorkers][]byte
	peelBufs [rangedWorkers][]byte
	scratch  [rangedWorkers][]byte
}

func rangedName(obj int) string { return fmt.Sprintf("obj-%02d", obj) }

// rangedOp is one op of a ranged client's sequence.
type rangedOp struct {
	put bool
	obj int
	off int64
}

// rangedOps is one client's op sequence on its own objects: in each
// block of rangedPutEvery ops exactly one, at a seeded position, is a
// PUT; the rest are GETs at seeded offsets.
type rangedOps struct {
	r        *rand.Rand
	w, n     int
	putIndex int
}

func (g *rangedOps) next() rangedOp {
	if g.n%rangedPutEvery == 0 {
		g.putIndex = g.r.IntN(rangedPutEvery)
	}
	per := rangedObjects / rangedWorkers
	op := rangedOp{put: g.n%rangedPutEvery == g.putIndex, obj: g.w*per + g.r.IntN(per)}
	if !op.put {
		op.off = g.r.Int64N(rangedSize - rangedLen + 1)
	}
	g.n++
	return op
}

func (w *ranged) setup(b *bench) error {
	w.b = b
	cl, err := peerstripe.Dial(b.ctx, b.ring.addrs[0], peerstripe.WithCode(rangedCode), peerstripe.WithChunkCap(rangedChunk))
	if err != nil {
		return err
	}
	b.cl, b.liveBytes = cl, rangedObjects*rangedSize
	errs := make([]error, rangedWorkers)
	per := rangedObjects / rangedWorkers
	parallel(rangedWorkers, func(k int) {
		w.ops[k] = &rangedOps{r: opStream(b.cfg.seed, k), w: k}
		w.putBufs[k] = make([]byte, rangedSize)
		w.getBufs[k] = make([]byte, rangedLen)
		w.peelBufs[k] = make([]byte, rangedLen)
		w.scratch[k] = make([]byte, rangedLen)
		w.hcs[k] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
		for o := k * per; o < (k+1)*per && errs[k] == nil; o++ {
			fill(w.putBufs[k], contentKey(b.cfg.seed, rangedName(o), 0), 0)
			_, errs[k] = cl.StoreBytes(b.ctx, rangedName(o), w.putBufs[k])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: gateway.New(cl, gateway.Config{HotAfter: hotAfter, HotCopies: hotCopies})}
	go w.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at teardown
	w.base = "http://" + ln.Addr().String() + "/"
	w.scraper = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	b.scrapeClient = w.scrape
	return nil
}

// scrape reads the gateway's /-/metrics: its own counters followed by
// its client's.
func (w *ranged) scrape() (metricSet, error) {
	resp, err := w.scraper.Get(w.base + "-/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("gateway metrics: status %d", resp.StatusCode)
	}
	return parseText(resp.Body)
}

func (w *ranged) files() map[string]int {
	out := make(map[string]int, rangedObjects)
	for o := 0; o < rangedObjects; o++ {
		out[rangedName(o)] = len(planOf(rangedSize, rangedChunk))
	}
	return out
}

func (w *ranged) run(b *bench) error { return b.runTimed(rangedWorkers, time.Second, w.op) }

// chunksSpanned is how many chunks the File layer reads for a range.
func chunksSpanned(off, n, chunk int64) int64 { return (off+n-1)/chunk - off/chunk + 1 }

func (w *ranged) op(k int, peel bool, st *wstats) {
	b := w.b
	op := w.ops[k].next()
	name := rangedName(op.obj)
	st.attempted++
	if op.put {
		v := w.versions[op.obj] + 1
		fill(w.putBufs[k], contentKey(b.cfg.seed, name, v), 0)
		req, err := http.NewRequestWithContext(b.ctx, http.MethodPut, w.base+name, bytes.NewReader(w.putBufs[k]))
		if err != nil {
			st.fail("put %s: %v", name, err)
			return
		}
		t0 := time.Now()
		resp, err := w.hcs[k].Do(req)
		st.puts++
		if err != nil {
			st.fail("put %s: %v", name, err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
		resp.Body.Close()
		d := time.Since(t0)
		if resp.StatusCode != http.StatusCreated {
			st.fail("put %s: status %d", name, resp.StatusCode)
			return
		}
		w.versions[op.obj] = v
		st.writeLat = append(st.writeLat, d)
		st.writeBytes += rangedSize
		st.userBytes += rangedSize
		return
	}
	key := contentKey(b.cfg.seed, name, w.versions[op.obj])
	buf := w.getBufs[k]
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, w.base+name, nil)
	if err != nil {
		st.fail("get %s: %v", name, err)
		return
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", op.off, op.off+rangedLen-1))
	t0 := time.Now()
	resp, err := w.hcs[k].Do(req)
	st.gets++
	if err != nil {
		st.fail("get %s: %v", name, err)
		return
	}
	n, err := io.ReadFull(resp.Body, buf)
	extra, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	st.getBytes += int64(n) + extra
	st.lookups += chunksSpanned(op.off, rangedLen, rangedChunk)
	if resp.StatusCode != http.StatusPartialContent || err != nil || extra != 0 {
		st.fail("get %s at %d: status %d, %d+%d bytes, %v", name, op.off, resp.StatusCode, n, extra, err)
		return
	}
	if !matches(buf, key, op.off, w.scratch[k]) {
		st.mismatched++
		st.fail("get %s at %d: bytes differ from version %d", name, op.off, w.versions[op.obj])
		return
	}
	st.readLat = append(st.readLat, d)
	st.readBytes += rangedLen
	st.userBytes += rangedLen
	st.reads++
	if peel {
		w.peel(k, name, key, op.off, d, st)
	}
}

// peel re-reads the range the GET just served straight through the
// gateway's client — Open, then ReadAt — and times the CAT load alone,
// so the GET's time splits into gateway, File and CAT-load layers.
func (w *ranged) peel(k int, name string, key uint64, off int64, get time.Duration, st *wstats) {
	b := w.b
	t0 := time.Now()
	f, err := b.cl.Open(b.ctx, name)
	t1 := time.Now()
	if err != nil {
		st.fail("peel open %s: %v", name, err)
		return
	}
	n, err := f.ReadAt(w.peelBufs[k], off)
	t2 := time.Now()
	f.Close()
	st.lookups += chunksSpanned(off, rangedLen, rangedChunk)
	if err != nil || n != rangedLen {
		st.fail("peel read %s: %d bytes, %v", name, n, err)
		return
	}
	if !matches(w.peelBufs[k], key, off, w.scratch[k]) {
		st.mismatched++
		st.fail("peel read %s at %d: bytes differ", name, off)
		return
	}
	st.span("open", t1.Sub(t0))
	st.span("read_at", t2.Sub(t1))
	st.span("gateway_self", get-t2.Sub(t0))
	peelStat(b, name, st)
}

func (w *ranged) checks(d metricSet, st *wstats) []string {
	var bad []string
	bad = append(bad, expect("ps_gw_gets_total vs GETs sent", d["ps_gw_gets_total"], int64(st.gets))...)
	bad = append(bad, expect("ps_gw_puts_total vs PUTs sent", d["ps_gw_puts_total"], int64(st.puts))...)
	bad = append(bad, expect("ps_gw_bytes_out_total vs GET bytes", d["ps_gw_bytes_out_total"], st.getBytes)...)
	bad = append(bad, expect("ps_gw_bytes_in_total vs PUT bytes", d["ps_gw_bytes_in_total"], st.writeBytes)...)
	bad = append(bad, expect("ps_client_store_seconds_count vs PUTs", d["ps_client_store_seconds_count"], int64(st.puts))...)
	return append(bad, expect("ps_cache_hits_total+ps_cache_misses_total vs chunk reads", d["ps_cache_hits_total"]+d["ps_cache_misses_total"], st.lookups)...)
}

func (w *ranged) teardown() {
	if w.srv != nil {
		w.srv.Close()
	}
	for _, hc := range w.hcs {
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
	if w.scraper != nil {
		w.scraper.CloseIdleConnections()
	}
}
