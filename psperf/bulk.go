package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"peerstripe"
)

// bulk is the paper's large-file use: whole 16 MiB files, online
// code, 4 MiB chunks, stored and read back by two closed-loop workers.
// The 12 slots hold 192 MiB, three times the client's 64 MiB
// decoded-chunk cache, so most reads miss it and run the full
// fetch-and-decode path; stores sit beside reads so a read-path gain
// that costs stores shows up.
const (
	bulkWorkers = 2
	bulkSlots   = 12
	bulkSize    = 16 << 20
	bulkChunk   = 4 << 20
	bulkCode    = "online"
)

type bulk struct {
	b        *bench
	versions [bulkSlots]int // each slot is written by one worker only
	ops      [bulkWorkers]*bulkOps
	bufs     [bulkWorkers][]byte
	scratch  [bulkWorkers][]byte
}

func bulkName(slot int) string { return fmt.Sprintf("bulk-%02d", slot) }

// bulkOp is one op of a bulk worker's sequence.
type bulkOp struct {
	store bool
	slot  int
}

// bulkOps is one worker's op sequence: rounds in which each of the
// worker's own slots is stored once and read once, in seeded order.
// Rounds keep the store/read mix at exactly 50/50 and the reuse
// distances — hence the cache hit ratio — alike from seed to seed.
type bulkOps struct {
	r     *rand.Rand
	w     int
	round []bulkOp
}

func (g *bulkOps) next() bulkOp {
	if len(g.round) == 0 {
		per := bulkSlots / bulkWorkers
		for s := g.w * per; s < (g.w+1)*per; s++ {
			g.round = append(g.round, bulkOp{store: true, slot: s}, bulkOp{store: false, slot: s})
		}
		g.r.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
	}
	op := g.round[0]
	g.round = g.round[1:]
	return op
}

func (w *bulk) setup(b *bench) error {
	w.b = b
	cl, err := peerstripe.Dial(b.ctx, b.ring.addrs[0], peerstripe.WithCode(bulkCode), peerstripe.WithChunkCap(bulkChunk))
	if err != nil {
		return err
	}
	b.cl, b.scrapeClient, b.liveBytes = cl, b.clientMetrics, bulkSlots*bulkSize
	errs := make([]error, bulkWorkers)
	per := bulkSlots / bulkWorkers
	parallel(bulkWorkers, func(k int) {
		w.ops[k] = &bulkOps{r: opStream(b.cfg.seed, k), w: k}
		w.bufs[k] = make([]byte, bulkSize)
		w.scratch[k] = make([]byte, 64<<10)
		for s := k * per; s < (k+1)*per && errs[k] == nil; s++ {
			fill(w.bufs[k], contentKey(b.cfg.seed, bulkName(s), 0), 0)
			_, errs[k] = cl.Store(b.ctx, bulkName(s), bytes.NewReader(w.bufs[k]), bulkSize)
		}
	})
	return errors.Join(errs...)
}

func (w *bulk) files() map[string]int {
	out := make(map[string]int, bulkSlots)
	for s := 0; s < bulkSlots; s++ {
		out[bulkName(s)] = len(planOf(bulkSize, bulkChunk))
	}
	return out
}

func (w *bulk) run(b *bench) error { return b.runTimed(bulkWorkers, 2*time.Second, w.op) }

func (w *bulk) op(k int, peel bool, st *wstats) {
	b, buf := w.b, w.bufs[k]
	op := w.ops[k].next()
	name := bulkName(op.slot)
	st.attempted++
	st.userBytes += bulkSize
	if op.store {
		v := w.versions[op.slot] + 1
		fill(buf, contentKey(b.cfg.seed, name, v), 0)
		t0 := time.Now()
		_, err := b.cl.Store(b.ctx, name, bytes.NewReader(buf), bulkSize)
		d := time.Since(t0)
		st.stores++
		if err != nil {
			st.fail("store %s: %v", name, err)
			return
		}
		w.versions[op.slot] = v
		st.writeLat = append(st.writeLat, d)
		st.writeBytes += bulkSize
		return
	}
	t0 := time.Now()
	f, err := b.cl.Open(b.ctx, name)
	t1 := time.Now()
	if err != nil {
		st.fail("open %s: %v", name, err)
		return
	}
	n, err := f.ReadAt(buf, 0)
	t2 := time.Now()
	f.Close()
	st.lookups += int64(len(planOf(bulkSize, bulkChunk)))
	if err != nil || n != bulkSize {
		st.fail("read %s: %d bytes, %v", name, n, err)
		return
	}
	if !matches(buf, contentKey(b.cfg.seed, name, w.versions[op.slot]), 0, w.scratch[k]) {
		st.mismatched++
		st.fail("read %s: bytes differ from version %d", name, w.versions[op.slot])
		return
	}
	st.readLat = append(st.readLat, t2.Sub(t0))
	st.readBytes += bulkSize
	st.reads++
	if peel {
		st.span("open", t1.Sub(t0))
		st.span("read_at", t2.Sub(t1))
		peelStat(b, name, st)
	}
}

// peelStat times the CAT load alone: Client.Stat is one LoadCATCtx.
func peelStat(b *bench, name string, st *wstats) {
	t0 := time.Now()
	if _, err := b.cl.Stat(b.ctx, name); err == nil {
		st.span("load_cat", time.Since(t0))
	}
}

func (w *bulk) checks(d metricSet, st *wstats) []string {
	return append(
		expect("ps_client_store_seconds_count vs stores", d["ps_client_store_seconds_count"], int64(st.stores)),
		expect("ps_cache_hits_total+ps_cache_misses_total vs chunk reads", d["ps_cache_hits_total"]+d["ps_cache_misses_total"], st.lookups)...)
}

func (w *bulk) teardown() {}
