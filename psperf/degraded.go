package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"peerstripe"
)

// degraded is contributor loss: each cycle closes one node chosen by
// the seed — never screened for being survivable — reads every file
// in a degraded pass, repairs every file, restarts the node empty
// under its old name, refills it with a second repair pass, and
// stores again every file reported lost, so each cycle starts from the
// same healthy layout. It is the one workload that runs parity
// reconstruction, the hedged fetch, RepairCtx and re-placement. The
// client's chunk cache is off so every read decodes from the ring.
const (
	degradedWorkers = 2
	degradedFiles   = 24
	degradedSize    = 4 << 20
	degradedCode    = "xor"
	catReplicas     = 2 // the client default
)

type degraded struct {
	b       *bench
	victims *victims
	place   placement
	bufs    [degradedWorkers][]byte
	scratch [degradedWorkers][]byte

	kills      int
	lostBytes  int64        // bytes the killed nodes held
	recreated  atomic.Int64 // BytesRecreated over both repair passes
	chunksLost atomic.Int64 // ChunksLost reported by the degraded repair pass
}

func degradedName(i int) string { return fmt.Sprintf("deg-%02d", i) }

// victims is the seeded sequence of nodes the cycles close: rounds
// in which every node is closed once, in seeded order, so a run's loss
// does not hinge on a streak of one unlucky node.
type victims struct {
	r     *rand.Rand
	round []int
}

func (v *victims) next() int {
	if len(v.round) == 0 {
		v.round = v.r.Perm(ringSize)
	}
	n := v.round[0]
	v.round = v.round[1:]
	return n
}

func (w *degraded) setup(b *bench) error {
	w.b = b
	cl, err := peerstripe.Dial(b.ctx, b.ring.addrs[0], peerstripe.WithCode(degradedCode), peerstripe.WithChunkCache(0))
	if err != nil {
		return err
	}
	b.cl, b.scrapeClient, b.liveBytes = cl, b.clientMetrics, degradedFiles*degradedSize
	w.victims = &victims{r: opStream(b.cfg.seed, 0)}
	if w.place, err = b.ring.place(w.files(), degradedCode, catReplicas); err != nil {
		return err
	}
	errs := make([]error, degradedWorkers)
	parallel(degradedWorkers, func(k int) {
		w.bufs[k] = make([]byte, degradedSize)
		w.scratch[k] = make([]byte, 64<<10)
		for i := k; i < degradedFiles && errs[k] == nil; i += degradedWorkers {
			errs[k] = w.store(k, degradedName(i))
		}
	})
	return errors.Join(errs...)
}

// store writes the file's only version.
func (w *degraded) store(k int, name string) error {
	fill(w.bufs[k], contentKey(w.b.cfg.seed, name, 0), 0)
	_, err := w.b.cl.StoreBytes(w.b.ctx, name, w.bufs[k])
	return err
}

func (w *degraded) files() map[string]int {
	out := make(map[string]int, degradedFiles)
	for i := 0; i < degradedFiles; i++ {
		out[degradedName(i)] = len(planOf(degradedSize, peerstripe.DefaultChunkCap))
	}
	return out
}

// run repeats cycles — a warm-up cycle, then measured ones until the
// run's time is up; each cycle is one window, and a traced run
// alternates plain and peel cycles.
func (w *degraded) run(b *bench) error {
	prev, err := b.snap()
	if err != nil {
		return err
	}
	b.first = prev
	var deadline time.Time
	for c := -1; c < 2 || time.Now().Before(deadline); c++ {
		if err := b.ctx.Err(); err != nil {
			return err
		}
		warm, peel := c < 0, b.cfg.trace && c%2 == 1
		st, err := w.cycle(peel)
		if err != nil {
			return err
		}
		if prev, err = b.closeWindow(prev, &st, warm, peel); err != nil {
			return err
		}
		if warm {
			deadline = time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
		}
	}
	return nil
}

// forEachFile runs fn over every file index, split between the
// workers; worker k owns the files i ≡ k mod degradedWorkers.
func forEachFile(sts *[degradedWorkers]wstats, fn func(k, i int, st *wstats)) {
	parallel(degradedWorkers, func(k int) {
		for i := k; i < degradedFiles; i += degradedWorkers {
			fn(k, i, &sts[k])
		}
	})
}

func (w *degraded) cycle(peel bool) (wstats, error) {
	b := w.b
	victim := w.victims.next()
	lost := w.place.lostIf[victim]
	w.lostBytes += b.ring.used()[victim]
	w.kills++
	if err := b.ring.kill(victim); err != nil {
		return wstats{}, err
	}
	var sts [degradedWorkers]wstats
	var reported [degradedFiles]bool // a repair pass found the file lost
	forEachFile(&sts, func(k, i int, st *wstats) {
		w.read(k, degradedName(i), lost[degradedName(i)], peel, st)
	})
	forEachFile(&sts, func(k, i int, st *wstats) {
		reported[i] = w.repair(degradedName(i), lost[degradedName(i)], true, st)
	})
	if err := b.ring.restart(victim); err != nil {
		return wstats{}, err
	}
	if err := b.cl.Refresh(b.ctx); err != nil {
		return wstats{}, err
	}
	forEachFile(&sts, func(k, i int, st *wstats) {
		if w.repair(degradedName(i), lost[degradedName(i)], false, st) {
			reported[i] = true
		}
	})
	forEachFile(&sts, func(k, i int, st *wstats) {
		name := degradedName(i)
		if !reported[i] && !lost[name] {
			return
		}
		st.attempted++
		st.stores++
		st.userBytes += degradedSize
		if err := w.store(k, name); err != nil {
			st.fail("store again %s: %v", name, err)
		}
	})
	var st wstats
	for k := range sts {
		st.merge(&sts[k])
	}
	return st, nil
}

// read is one degraded whole-file read. A file the placement model
// says the victim took with it must fail cleanly; any other file must
// come back byte for byte.
func (w *degraded) read(k int, name string, expectLost, peel bool, st *wstats) {
	b, buf := w.b, w.bufs[k]
	st.attempted++
	t0 := time.Now()
	f, err := b.cl.Open(b.ctx, name)
	t1 := time.Now()
	n := 0
	if err == nil {
		n, err = f.ReadAt(buf, 0)
		st.lookups++
		f.Close()
	}
	t2 := time.Now()
	switch {
	case err != nil && expectLost:
		st.lost++
		return
	case err != nil || n != degradedSize:
		st.fail("degraded read %s: %d bytes, %v", name, n, err)
		return
	case !matches(buf, contentKey(b.cfg.seed, name, 0), 0, w.scratch[k]):
		st.mismatched++
		st.fail("degraded read %s: bytes differ", name)
		return
	}
	st.readLat = append(st.readLat, t2.Sub(t0))
	st.readBytes += degradedSize
	st.userBytes += degradedSize
	st.reads++
	if peel {
		st.span("open", t1.Sub(t0))
		st.span("read_at", t2.Sub(t1))
		peelStat(b, name, st)
	}
}

// repair runs one Client.Repair and reports whether it found the file
// lost. Loss is expected only for files the placement model predicts.
// degradedPass marks the pass that runs while the victim is down.
func (w *degraded) repair(name string, expectLost, degradedPass bool, st *wstats) bool {
	b := w.b
	st.attempted++
	t0 := time.Now()
	rs, err := b.cl.Repair(b.ctx, name)
	d := time.Since(t0)
	st.repairs++
	w.recreated.Add(rs.BytesRecreated)
	if degradedPass {
		w.chunksLost.Add(int64(rs.ChunksLost))
	}
	switch {
	case err != nil && expectLost:
		st.lost++
		return true
	case err != nil:
		st.fail("repair %s: %v", name, err)
		return true
	case rs.ChunksLost > 0 && !expectLost:
		st.fail("repair %s: %d chunks lost, placement predicts none", name, rs.ChunksLost)
		return true
	}
	st.writeLat = append(st.writeLat, d)
	st.writeBytes += rs.BytesRecreated
	return rs.ChunksLost > 0
}

func (w *degraded) checks(d metricSet, st *wstats) []string {
	var bad []string
	bad = append(bad, expect("ps_client_repair_seconds_count vs repairs", d["ps_client_repair_seconds_count"], int64(st.repairs))...)
	bad = append(bad, expect("ps_client_store_seconds_count vs stores", d["ps_client_store_seconds_count"], int64(st.stores))...)
	return append(bad, expect("ps_cache_hits_total+ps_cache_misses_total vs chunk reads", d["ps_cache_hits_total"]+d["ps_cache_misses_total"], st.lookups)...)
}

func (w *degraded) teardown() {}
