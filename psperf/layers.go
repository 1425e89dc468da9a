package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
)

// planOf is the chunk plan Client.Store makes for a file.
func planOf(size, chunkCap int64) []int64 { return core.PlanChunkSizes(size, chunkCap) }

// timeRate runs fn at least three times and for at least budget, and
// returns the median throughput in MB/s of bytes per call.
func timeRate(bytes int64, budget time.Duration, fn func() error) (float64, error) {
	var rates []float64
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		rates = append(rates, float64(bytes)/1e6/time.Since(t0).Seconds())
	}
	return median(rates), nil
}

// codecRates measures the core codec pipeline on one workload's file
// shape, in memory with no wire: Codec.EncodeChunks, then DecodeFile
// from the blocks it produced.
func codecRates(ctx context.Context, code string, size, chunkCap int64) (enc, dec float64, err error) {
	c, err := core.CodeFor(code, "")
	if err != nil {
		return 0, 0, err
	}
	cd := &core.Codec{Code: c}
	data := make([]byte, size)
	fill(data, 1, 0)
	plan := planOf(size, chunkCap)
	var mu sync.Mutex
	blocks := make(map[string][]byte)
	var cat *core.CAT
	enc, err = timeRate(size, 300*time.Millisecond, func() error {
		cat, err = cd.EncodeChunks(ctx, "micro", data, plan, func(_ int, bs []core.NamedBlock) error {
			mu.Lock()
			for _, b := range bs {
				blocks[b.Name] = b.Data
			}
			mu.Unlock()
			return nil
		})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	fetch := func(name string) ([]byte, bool) {
		mu.Lock()
		defer mu.Unlock()
		d, ok := blocks[name]
		return d, ok
	}
	dec, err = timeRate(size, 300*time.Millisecond, func() error {
		out, err := cd.DecodeFile(ctx, cat, fetch)
		if err == nil && !bytes.Equal(out, data) {
			err = fmt.Errorf("core: %s decode differs from input", code)
		}
		return err
	})
	return enc, dec, err
}

// erasureRates measures the erasure kernels on one 4 MiB chunk: online
// encode and decode, and xor reconstruction with one data block
// missing.
func erasureRates() (enc, dec, recon float64, err error) {
	const n = 4 << 20
	chunk := make([]byte, n)
	fill(chunk, 2, 0)
	online, err := core.CodeFor("online", "")
	if err != nil {
		return 0, 0, 0, err
	}
	var blocks []erasure.Block
	if enc, err = timeRate(n, 300*time.Millisecond, func() (err error) {
		blocks, err = online.Encode(chunk)
		return err
	}); err != nil {
		return 0, 0, 0, err
	}
	if dec, err = timeRate(n, 300*time.Millisecond, func() error {
		return decodeCheck(online, blocks, chunk)
	}); err != nil {
		return 0, 0, 0, err
	}
	xor, err := core.CodeFor("xor", "")
	if err != nil {
		return 0, 0, 0, err
	}
	xblocks, err := xor.Encode(chunk)
	if err != nil {
		return 0, 0, 0, err
	}
	recon, err = timeRate(n, 300*time.Millisecond, func() error {
		return decodeCheck(xor, xblocks[1:], chunk)
	})
	return enc, dec, recon, err
}

func decodeCheck(c erasure.Code, blocks []erasure.Block, want []byte) error {
	got, err := c.Decode(blocks, len(want))
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("erasure: %s decode differs from input", c.Name())
	}
	return err
}

// perLayerValues computes the traced run's per-layer metrics. Counter
// ratios come from the plain windows, whose ops the benchmark counted
// exactly; spans come from the peel windows. A layer the workload does
// not exercise reads 0.
func perLayerValues(b *bench, w workload, sp spec) (map[string]float64, error) {
	st, c, s, proc, wall := b.total(plain)
	pst, _, _, _, _ := b.total(peeled)
	ops, user := float64(st.attempted), float64(st.userBytes)
	perOp := func(v float64) float64 { return ratio(v, ops) }
	m := map[string]float64{
		"gateway.get_p50_us":                c.quantile("ps_gw_request_seconds", `method="GET"`, 0.5) * 1e6,
		"gateway.first_byte_p50_us":         c.quantile("ps_gw_first_byte_seconds", "", 0.5) * 1e6,
		"gateway.self_us":                   durMedian(pst.spans["gateway_self"]),
		"peerstripe.open_us":                durMedian(pst.spans["open"]),
		"peerstripe.read_at_us":             durMedian(pst.spans["read_at"]),
		"cache.hit_ratio":                   ratio(c["ps_cache_hits_total"], c["ps_cache_hits_total"]+c["ps_cache_misses_total"]),
		"cache.decodes_per_op":              perOp(c["ps_cache_decodes_total"]),
		"cache.evictions_per_op":            perOp(c["ps_cache_evictions_total"]),
		"client.store_p50_ms":               c.quantile("ps_client_store_seconds", "", 0.5) * 1e3,
		"client.fetch_p50_ms":               c.quantile("ps_client_fetch_seconds", "", 0.5) * 1e3,
		"client.load_cat_us":                durMedian(pst.spans["load_cat"]),
		"client.hedge_fires_per_op":         perOp(c["ps_client_hedge_fires_total"]),
		"client.probe_rejects":              c["ps_client_probe_rejects_total"],
		"wire.calls_per_op":                 perOp(c.family("ps_client_calls_total")),
		"wire.call_errors_per_op":           perOp(c.family("ps_client_call_errors_total")),
		"wire.call_p50_us.fetch":            c.quantile("ps_client_call_seconds", `op="fetch"`, 0.5) * 1e6,
		"wire.bytes_out_per_user_byte":      ratio(c["ps_client_bytes_out_total"], user),
		"wire.bytes_in_per_user_byte":       ratio(c["ps_client_bytes_in_total"], user),
		"wire.dials":                        c["ps_client_dials_total"],
		"wire.retries":                      c["ps_client_retries_total"],
		"server.busy_ms_per_op":             perOp(s["ps_node_handle_seconds_sum"] * 1e3),
		"server.handle_p50_us":              s.quantile("ps_node_handle_seconds", "", 0.5) * 1e6,
		"server.ops_per_op":                 perOp(s.family("ps_node_ops_total")),
		"server.op_errors_per_op":           perOp(s["ps_node_op_errors_total"]),
		"process.allocs_per_op":             perOp(float64(proc.mallocs)),
		"process.alloc_bytes_per_user_byte": ratio(float64(proc.allocBytes), user),
		"process.cpu_s_per_op":              perOp(proc.cpu.Seconds()),
		"process.gc_cycles_per_s":           ratio(float64(proc.gcs), wall.Seconds()),
	}
	for _, op := range []string{"fetch", "store", "storewin", "fetchstream", "getcapb", "delete"} {
		m["wire.calls_per_op."+op] = perOp(c[`ps_client_calls_total{op="`+op+`"}`])
	}

	p, err := b.ring.place(w.files(), sp.code, catReplicas)
	if err != nil {
		return nil, err
	}
	m["placement.colocated_chunk_share"] = ratio(float64(p.colocated), float64(p.chunks))
	m["storage.max_node_share"] = b.medianOver(measured, func(w *window) float64 { return w.maxShare })
	if d, ok := w.(*degraded); ok {
		m["repair.bytes_per_lost_byte"] = ratio(float64(d.recreated.Load()), float64(d.lostBytes))
		m["repair.chunks_lost_per_kill"] = ratio(float64(d.chunksLost.Load()), float64(d.kills))
	} else {
		m["repair.bytes_per_lost_byte"], m["repair.chunks_lost_per_kill"] = 0, 0
	}

	// Tracing overhead: the same e2e figures from peel windows against
	// plain windows of the same run.
	plainP50 := percentile(millis(st.readLat), 50)
	m["trace.read_p50_overhead"] = ratio(percentile(millis(pst.readLat), 50), plainP50) - 1
	m["trace.read_mb_s_overhead"] = 1 - ratio(
		mbPerSec(pst.readBytes, pst.readLat), mbPerSec(st.readBytes, st.readLat))

	if m["core.encode_mb_s"], m["core.decode_mb_s"], err = codecRates(b.ctx, sp.code, sp.size, sp.chunk); err != nil {
		return nil, err
	}
	if m["erasure.encode_mb_s"], m["erasure.decode_mb_s"], m["erasure.reconstruct_mb_s"], err = erasureRates(); err != nil {
		return nil, err
	}
	return m, nil
}
