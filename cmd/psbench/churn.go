package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/node"
	"peerstripe/internal/wire"
)

// The churn experiment measures the self-healing ring end to end
// (docs/RING.md): a live loopback ring with the SWIM detector and the
// autonomous repair daemon on every node absorbs scripted deaths, and
// the harness clocks how long detection and repair take and how many
// bytes the daemons regenerate. The JSON report has the
// BENCH_PR6.json schema (see writeReport).

type churnDeathResult struct {
	Victim       int     `json:"victim"`
	DetectMS     float64 `json:"time_to_detect_ms"`
	RepairMS     float64 `json:"time_to_repair_ms"`
	RingSizeThen int     `json:"ring_size_after"`
}

type churnBenchReport struct {
	Description string `json:"description"`
	Environment struct {
		GOOS   string `json:"goos"`
		GOARCH string `json:"goarch"`
		Cores  int    `json:"cores"`
		Go     string `json:"go"`
		Date   string `json:"date"`
	} `json:"environment"`
	Config struct {
		Nodes           int    `json:"nodes"`
		Kills           int    `json:"kills"`
		Files           int    `json:"files"`
		FileSize        int    `json:"file_size_bytes"`
		ChunkCap        int    `json:"chunk_cap_bytes"`
		Code            string `json:"code"`
		ProbeIntervalMS int64  `json:"probe_interval_ms"`
		ProbeTimeoutMS  int64  `json:"probe_timeout_ms"`
		SuspicionMS     int64  `json:"suspicion_ms"`
		IndirectProbes  int    `json:"indirect_probes"`
	} `json:"config"`
	Deaths  []churnDeathResult `json:"deaths"`
	Summary struct {
		MeanDetectMS      float64 `json:"mean_time_to_detect_ms"`
		MeanRepairMS      float64 `json:"mean_time_to_repair_ms"`
		BlocksRegenerated int     `json:"blocks_regenerated"`
		BytesRegenerated  int64   `json:"bytes_regenerated"`
		FilesFailed       int     `json:"files_failed"`
		ChunksLost        int     `json:"chunks_lost"`
	} `json:"summary"`
}

// churnSafeVictim mirrors the integration harness's safety predicate:
// losing ring[pos] must keep every chunk decodable (at most tolerance
// of its blocks on the victim) and at least one CAT replica of every
// file elsewhere.
func churnSafeVictim(ring []wire.NodeInfo, pos int, fileChunks map[string]int, m, tolerance, catReplicas int) bool {
	ownerIdx := func(name string) int {
		o, _ := node.OwnerOf(ring, ids.FromName(name))
		for i, member := range ring {
			if member.ID == o.ID {
				return i
			}
		}
		return -1
	}
	for file, chunks := range fileChunks {
		for ci := 0; ci < chunks; ci++ {
			held := 0
			for e := 0; e < m; e++ {
				if ownerIdx(core.BlockName(file, ci, e)) == pos {
					held++
				}
			}
			if held > tolerance {
				return false
			}
		}
		elsewhere := 0
		for r := 0; r <= catReplicas; r++ {
			if ownerIdx(core.ReplicaName(core.CATName(file), r)) != pos {
				elsewhere++
			}
		}
		if elsewhere == 0 {
			return false
		}
	}
	return true
}

// churnWait polls cond until it holds, returning the elapsed time, or
// exits the experiment on timeout.
func churnWait(d time.Duration, what string, cond func() bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return time.Since(start)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "churn: timed out waiting for %s\n", what)
	os.Exit(1)
	return 0
}

func runChurn() {
	section("Churn: self-healing ring (time-to-detect, time-to-repair)")

	const (
		nodes    = 16
		kills    = 2
		chunkCap = 32 << 10
		fileSize = 192 << 10
		numFiles = 4
	)
	code := erasure.MustXOR(2)
	det := &node.DetectorConfig{
		ProbeInterval:    250 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		IndirectProbes:   3,
		SuspicionTimeout: 1500 * time.Millisecond,
		GossipFanout:     3,
	}
	rep := &node.RepairConfig{
		Code:        code,
		Rate:        -1,
		RetryDelay:  200 * time.Millisecond,
		MaxAttempts: 10,
		Client:      node.Config{Timeout: 2 * time.Second, ChunkCap: chunkCap},
	}

	servers := make([]*node.Server, nodes)
	seed := ""
	for i := 0; i < nodes; i++ {
		var id ids.ID
		id[0] = byte(i * 256 / nodes)
		s, err := node.NewServerOpts("127.0.0.1:0", 1<<30, seed, node.ServerOptions{
			ID: &id, Detector: det, Repair: rep,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "churn: %v\n", err)
			os.Exit(1)
		}
		defer s.Close()
		servers[i] = s
		if seed == "" {
			seed = s.Addr()
		}
	}
	churnWait(60*time.Second, "membership to converge", func() bool {
		for _, s := range servers {
			if s.RingSize() != nodes {
				return false
			}
		}
		return true
	})

	writer, err := node.NewClientCfg(context.Background(), seed, code, node.Config{ChunkCap: chunkCap})
	if err != nil {
		fmt.Fprintf(os.Stderr, "churn: %v\n", err)
		os.Exit(1)
	}
	defer writer.Close()
	fileChunks := make(map[string]int)
	dataRNG := rand.New(rand.NewSource(7))
	for i := 0; i < numFiles; i++ {
		name := fmt.Sprintf("churn-bench-%d.dat", i)
		data := make([]byte, fileSize)
		dataRNG.Read(data)
		cat, err := writer.StoreFile(name, data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "churn: store %s: %v\n", name, err)
			os.Exit(1)
		}
		fileChunks[name] = cat.NumChunks()
	}
	m := code.EncodedBlocks()
	tolerance := m - code.MinNeeded()
	catReplicas := writer.Config().CATReplicas

	var names []string
	for file, chunks := range fileChunks {
		for ci := 0; ci < chunks; ci++ {
			for e := 0; e < m; e++ {
				names = append(names, core.BlockName(file, ci, e))
			}
		}
		for r := 0; r <= catReplicas; r++ {
			names = append(names, core.ReplicaName(core.CATName(file), r))
		}
	}

	var report churnBenchReport
	report.Description = "Self-healing ring experiment (PR 6): a live loopback ring with the SWIM-style failure detector and the autonomous repair daemon on every node absorbs scripted node deaths with zero manual intervention. time_to_detect is Close()-to-death-committed-on-every-survivor; time_to_repair is Close()-to-every-block-of-every-file-fetchable-at-its-survivor-ring-owner. Regenerated byte counts come from the daemons' own RepairReport. Command: go run ./cmd/psbench -exp churn. Design in docs/RING.md."
	report.Environment.GOOS = runtime.GOOS
	report.Environment.GOARCH = runtime.GOARCH
	report.Environment.Cores = runtime.NumCPU()
	report.Environment.Go = runtime.Version()
	report.Environment.Date = time.Now().Format("2006-01-02")
	report.Config.Nodes = nodes
	report.Config.Kills = kills
	report.Config.Files = numFiles
	report.Config.FileSize = fileSize
	report.Config.ChunkCap = chunkCap
	report.Config.Code = "xor(2,3)"
	report.Config.ProbeIntervalMS = det.ProbeInterval.Milliseconds()
	report.Config.ProbeTimeoutMS = det.ProbeTimeout.Milliseconds()
	report.Config.SuspicionMS = det.SuspicionTimeout.Milliseconds()
	report.Config.IndirectProbes = det.IndirectProbes

	aliveRing := func(dead map[int]bool) []wire.NodeInfo {
		var ring []wire.NodeInfo
		for i, s := range servers {
			if !dead[i] {
				ring = append(ring, wire.NodeInfo{ID: s.ID, Addr: s.Addr()})
			}
		}
		return ring
	}

	rng := rand.New(rand.NewSource(43))
	dead := make(map[int]bool)
	fmt.Printf("%-8s %-18s %-18s\n", "victim", "time-to-detect", "time-to-repair")
	for k := 0; k < kills; k++ {
		ring := aliveRing(dead)
		var safe []int
		for pos := range ring {
			if churnSafeVictim(ring, pos, fileChunks, m, tolerance, catReplicas) {
				safe = append(safe, pos)
			}
		}
		if len(safe) == 0 {
			fmt.Fprintln(os.Stderr, "churn: no safe victim left")
			os.Exit(1)
		}
		victimID := ring[safe[rng.Intn(len(safe))]].ID
		victim := -1
		for i, s := range servers {
			if s.ID == victimID {
				victim = i
			}
		}

		start := time.Now()
		servers[victim].Close()
		dead[victim] = true
		detect := churnWait(60*time.Second, fmt.Sprintf("death %d to commit", k), func() bool {
			for i, s := range servers {
				if dead[i] {
					continue
				}
				if st, ok := s.MemberState(victimID); !ok || st != wire.StateDead {
					return false
				}
			}
			return true
		})
		vc := node.NewStaticClientCfg(aliveRing(dead), code, node.Config{Timeout: 2 * time.Second})
		churnWait(120*time.Second, fmt.Sprintf("repair after death %d", k), func() bool {
			for _, bn := range names {
				if _, err := vc.FetchBlock(bn); err != nil {
					return false
				}
			}
			return true
		})
		repairTotal := time.Since(start)
		vc.Close()

		fmt.Printf("%-8d %-18s %-18s\n", victim, detect.Round(time.Millisecond), repairTotal.Round(time.Millisecond))
		report.Deaths = append(report.Deaths, churnDeathResult{
			Victim:       victim,
			DetectMS:     float64(detect.Microseconds()) / 1000,
			RepairMS:     float64(repairTotal.Microseconds()) / 1000,
			RingSizeThen: nodes - len(dead),
		})
	}

	for i, s := range servers {
		if dead[i] {
			continue
		}
		rpt := s.RepairReport()
		report.Summary.BlocksRegenerated += rpt.BlocksRecreated
		report.Summary.BytesRegenerated += rpt.BytesRecreated
		report.Summary.FilesFailed += rpt.FilesFailed
		report.Summary.ChunksLost += rpt.ChunksLost
	}
	for _, d := range report.Deaths {
		report.Summary.MeanDetectMS += d.DetectMS / float64(len(report.Deaths))
		report.Summary.MeanRepairMS += d.RepairMS / float64(len(report.Deaths))
	}

	fmt.Printf("\nregenerated %d blocks (%d bytes) autonomously; %d files failed, %d chunks lost\n",
		report.Summary.BlocksRegenerated, report.Summary.BytesRegenerated,
		report.Summary.FilesFailed, report.Summary.ChunksLost)

	writeReport("churn", &report)
}
