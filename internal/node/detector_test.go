package node

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/erasure"
	"peerstripe/internal/ids"
	"peerstripe/internal/wire"
)

// fastDetector returns probe knobs scaled for in-process tests: whole
// detection cycles complete in well under a second while keeping the
// direct → indirect → suspect → dead structure intact.
func fastDetector() *DetectorConfig {
	return &DetectorConfig{
		ProbeInterval:    40 * time.Millisecond,
		ProbeTimeout:     150 * time.Millisecond,
		IndirectProbes:   2,
		SuspicionTimeout: 500 * time.Millisecond,
		GossipFanout:     3,
	}
}

// detectorRing starts n detector-enabled nodes with deterministic,
// evenly spaced ring IDs and a full mutual membership view. advertise,
// when non-nil, gives node i's dial address in every view (proxy
// fronting; the node advertises it so gossip never leaks the direct
// address) — the caller points each proxy at servers[i].Addr() after.
// viewFor, when non-nil, overrides individual nodes' initial views
// (nil return keeps the shared one) — how a test hands one node a
// broken route.
func detectorRing(t testing.TB, n int, det *DetectorConfig, rep *RepairConfig,
	advertise []string, viewFor func(i int, shared []wire.NodeInfo) []wire.NodeInfo) ([]*Server, []wire.NodeInfo) {
	t.Helper()
	servers := make([]*Server, n)
	ring := make([]wire.NodeInfo, n)
	for i := 0; i < n; i++ {
		var id ids.ID
		id[0] = byte(i * 256 / n)
		ring[i] = wire.NodeInfo{ID: id}
		opts := ServerOptions{ID: &id, Detector: det, Repair: rep}
		if advertise != nil {
			opts.Advertise = advertise[i]
		}
		s, err := NewServerOpts("127.0.0.1:0", 1<<30, "", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		servers[i] = s
		if advertise != nil {
			ring[i].Addr = advertise[i]
		} else {
			ring[i].Addr = s.Addr()
		}
	}
	for i, s := range servers {
		view := ring
		if viewFor != nil {
			if v := viewFor(i, ring); v != nil {
				view = v
			}
		}
		s.applyAliveInfos(view)
	}
	return servers, ring
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDetectorEvictsDeadNode: a killed node must transit suspect →
// dead in every survivor's view with no manual call, and leave the
// placement ring.
func TestDetectorEvictsDeadNode(t *testing.T) {
	const n = 5
	servers, ring := detectorRing(t, n, fastDetector(), nil, nil, nil)
	victim := n - 1
	servers[victim].Close()

	waitFor(t, 15*time.Second, "death to commit everywhere", func() bool {
		for i, s := range servers {
			if i == victim {
				continue
			}
			st, ok := s.MemberState(ring[victim].ID)
			if !ok || st != wire.StateDead || s.RingSize() != n-1 {
				return false
			}
		}
		return true
	})
}

// TestPingReqResolvesTargetFromOwnView pins the mechanism that defeats
// asymmetric partitions: the helper probes the target at the address
// its OWN membership view holds, not the (broken) one the requester
// carried. With a blackhole route in the request and a good route in
// the view, the indirect probe must succeed; for an unknown target the
// helper has only the broken carried route and must report failure.
func TestPingReqResolvesTargetFromOwnView(t *testing.T) {
	target, err := NewServer("127.0.0.1:0", 1<<30, "")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	hole := newFlakyProxy(t, "", 1, 0)
	hole.setBlackhole(true)

	helper, err := NewServerOpts("127.0.0.1:0", 1<<30, "", ServerOptions{
		StaticRing: []wire.NodeInfo{{ID: target.ID, Addr: target.Addr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer helper.Close()

	resp, err := wire.Call(helper.Addr(), &wire.Request{
		Op:   wire.OpPingReq,
		Node: wire.NodeInfo{ID: target.ID, Addr: hole.addr()}, // requester's broken route
	})
	if err != nil || !resp.OK {
		t.Fatalf("indirect probe with a good own-view route failed: %v (resp %+v)", err, resp)
	}

	var unknown ids.ID
	unknown[0] = 0xEE
	if resp, err := wire.Call(helper.Addr(), &wire.Request{
		Op:   wire.OpPingReq,
		Node: wire.NodeInfo{ID: unknown, Addr: hole.addr()},
	}); err == nil && resp != nil && resp.OK {
		t.Fatal("indirect probe through a blackhole route reported the target alive")
	}
}

// TestDetectorAsymmetricPartitionNoEviction: node 0's route to node 1
// is a blackhole (requests hang), every other pairwise route is fine.
// SWIM's indirect probes must keep node 1 un-evicted: peers confirm it
// on node 0's behalf, so one broken route never condemns a healthy
// node.
func TestDetectorAsymmetricPartitionNoEviction(t *testing.T) {
	const n = 4
	hole := newFlakyProxy(t, "", 2, 0)
	hole.setBlackhole(true)
	det := fastDetector()
	servers, ring := detectorRing(t, n, det, nil, nil,
		func(i int, shared []wire.NodeInfo) []wire.NodeInfo {
			if i != 0 {
				return nil
			}
			broken := append([]wire.NodeInfo(nil), shared...)
			broken[1].Addr = hole.addr() // node 0 cannot reach node 1
			return broken
		})

	// Several suspicion windows of exposure.
	deadline := time.Now().Add(6 * det.SuspicionTimeout)
	for time.Now().Before(deadline) {
		for i, s := range servers {
			if st, ok := s.MemberState(ring[1].ID); ok && st == wire.StateDead {
				t.Fatalf("node %d evicted the asymmetric-partition target", i)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	// The broken route never produced an eviction; node 1 must still be
	// in everyone's placement ring.
	for i, s := range servers {
		if s.RingSize() != n {
			t.Fatalf("node %d ring shrank to %d", i, s.RingSize())
		}
	}
}

// TestDetectorLossyLinksNoEviction: every inter-node route drops ~35%
// of connections (seeded). Probes fail and retry, suspicion may come
// and go, but no healthy node may ever be declared dead.
func TestDetectorLossyLinksNoEviction(t *testing.T) {
	const n = 4
	proxies := make([]*flakyProxy, n)
	advertise := make([]string, n)
	for i := range proxies {
		proxies[i] = newFlakyProxy(t, "", 100+int64(i), time.Millisecond)
		proxies[i].setDropProb(0.35)
		advertise[i] = proxies[i].addr()
	}
	det := fastDetector()
	det.SuspicionTimeout = time.Second
	servers, ring := detectorRing(t, n, det, nil, advertise, nil)
	for i, s := range servers {
		proxies[i].setBackend(s.Addr())
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for i, s := range servers {
			for j := range ring {
				if i == j {
					continue
				}
				if st, ok := s.MemberState(ring[j].ID); ok && st == wire.StateDead {
					t.Fatalf("node %d evicted node %d over a merely lossy link", i, j)
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestForgedSuspicionRefuted: inject a false suspicion about a live
// member. The member must refute it by bumping its incarnation, and no
// node may ever commit the death.
func TestForgedSuspicionRefuted(t *testing.T) {
	const n = 3
	det := fastDetector()
	servers, ring := detectorRing(t, n, det, nil, nil, nil)
	accused := servers[1]

	forged := wire.EncodeUpdates([]wire.MemberUpdate{
		{Node: ring[1], State: wire.StateSuspect, Inc: 0},
	})
	if _, err := wire.Call(servers[0].Addr(), &wire.Request{Op: wire.OpGossip, Data: forged}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, "refutation to raise the incarnation", func() bool {
		return accused.Incarnation() >= 1
	})
	// Outlive the suspicion window with margin: the refutation must
	// have cleared the suspicion before it could commit anywhere.
	deadline := time.Now().Add(3 * det.SuspicionTimeout)
	for time.Now().Before(deadline) {
		for i, s := range servers {
			if st, ok := s.MemberState(ring[1].ID); ok && st == wire.StateDead {
				t.Fatalf("node %d committed a forged death of a live member", i)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, s := range servers {
		if s.RingSize() != n {
			t.Fatalf("node %d ring shrank to %d after forged suspicion", i, s.RingSize())
		}
	}
}

// TestDetectorOldPeerNotEvicted: a member behind a pre-gossip front
// (answers every probe op with "unknown op") must read as alive —
// reachable but old — and the mixed ring must keep storing and
// fetching.
func TestDetectorOldPeerNotEvicted(t *testing.T) {
	old, err := NewServer("127.0.0.1:0", 1<<30, "")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	front := startPreBatchFront(t, old.Addr())
	oldInfo := wire.NodeInfo{ID: old.ID, Addr: front}

	const n = 3
	det := fastDetector()
	servers, ring := detectorRing(t, n, det, nil, nil,
		func(i int, shared []wire.NodeInfo) []wire.NodeInfo {
			return append(append([]wire.NodeInfo(nil), shared...), oldInfo)
		})

	deadline := time.Now().Add(6 * det.SuspicionTimeout)
	for time.Now().Before(deadline) {
		for i, s := range servers {
			st, ok := s.MemberState(old.ID)
			if !ok {
				t.Fatalf("node %d dropped the old peer from its table", i)
			}
			if st == wire.StateDead {
				t.Fatalf("node %d evicted a reachable pre-gossip peer", i)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The mixed ring still works end to end.
	view := append(append([]wire.NodeInfo(nil), ring...), oldInfo)
	c := NewStaticClientCfg(view, erasure.MustXOR(2), Config{ChunkCap: 32 << 10})
	defer c.Close()
	data := make([]byte, 120<<10)
	rand.New(rand.NewSource(5)).Read(data)
	if _, err := c.StoreFile("mixed.dat", data); err != nil {
		t.Fatalf("store on mixed ring: %v", err)
	}
	got, err := c.FetchFile("mixed.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch on mixed ring: %v", err)
	}
}

// TestRepairDaemonHealsAfterDeath is the package-level end-to-end of
// the tentpole: a node dies; the detector commits the death; the
// repair daemon re-mints the lost blocks on survivors with zero manual
// Repair/PruneRing calls, until every block of the file is resident
// again under the survivor ring.
func TestRepairDaemonHealsAfterDeath(t *testing.T) {
	const (
		n        = 8
		fileName = "self-heal.dat"
	)
	code := erasure.MustXOR(2)
	det := fastDetector()
	rep := &RepairConfig{
		Code:        code,
		Rate:        -1, // unmetered for the test
		RetryDelay:  100 * time.Millisecond,
		MaxAttempts: 10,
		Client:      Config{Timeout: 2 * time.Second, ChunkCap: 32 << 10},
	}
	servers, ring := detectorRing(t, n, det, rep, nil, nil)

	c := NewStaticClientCfg(ring, code, Config{ChunkCap: 32 << 10, Timeout: 3 * time.Second})
	defer c.Close()
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(11)).Read(data)
	cat, err := c.StoreFile(fileName, data)
	if err != nil {
		t.Fatal(err)
	}
	chunks := cat.NumChunks()
	victim := safeVictim(ring, map[string]int{fileName: chunks},
		code.EncodedBlocks(), code.EncodedBlocks()-code.MinNeeded(), c.Config().CATReplicas)
	if victim < 0 {
		t.Fatal("no safe victim in deterministic placement — adjust node count or file name")
	}
	servers[victim].Close()

	// Survivor view, for the verification client.
	var survivors []wire.NodeInfo
	for i, ninfo := range ring {
		if i != victim {
			survivors = append(survivors, ninfo)
		}
	}
	vc := NewStaticClientCfg(survivors, code, Config{Timeout: 2 * time.Second})
	defer vc.Close()

	var names []string
	for ci := 0; ci < chunks; ci++ {
		if cat.Rows[ci].Empty() {
			continue
		}
		for e := 0; e < code.EncodedBlocks(); e++ {
			names = append(names, core.BlockName(fileName, ci, e))
		}
	}
	for r := 0; r <= c.Config().CATReplicas; r++ {
		names = append(names, core.ReplicaName(core.CATName(fileName), r))
	}

	deadline := time.Now().Add(30 * time.Second)
	waitFor(t, time.Until(deadline), "autonomous repair to restore full redundancy", func() bool {
		for _, bn := range names {
			if _, err := vc.fetchBlock(context.Background(), bn); err != nil {
				return false
			}
		}
		return true
	})

	// The daemon, not a manual pass, did the work. A job adds to its
	// server's report only after its repair pass returns, so the healed
	// blocks can be visible a moment before the report moves.
	reports := func() (recreated int, bytesRecreated int64) {
		for i, s := range servers {
			if i == victim {
				continue
			}
			rpt := s.RepairReport()
			recreated += rpt.BlocksRecreated
			bytesRecreated += rpt.BytesRecreated
		}
		return recreated, bytesRecreated
	}
	waitFor(t, time.Until(deadline), "repair reports to record the healed blocks", func() bool {
		r, b := reports()
		return r > 0 && b > 0
	})
	recreated, bytesRecreated := reports()
	if recreated == 0 || bytesRecreated == 0 {
		t.Fatalf("repair reports show no work: %d blocks, %d bytes", recreated, bytesRecreated)
	}

	// And the file itself reads back intact through the healed ring.
	got, err := vc.FetchFile(fileName)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch after autonomous repair: %v", err)
	}
}

// TestStatExtReportsMembership: the OpStat JSON extension must carry
// the member-state counts and repair-queue depth to StatNodeCtx.
func TestStatExtReportsMembership(t *testing.T) {
	const n = 3
	servers, _ := detectorRing(t, n, fastDetector(), nil, nil, nil)
	c := NewStaticClientCfg(nil, erasure.MustXOR(2), Config{})
	defer c.Close()
	st, err := c.StatNodeCtx(context.Background(), servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.Alive != n {
		t.Fatalf("stat ext alive = %d, want %d", st.Alive, n)
	}
	if st.Suspect != 0 || st.Dead != 0 || st.RepairQueue != 0 {
		t.Fatalf("unexpected nonzero ext fields: %+v", st)
	}
}
