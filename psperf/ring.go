package main

import (
	"bytes"
	"fmt"
	"time"

	"peerstripe"
	"peerstripe/internal/core"
	"peerstripe/internal/ids"
	"peerstripe/internal/node"
	"peerstripe/internal/wire"
)

// ringSize is the number of storage nodes; nodeCapacity is what each
// contributes — far above any workload's footprint, so capacity probes
// never refuse.
const (
	ringSize     = 4
	nodeCapacity = 8 << 30
)

// nodeNames are the fixed ring identities. A node's identifier is
// derived from its name, so block placement depends on the object
// names and these names alone, never on the ephemeral listen ports.
var nodeNames = []string{"n0", "n1", "n2", "n3"}

// ring is an in-process storage ring on loopback TCP.
type ring struct {
	nodes []*peerstripe.Node // nil while a node is down
	addrs []string
	info  []wire.NodeInfo // full membership's identifiers, for placement

	// retired accumulates the server counters of node instances that
	// were closed, so totals stay monotonic across restarts.
	retired metricSet
}

// nodeID is the ring identifier peerstripe.ListenAndServe derives from
// a node name; startRing checks it against what the node reports.
func nodeID(name string) ids.ID { return ids.FromName("node:" + name) }

// placementRing is the membership the fixed node names produce, as
// far as placement sees it: identifiers only.
func placementRing() []wire.NodeInfo {
	info := make([]wire.NodeInfo, len(nodeNames))
	for i, n := range nodeNames {
		info[i] = wire.NodeInfo{ID: nodeID(n)}
	}
	return info
}

func startRing() (*ring, error) {
	r := &ring{retired: make(metricSet)}
	for i, name := range nodeNames {
		seed := ""
		if i > 0 {
			seed = r.addrs[0]
		}
		n, err := peerstripe.ListenAndServe("127.0.0.1:0", nodeCapacity, seed, name)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("start node %s: %w", name, err)
		}
		if n.ID() != nodeID(name).Short() {
			n.Close()
			r.close()
			return nil, fmt.Errorf("node %s: identifier %s, placement model expects %s", name, n.ID(), nodeID(name).Short())
		}
		r.nodes = append(r.nodes, n)
		r.addrs = append(r.addrs, n.Addr())
	}
	r.info = placementRing()
	if err := r.converge(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// converge waits until every live node sees the whole ring.
func (r *ring) converge() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, n := range r.nodes {
			if n != nil && n.RingSize() != ringSize {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *ring) close() {
	for _, n := range r.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// kill closes node i, discarding its blocks, as when a contributor
// leaves the pool.
func (r *ring) kill(i int) error {
	m, err := nodeMetrics(r.nodes[i])
	if err != nil {
		return err
	}
	r.retired.add(m)
	err = r.nodes[i].Close()
	r.nodes[i] = nil
	return err
}

// restart brings node i back empty under its old name and address.
func (r *ring) restart(i int) error {
	seed := ""
	for j, n := range r.nodes {
		if n != nil && j != i {
			seed = r.addrs[j]
			break
		}
	}
	n, err := peerstripe.ListenAndServe(r.addrs[i], nodeCapacity, seed, nodeNames[i])
	if err != nil {
		return fmt.Errorf("restart node %s: %w", nodeNames[i], err)
	}
	r.nodes[i] = n
	return r.converge()
}

// owner returns the index of the node a block name is placed on.
func (r *ring) owner(name string) int {
	o, err := node.OwnerOf(r.info, ids.FromName(name))
	if err != nil {
		return -1
	}
	for i, n := range r.info {
		if n.ID == o.ID {
			return i
		}
	}
	return -1
}

// used returns each node's stored bytes (0 while down).
func (r *ring) used() []int64 {
	out := make([]int64, len(r.nodes))
	for i, n := range r.nodes {
		if n != nil {
			out[i] = n.Used()
		}
	}
	return out
}

func nodeMetrics(n *peerstripe.Node) (metricSet, error) {
	var buf bytes.Buffer
	if err := n.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return parseText(&buf)
}

// serverTotals sums the server counters of every node instance the
// ring has run, live and retired.
func (r *ring) serverTotals() (metricSet, error) {
	total := make(metricSet)
	total.add(r.retired)
	for _, n := range r.nodes {
		if n == nil {
			continue
		}
		m, err := nodeMetrics(n)
		if err != nil {
			return nil, err
		}
		total.add(m)
	}
	return total, nil
}

// placement describes where a file's blocks land: how many of its
// chunks put two or more blocks on one node, and the chunks each node's
// loss would make undecodable.
type placement struct {
	chunks, colocated int
	// lostIf[v] lists the files unreadable after node v is lost:
	// a chunk loses more blocks than the code tolerates, or every
	// CAT replica sits on v.
	lostIf [ringSize]map[string]bool
}

// place models the placement of files (name → chunk count) stored with
// the given code and CAT replica count, through core.BlockName and
// node.OwnerOf exactly as the client places them.
func (r *ring) place(files map[string]int, code string, catReplicas int) (placement, error) {
	c, err := core.CodeFor(code, "")
	if err != nil {
		return placement{}, err
	}
	m, tolerance := c.EncodedBlocks(), c.EncodedBlocks()-c.MinNeeded()
	var p placement
	for v := range p.lostIf {
		p.lostIf[v] = make(map[string]bool)
	}
	for file, chunks := range files {
		for ci := 0; ci < chunks; ci++ {
			var per [ringSize]int
			for e := 0; e < m; e++ {
				per[r.owner(core.BlockName(file, ci, e))]++
			}
			p.chunks++
			colocated := false
			for v, k := range per {
				if k >= 2 {
					colocated = true
				}
				if k > tolerance {
					p.lostIf[v][file] = true
				}
			}
			if colocated {
				p.colocated++
			}
		}
		var catOn [ringSize]int
		for rep := 0; rep <= catReplicas; rep++ {
			catOn[r.owner(core.ReplicaName(core.CATName(file), rep))]++
		}
		for v, k := range catOn {
			if k == catReplicas+1 {
				p.lostIf[v][file] = true
			}
		}
	}
	return p, nil
}
