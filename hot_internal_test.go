package peerstripe

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"peerstripe/internal/core"
)

// TestStaleHotMarkerIgnoredAfterRestore pins the content binding of
// hot promotion: when a re-store's best-effort demote never runs (here
// simulated by re-storing through the internal client, which is
// exactly the state a failed demote leaves), the surviving .HOT marker
// and full-copy replicas still describe the OLD bytes. The new layout
// has identical chunk extents — every stale replica matches the new
// chunk lengths — so before markers were bound to the CAT's content
// hash, readers served the old bytes. They must fall back to the
// coded path and return the new ones.
func TestStaleHotMarkerIgnoredAfterRestore(t *testing.T) {
	seed := internalRing(t, 4)

	const chunk = 64 << 10
	ctx := context.Background()
	c, err := Dial(ctx, seed, WithCode("xor"), WithChunkCap(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v1 := make([]byte, 3*chunk)
	rand.New(rand.NewSource(21)).Read(v1)
	if _, err := c.StoreBytes(ctx, "stale.dat", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Promote(ctx, "stale.dat", 2); err != nil {
		t.Fatal(err)
	}

	// Re-store same-size different bytes through the internal client:
	// no demote, no cache invalidate — the marker and v1 replicas
	// survive, bound to v1's CAT hash.
	v2 := make([]byte, 3*chunk)
	rand.New(rand.NewSource(22)).Read(v2)
	plan := core.PlanChunkSizes(int64(len(v2)), c.opts.maxChunk())
	if _, err := c.c.StoreReader(ctx, "stale.dat", bytes.NewReader(v2), plan); err != nil {
		t.Fatal(err)
	}

	// The stale marker must still be there (the premise of the test)…
	copies, _, err := c.c.HotCopiesCtx(ctx, "stale.dat")
	if err != nil || copies != 2 {
		t.Fatalf("stale marker gone (copies=%d, err=%v); test premise broken", copies, err)
	}

	// …and a fresh client must read v2 regardless.
	c2, err := Dial(ctx, seed, WithCode("xor"), WithChunkCap(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	f, err := c2.Open(ctx, "stale.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, v1) {
		t.Fatal("read served stale hot replicas of the old bytes")
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("read matches neither version")
	}
}
