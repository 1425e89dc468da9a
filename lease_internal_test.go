package peerstripe

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/node"
)

// internalRing starts n in-process storage nodes, waits for their
// views to converge, and returns the seed address.
func internalRing(t testing.TB, n int) string {
	t.Helper()
	seed := ""
	var servers []*node.Server
	for i := 0; i < n; i++ {
		s, err := node.NewServer("127.0.0.1:0", 1<<30, seed)
		if err != nil {
			t.Fatal(err)
		}
		if seed == "" {
			seed = s.Addr()
		}
		servers = append(servers, s)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, s := range servers {
			if s.RingSize() != n {
				converged = false
			}
		}
		if converged {
			return seed
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("ring did not converge")
	return ""
}

func testCAT(sum uint64) *core.CAT {
	return &core.CAT{File: "f", Rows: []core.CATRow{{Start: 0, End: 10, Sum: sum}}}
}

func noMarker(context.Context, string) (int, uint64, error) { return 0, 0, nil }

// blockingLease returns a lease whose CAT loads signal started and
// then wait for release before returning cat.
func blockingLease(cat *core.CAT) (l *catLease, started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	l = newCATLease(func(context.Context, string) (*core.CAT, error) {
		close(started)
		<-release
		return cat, nil
	}, noMarker)
	return l, started, release
}

// TestLeaseInvalidateDoomsInflightLoad pins the generation check: a
// CAT load that started before an invalidate (a local Delete) or an
// install (a local Store) completes after it without installing its
// older result. The Open that ran the load still gets it — it raced
// the write.
func TestLeaseInvalidateDoomsInflightLoad(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		write func(l *catLease)
		want  *core.CAT // entry after the load completes
	}{
		{"invalidate", func(l *catLease) { l.invalidate("f") }, nil},
		{"install", func(l *catLease) { l.install("f", testCAT(2)) }, testCAT(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, started, release := blockingLease(testCAT(1))
			defer l.close()
			done := make(chan *leaseEntry, 1)
			go func() {
				e, _, err := l.open(ctx, "f")
				if err != nil {
					t.Error(err)
				}
				done <- e
			}()
			<-started
			tc.write(l)
			close(release)
			if e := <-done; e == nil || e.ver != testCAT(1).Hash() {
				t.Fatal("the racing Open did not get the loaded CAT")
			}
			l.mu.Lock()
			e := l.entries["f"]
			l.mu.Unlock()
			switch {
			case tc.want == nil && e != nil:
				t.Fatal("a load doomed by invalidate installed its result")
			case tc.want != nil && (e == nil || e.ver != tc.want.Hash()):
				t.Fatal("a load doomed by install replaced the committed CAT")
			}
		})
	}
}

// TestLeaseSweepsExpiredEntries pins that no per-name lease state
// outlives its TTL: the sweeper drops expired entries without any
// further lease traffic, and disarms once the lease is empty.
func TestLeaseSweepsExpiredEntries(t *testing.T) {
	l := newCATLease(nil, noMarker)
	defer l.close()
	l.install("a", testCAT(1))
	time.Sleep(catLeaseTTL / 2)
	l.install("b", testCAT(2))

	size := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.entries)
	}
	time.Sleep(catLeaseTTL/2 + 100*time.Millisecond)
	if n := size(); n != 1 {
		t.Fatalf("%d entries just past a's expiry, want 1 (b)", n)
	}
	time.Sleep(catLeaseTTL / 2)
	l.mu.Lock()
	n, armed := len(l.entries), l.sweep != nil
	l.mu.Unlock()
	if n != 0 || armed {
		t.Fatalf("%d entries (sweeper armed: %v) past every expiry, want 0 and disarmed", n, armed)
	}
}

// TestFullReadHashesOutsideCacheLock pins the cache-key satellite: a
// full read of a many-row file hashes its CAT once (when the lease
// loads it), not once per chunk, and the core decode path that still
// keys the cache per chunk (here, Promote's chunk reads) hashes before
// taking the client-wide cache lock, never under it.
func TestFullReadHashesOutsideCacheLock(t *testing.T) {
	seed := internalRing(t, 4)
	const (
		chunk = 4 << 10
		rows  = 64
	)
	ctx := context.Background()
	c, err := Dial(ctx, seed, WithCode("xor"), WithChunkCap(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, rows*chunk)
	rand.New(rand.NewSource(71)).Read(data)
	if _, err := c.StoreBytes(ctx, "rows.dat", data); err != nil {
		t.Fatal(err)
	}
	// One transfer at a time: no other reader can hold the cache lock
	// while a hash runs, so a failed TryLock means the hashing caller
	// holds it.
	r, err := Dial(ctx, seed, WithCode("xor"), WithChunkCap(chunk), WithTransfers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var hashes, underLock atomic.Int64
	orig := catHash
	catHash = func(cat *core.CAT) uint64 {
		hashes.Add(1)
		if r.cache.mu.TryLock() {
			r.cache.mu.Unlock()
		} else {
			underLock.Add(1)
		}
		return orig(cat)
	}
	t.Cleanup(func() { catHash = orig })

	f, err := r.Open(ctx, "rows.dat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("full read: equal=%v err=%v", bytes.Equal(got, data), err)
	}
	if n := hashes.Load(); n > 1 {
		t.Errorf("full read of %d rows hashed the CAT %d times, want at most 1", rows, n)
	}

	if _, err := r.Promote(ctx, "rows.dat", 1); err != nil {
		t.Fatal(err)
	}
	if n := hashes.Load(); n < rows {
		t.Fatalf("Promote hashed the CAT %d times; the per-chunk core path went unexercised", n)
	}
	if n := underLock.Load(); n != 0 {
		t.Errorf("%d CAT hashes ran under the chunk-cache lock, want 0", n)
	}
}

// TestLeaseRenewReadsMarkerInSameWave pins that a renewal needing both
// the CAT and the hot marker reads them concurrently — one round trip,
// not two: each read here waits until the other has started.
func TestLeaseRenewReadsMarkerInSameWave(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(2)
	both := make(chan struct{})
	go func() { wg.Wait(); close(both) }()
	meet := func(ctx context.Context) error {
		wg.Done()
		select {
		case <-both:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	cat := testCAT(1)
	l := newCATLease(func(ctx context.Context, _ string) (*core.CAT, error) {
		return cat, meet(ctx)
	}, func(ctx context.Context, _ string) (int, uint64, error) {
		return 2, cat.Hash(), meet(ctx)
	})
	defer l.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	copies, err := l.renew(ctx, "f", cat.Hash(), true)
	if err != nil || copies != 2 {
		t.Fatalf("renew: copies %d, err %v (a serial wave times out)", copies, err)
	}
}

// TestLeaseLocalPromoteSetsHotState pins that this client's own
// Promote and Demote update the leased version's hot state, so its
// next reads use (or stop using) the replicas without a marker read.
func TestLeaseLocalPromoteSetsHotState(t *testing.T) {
	seed := internalRing(t, 4)
	const chunk, chunks = 64 << 10, 4
	ctx := context.Background()
	c, err := Dial(ctx, seed, WithCode("xor"), WithChunkCap(chunk), WithChunkCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, chunks*chunk)
	rand.New(rand.NewSource(73)).Read(data)
	if _, err := c.StoreBytes(ctx, "hot.dat", data); err != nil {
		t.Fatal(err)
	}
	hot := func() int {
		c.lease.mu.Lock()
		defer c.lease.mu.Unlock()
		if e, ok := c.lease.entries["hot.dat"]; ok {
			return e.hot
		}
		return -1
	}
	fetches := func() int64 { return c.Metrics().Counters[`ps_client_calls_total{op="fetch"}`] }

	if _, err := c.Promote(ctx, "hot.dat", 2); err != nil {
		t.Fatal(err)
	}
	if n := hot(); n != 2 {
		t.Fatalf("leased hot state after Promote: %d copies, want 2", n)
	}
	base := fetches()
	f, err := c.Open(ctx, "hot.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("promoted read: %v", err)
	}
	f.Close()
	// One CAT read (the renewal, or Open's load if the lease expired)
	// plus one replica per chunk; no marker read.
	if d := fetches() - base; d != chunks+1 {
		t.Errorf("promoted read cost %d fetches, want %d", d, chunks+1)
	}

	if err := c.Demote(ctx, "hot.dat"); err != nil {
		t.Fatal(err)
	}
	if n := hot(); n != 0 {
		t.Fatalf("leased hot state after Demote: %d copies, want 0", n)
	}
}
