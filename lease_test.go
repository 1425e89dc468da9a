package peerstripe_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peerstripe"
)

// leaseTTL mirrors the client's CAT lease TTL (one second).
const leaseTTL = time.Second

// wireCalls sums the client's ps_client_calls_total series: every
// round trip the wire pool made, across ops.
func wireCalls(c *peerstripe.Client) int64 {
	var n int64
	for name, v := range c.Metrics().Counters {
		if strings.HasPrefix(name, "ps_client_calls_total") {
			n += v
		}
	}
	return n
}

func versionBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestLeaseWarmOpenZeroWireCalls pins the tentpole: once a range is
// cached and the name's CAT is leased, a repeat Open+ReadAt of that
// range makes no wire call at all.
func TestLeaseWarmOpenZeroWireCalls(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	const chunk = 64 << 10
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	ctx := context.Background()
	data := versionBytes(31, 4*chunk)
	if _, err := c.StoreBytes(ctx, "warm.dat", data); err != nil {
		t.Fatal(err)
	}

	read := func() {
		t.Helper()
		f, err := c.Open(ctx, "warm.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 4096)
		if _, err := f.ReadAt(buf, chunk+100); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[chunk+100:chunk+100+4096]) {
			t.Fatal("ranged bytes differ")
		}
	}
	read() // warm-up: renews the lease and decodes chunk 1

	before := c.Metrics().Counters
	calls := wireCalls(c)
	read()
	if d := wireCalls(c) - calls; d != 0 {
		t.Errorf("warm Open+ReadAt made %d wire calls, want 0", d)
	}
	after := c.Metrics().Counters
	if d := after["ps_cat_lease_hits_total"] - before["ps_cat_lease_hits_total"]; d != 1 {
		t.Errorf("lease hits moved by %d, want 1", d)
	}
	if d := after["ps_cat_lease_misses_total"] - before["ps_cat_lease_misses_total"]; d != 0 {
		t.Errorf("lease misses moved by %d, want 0", d)
	}
}

// TestLeaseLocalRestore pins the local-write rules: Store leases the
// table it committed, so the next Open makes no wire call and reads
// the new version, and a handle that already decoded under the old
// version fails its next decode with ErrChanged instead of decoding
// the new blocks under its old table.
func TestLeaseLocalRestore(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	const chunk = 64 << 10
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	ctx := context.Background()
	v1, v2 := versionBytes(91, 4*chunk), versionBytes(92, 4*chunk)
	if _, err := c.StoreBytes(ctx, "local.dat", v1); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "local.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, chunk)
	if _, err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, v1[:chunk]) {
		t.Fatalf("read v1: %v", err)
	}

	if _, err := c.StoreBytes(ctx, "local.dat", v2); err != nil {
		t.Fatal(err)
	}
	calls := wireCalls(c)
	g, err := c.Open(ctx, "local.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if d := wireCalls(c) - calls; d != 0 {
		t.Errorf("Open after a local Store made %d wire calls, want 0", d)
	}
	if _, err := f.ReadAt(buf, chunk); !errors.Is(err, peerstripe.ErrChanged) {
		t.Fatalf("old handle's decode after a local re-store: %v, want ErrChanged", err)
	}
	all := make([]byte, len(v2))
	if _, err := g.ReadAt(all, 0); err != nil || !bytes.Equal(all, v2) {
		t.Fatalf("Open after a local Store: v2=%v err=%v", bytes.Equal(all, v2), err)
	}
}

// TestLeaseReadYourWrites pins local consistency under concurrency:
// readers Open and read a name while one goroutine re-stores it
// through the same client. Every read returns exactly one stored
// version, never older than the last Store that returned before the
// read's Open began; a read that finds its version replaced fails with
// ErrChanged and is retried.
//
// Blocks are still overwritten in place by a re-store (ROADMAP,
// versioned writes), so a decode that overlaps a store can tear
// whatever CAT it runs under. The writer therefore starts each store
// only once every reader has read the current version, which leaves
// the chunks cached: a read racing the store is a cache hit, and the
// decodes this test exercises are those of the freshly stored version.
func TestLeaseReadYourWrites(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	const (
		chunk    = 16 << 10
		size     = 4 * chunk
		versions = 6
		readers  = 4
	)
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	ctx := context.Background()
	vers := make([][]byte, versions)
	for v := range vers {
		vers[v] = versionBytes(int64(100+v), size)
	}
	if _, err := c.StoreBytes(ctx, "ryw.dat", vers[0]); err != nil {
		t.Fatal(err)
	}

	var committed atomic.Int64 // last version whose Store returned
	var stop atomic.Bool
	seen := make([]atomic.Int64, readers) // last version each reader read
	for r := range seen {
		seen[r].Store(-1)
	}
	var changed atomic.Int64
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, size)
			for !stop.Load() {
				floor := committed.Load()
				f, err := c.Open(ctx, "ryw.dat")
				if err != nil {
					errs <- err
					return
				}
				_, err = f.ReadAt(buf, 0)
				f.Close()
				if errors.Is(err, peerstripe.ErrChanged) {
					changed.Add(1)
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				got := -1
				for v := range vers {
					if bytes.Equal(buf, vers[v]) {
						got = v
					}
				}
				if got < 0 {
					errs <- errors.New("read matches no stored version")
					return
				}
				if int64(got) < floor {
					errs <- errors.New("read returned a version older than a completed Store")
					return
				}
				seen[r].Store(int64(got))
			}
		}()
	}
	go func() {
		defer stop.Store(true)
		for v := 1; v < versions; v++ {
			deadline := time.Now().Add(10 * time.Second)
			for r := range seen {
				for seen[r].Load() < int64(v-1) {
					if time.Now().After(deadline) {
						errs <- errors.New("readers stalled")
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			if _, err := c.StoreBytes(ctx, "ryw.dat", vers[v]); err != nil {
				errs <- err
				return
			}
			committed.Store(int64(v))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d reads retried after ErrChanged", changed.Load())
}

// TestLeaseRemoteWriter pins the cross-client bound: client B
// re-stores a name client A holds leased. A's cache hits keep serving
// A's version, A's first cache miss renews the lease and fails with
// ErrChanged instead of decoding B's blocks under A's table, and an
// Open after the TTL reads B's version.
func TestLeaseRemoteWriter(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	const chunk = 64 << 10
	a := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	b := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(chunk))
	ctx := context.Background()
	v1, v2 := versionBytes(41, 4*chunk), versionBytes(42, 4*chunk)
	if _, err := a.StoreBytes(ctx, "remote.dat", v1); err != nil {
		t.Fatal(err)
	}
	f, err := a.Open(ctx, "remote.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	if _, err := f.ReadAt(buf, 0); err != nil { // caches chunk 0, renews the lease
		t.Fatal(err)
	}
	f.Close()

	if _, err := b.StoreBytes(ctx, "remote.dat", v2); err != nil {
		t.Fatal(err)
	}

	f, err = a.Open(ctx, "remote.dat") // served by A's lease: still v1
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, v1[:chunk]) {
		t.Fatalf("cache-hit read after remote re-store: v1=%v err=%v", bytes.Equal(buf, v1[:chunk]), err)
	}
	// A read spanning cached chunk 0 and cold chunk 1: the cold chunk
	// must not decode under A's stale table.
	span := make([]byte, 2*chunk)
	n, err := f.ReadAt(span, chunk/2)
	if !errors.Is(err, peerstripe.ErrChanged) {
		t.Fatalf("cache-miss read after remote re-store: %v, want ErrChanged", err)
	}
	if !bytes.Equal(span[:n], v1[chunk/2:chunk/2+n]) {
		t.Fatal("ErrChanged read returned bytes that are not v1's")
	}
	if _, err := f.ReadAt(buf, 3*chunk); !errors.Is(err, peerstripe.ErrChanged) {
		t.Fatalf("second miss on the changed handle: %v, want ErrChanged", err)
	}

	time.Sleep(leaseTTL + 50*time.Millisecond)
	g, err := a.Open(ctx, "remote.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	all := make([]byte, len(v2))
	if _, err := g.ReadAt(all, 0); err != nil || !bytes.Equal(all, v2) {
		t.Fatalf("Open after the TTL: v2=%v err=%v", bytes.Equal(all, v2), err)
	}
}

// TestLeaseDeleteThenOpen pins that a local Delete ends the lease:
// an Open after Delete returns fails with ErrNotFound, including when
// Opens race the Delete and could otherwise reinstall the old table.
func TestLeaseDeleteThenOpen(t *testing.T) {
	_, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(16<<10))
	ctx := context.Background()
	data := versionBytes(51, 48<<10)
	for round := 0; round < 8; round++ {
		if _, err := c.StoreBytes(ctx, "del.dat", data); err != nil {
			t.Fatal(err)
		}
		if f, err := c.Open(ctx, "del.dat"); err != nil {
			t.Fatal(err)
		} else {
			f.Close()
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if f, err := c.Open(ctx, "del.dat"); err == nil {
						f.Close()
					}
				}
			}()
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		err := c.Delete(ctx, "del.dat")
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Open(ctx, "del.dat"); !errors.Is(err, peerstripe.ErrNotFound) {
			t.Fatalf("round %d: Open after Delete: %v, want ErrNotFound", round, err)
		}
	}
}

// TestLeaseRenewSingleflight pins that a herd of Opens on an expired
// lease loads the CAT once.
func TestLeaseRenewSingleflight(t *testing.T) {
	servers, seed := testRing(t, 4, 1<<30)
	c := dialTest(t, seed, peerstripe.WithCode("xor"), peerstripe.WithChunkCap(64<<10))
	ctx := context.Background()
	if _, err := c.StoreBytes(ctx, "herd.dat", versionBytes(61, 128<<10)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(leaseTTL + 50*time.Millisecond)

	const herd = 32
	base := totalFetchOps(servers)
	misses := c.Metrics().Counters["ps_cat_lease_misses_total"]
	start := make(chan struct{})
	errs := make(chan error, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f, err := c.Open(ctx, "herd.dat")
			if err != nil {
				errs <- err
				return
			}
			f.Close()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if d := totalFetchOps(servers) - base; d != 1 {
		t.Errorf("herd of %d Opens on an expired lease cost %d fetches, want 1", herd, d)
	}
	if d := c.Metrics().Counters["ps_cat_lease_misses_total"] - misses; d < 1 {
		t.Errorf("lease misses moved by %d, want >= 1", d)
	}
}
