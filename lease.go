package peerstripe

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"peerstripe/internal/core"
	"peerstripe/internal/telemetry"
)

// catLeaseTTL is how long a fetched CAT serves Opens without a wire
// call. It is the bound on how late a client sees another client's
// re-store; this client's own Store and Delete take effect at once.
const catLeaseTTL = time.Second

// catHash computes a CAT's version hash. It is a variable so tests can
// count and place the (marshal-heavy) hashing.
var catHash = (*core.CAT).Hash

// catLease is the client-wide CAT lease: the chunk allocation table
// each recently opened name resolved to, with the hot-promotion state
// of that version. Open serves a CAT fetched within catLeaseTTL with
// no wire call; a File's first cache miss renews the lease before it
// decodes anything (File.prepare), so bytes are only ever decoded under
// a freshly fetched table. Loads are singleflighted per name, and an
// invalidate dooms the loads in flight so one that started before a
// local Store or Delete never installs its older result afterwards.
// Expired entries are swept by a timer, so no per-name state outlives
// its TTL by more than the timer's latency.
type catLease struct {
	load   func(ctx context.Context, name string) (*core.CAT, error)
	marker func(ctx context.Context, name string) (copies int, catHash uint64, err error)

	mu      sync.Mutex
	entries map[string]*leaseEntry
	flights map[string]*leaseFlight
	sweep   *time.Timer // armed while entries is non-empty
	closed  bool

	hits   atomic.Int64
	misses atomic.Int64
}

// leaseEntry is one leased CAT version. Entries are immutable once
// installed: an update installs a modified copy, so a File may keep
// the pointer it opened under without locking.
type leaseEntry struct {
	cat *core.CAT
	ver uint64    // catHash(cat)
	at  time.Time // when the CAT was read from the ring or committed
	// hot is the full-copy replica count promoted for this version,
	// valid when hotAt is set and younger than catLeaseTTL.
	hot   int
	hotAt time.Time
}

func (e *leaseEntry) fresh(now time.Time) bool { return now.Sub(e.at) < catLeaseTTL }

func (e *leaseEntry) hotFresh(ver uint64, now time.Time) bool {
	return e.ver == ver && !e.hotAt.IsZero() && now.Sub(e.hotAt) < catLeaseTTL
}

// leaseFlight is one in-progress load of a name's CAT, hot marker, or
// both, in one parallel wave. doomed (guarded by catLease.mu) marks a
// flight overtaken by an invalidate: its followers still get the
// result, but it must not be installed.
type leaseFlight struct {
	done    chan struct{}
	wantCAT bool
	wantHot bool
	doomed  bool
	res     leaseResult
}

// leaseResult is what one flight read from the ring.
type leaseResult struct {
	cat *core.CAT // nil unless the flight loaded the CAT
	ver uint64
	err error // the CAT load's error; nil when not loaded

	copies  int    // the marker's replica count
	markVer uint64 // the CAT hash the marker is bound to
	markOK  bool   // the marker was read (absent counts as read, 0 copies)
}

func newCATLease(load func(context.Context, string) (*core.CAT, error), marker func(context.Context, string) (int, uint64, error)) *catLease {
	return &catLease{
		load:    load,
		marker:  marker,
		entries: make(map[string]*leaseEntry),
		flights: make(map[string]*leaseFlight),
	}
}

// open returns the CAT to open name under: the leased one when it is
// fresh (fetched=false, no wire call), else one loaded from the ring
// by a singleflighted load (fetched=true).
func (l *catLease) open(ctx context.Context, name string) (e *leaseEntry, fetched bool, err error) {
	l.mu.Lock()
	e = l.entries[name]
	l.mu.Unlock()
	if e != nil && e.fresh(time.Now()) {
		l.hits.Add(1)
		return e, false, nil
	}
	l.misses.Add(1)
	res, err := l.fetch(ctx, name, true, false)
	if err != nil {
		return nil, false, err
	}
	return &leaseEntry{cat: res.cat, ver: res.ver}, true, nil
}

// renew prepares a File opened under version ver for its first
// decode. When needCAT is set (the handle's CAT came from the lease,
// not the wire) it reloads the CAT and fails with ErrChanged if the
// ring holds another version; in the same wave it reads the hot marker
// unless this version's hot state is already known. It returns the
// version's promoted replica count (0 when unknown or not promoted).
func (l *catLease) renew(ctx context.Context, name string, ver uint64, needCAT bool) (int, error) {
	l.mu.Lock()
	e := l.entries[name]
	l.mu.Unlock()
	hotKnown := e != nil && e.hotFresh(ver, time.Now())
	if !needCAT && hotKnown {
		return e.hot, nil
	}
	res, err := l.fetch(ctx, name, needCAT, !hotKnown)
	if err != nil {
		return 0, err
	}
	switch {
	case needCAT && res.ver != ver:
		return 0, ErrChanged
	case hotKnown:
		return e.hot, nil
	case res.markOK && res.markVer == ver:
		return res.copies, nil
	}
	return 0, nil
}

// superseded reports whether the lease holds a version of name other
// than ver.
func (l *catLease) superseded(name string, ver uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[name]
	return ok && e.ver != ver
}

// fetch runs (or joins) the name's load of the CAT and/or hot marker.
// A follower whose leader failed on its own context takes the load
// over instead of inheriting the cancellation.
func (l *catLease) fetch(ctx context.Context, name string, wantCAT, wantHot bool) (leaseResult, error) {
	for {
		l.mu.Lock()
		if fl, ok := l.flights[name]; ok && (fl.wantCAT || !wantCAT) && (fl.wantHot || !wantHot) {
			l.mu.Unlock()
			select {
			case <-fl.done:
				if isContextErr(fl.res.err) && ctx.Err() == nil {
					continue
				}
				return fl.res, fl.res.err
			case <-ctx.Done():
				return leaseResult{}, ctx.Err()
			}
		}
		fl := &leaseFlight{done: make(chan struct{}), wantCAT: wantCAT, wantHot: wantHot}
		l.flights[name] = fl
		l.mu.Unlock()

		start := time.Now()
		fl.res = l.wave(ctx, name, wantCAT, wantHot)
		l.mu.Lock()
		if l.flights[name] == fl {
			delete(l.flights, name)
		}
		if !fl.doomed {
			l.mergeLocked(name, fl.res, start)
		}
		l.mu.Unlock()
		close(fl.done)
		return fl.res, fl.res.err
	}
}

// wave reads the CAT and the hot marker concurrently, so a renewal
// that needs both pays one round trip.
func (l *catLease) wave(ctx context.Context, name string, wantCAT, wantHot bool) leaseResult {
	var res leaseResult
	readMarker := func() {
		copies, ver, err := l.marker(ctx, name)
		res.copies, res.markVer, res.markOK = copies, ver, err == nil
	}
	var wg sync.WaitGroup
	switch {
	case wantHot && wantCAT:
		wg.Add(1)
		go func() {
			defer wg.Done()
			readMarker()
		}()
	case wantHot:
		readMarker()
	}
	if wantCAT {
		if res.cat, res.err = l.load(ctx, name); res.err == nil {
			res.ver = catHash(res.cat)
		}
	}
	wg.Wait()
	return res
}

// mergeLocked folds a completed load started at start into the name's
// entry. Newer knowledge is never overwritten by older: a loaded CAT
// replaces the entry only when the entry predates the load, and a read
// marker only updates hot state older than the read. A name the ring
// reports absent is dropped.
func (l *catLease) mergeLocked(name string, res leaseResult, start time.Time) {
	old := l.entries[name]
	if errors.Is(res.err, ErrNotFound) && (old == nil || !old.at.After(start)) {
		delete(l.entries, name) // deleted on the ring: stop leasing it
		return
	}
	var e leaseEntry
	switch {
	case res.cat != nil && (old == nil || !old.at.After(start)):
		e = leaseEntry{cat: res.cat, ver: res.ver, at: start}
		if old != nil && old.ver == res.ver {
			e.hot, e.hotAt = old.hot, old.hotAt
		}
	case old != nil:
		e = *old
	default:
		return
	}
	if res.markOK && !e.hotAt.After(start) {
		e.hot, e.hotAt = 0, start
		if res.markVer == e.ver {
			e.hot = res.copies
		}
	}
	l.putLocked(name, &e)
}

// putLocked installs an entry and keeps the sweep timer armed.
func (l *catLease) putLocked(name string, e *leaseEntry) {
	if l.closed {
		return
	}
	l.entries[name] = e
	if l.sweep == nil {
		l.sweep = time.AfterFunc(catLeaseTTL, l.sweepExpired)
	}
}

// sweepExpired drops entries past their TTL and re-arms for the
// earliest remaining expiry.
func (l *catLease) sweepExpired() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweep = nil
	if l.closed {
		return
	}
	now := time.Now()
	next := catLeaseTTL
	for name, e := range l.entries {
		if left := catLeaseTTL - now.Sub(e.at); left <= 0 {
			delete(l.entries, name)
		} else if left < next {
			next = left
		}
	}
	if len(l.entries) > 0 {
		l.sweep = time.AfterFunc(next, l.sweepExpired)
	}
}

// install leases the CAT this client just committed for name, with no
// hot promotion (a re-store demotes), and dooms older loads in flight.
func (l *catLease) install(name string, cat *core.CAT) {
	ver := catHash(cat)
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.doomLocked(name)
	l.putLocked(name, &leaseEntry{cat: cat, ver: ver, at: now, hotAt: now})
}

// invalidate forgets name and dooms its loads in flight — called when
// this client deletes the name or a store of it fails partway.
func (l *catLease) invalidate(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.doomLocked(name)
	delete(l.entries, name)
}

func (l *catLease) doomLocked(name string) {
	if fl, ok := l.flights[name]; ok {
		fl.doomed = true
		delete(l.flights, name)
	}
}

// setHot records a local Promote (copies > 0, bound to version ver) or
// Demote (copies 0, any version) in the name's entry.
func (l *catLease) setHot(name string, ver uint64, copies int) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	old, ok := l.entries[name]
	if !ok || (copies > 0 && old.ver != ver) {
		return
	}
	e := *old
	e.hot, e.hotAt = copies, now
	l.putLocked(name, &e)
}

// close stops the sweeper and drops every entry.
func (l *catLease) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.sweep != nil {
		l.sweep.Stop()
		l.sweep = nil
	}
	clear(l.entries)
}

// registerMetrics exposes the lease's effectiveness in the client's
// telemetry registry.
func (l *catLease) registerMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ps_cat_lease_hits_total", "Opens served from a leased CAT with no wire call.", l.hits.Load)
	reg.CounterFunc("ps_cat_lease_misses_total", "Opens that loaded the CAT from the ring (or joined a load in flight).", l.misses.Load)
}
