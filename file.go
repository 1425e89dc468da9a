package peerstripe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"peerstripe/internal/core"
)

// File is an open handle on a stored file, implementing io.Reader,
// io.Seeker, io.ReaderAt, and io.Closer over the ring. Reads decode at
// chunk granularity and fetch only the chunks the requested range
// covers (§4.1). Decoded chunks land in the Client's shared cache — an
// LRU bounded by WithChunkCache and keyed on (name, CAT version,
// chunk), so every handle and every request on the client reuses them
// — and each cold chunk is fetched and decoded exactly once no matter
// how many readers race for it (per-chunk singleflight). All methods
// are safe for concurrent use (concurrent ReadAt, as io.ReaderAt
// requires).
//
// The context passed to Open governs every read on the File:
// cancelling it makes in-flight and future reads fail promptly with
// the context error. After Close, every read fails with an error
// matching os.ErrClosed. A read that must decode after the file was
// re-stored fails with an error matching ErrChanged (see Open).
type File struct {
	cl   *Client
	ctx  context.Context
	cat  *core.CAT
	name string
	// ver is the CAT hash of the layout this handle opened — the
	// version under which its chunks are cached and against which the
	// hot-promotion marker is verified.
	ver uint64
	// fetched is set when Open read the CAT from the ring rather than
	// the lease, so the first decode need not renew it.
	fetched bool

	// posMu serializes the seek position across Read/Seek, held for
	// the whole Read so interleaved concurrent Reads cannot hand two
	// callers the same range.
	posMu sync.Mutex
	pos   int64

	closed atomic.Bool

	// Decode preparation, run on the first chunk miss (see prepare):
	// the renewed CAT check and the version's hot-promotion state.
	// Promoted files serve chunk reads from full-copy replicas (one
	// block, no decode) with the coded blocks as fallback.
	prepMu    sync.Mutex
	prepared  bool
	prepErr   error // sticky ErrChanged
	hotCopies int
	hotNext   atomic.Uint32 // rotates reads across the replica set
}

// Open returns a handle for ranged reads of the named file. The
// file's chunk allocation table comes from the client's CAT lease when
// it was read from the ring within the last second, with no wire call,
// and is loaded otherwise. The file's bytes are fetched lazily, chunk
// by chunk, as reads demand them; before its first decode, a handle
// opened from the lease re-reads the table, so no bytes are ever
// decoded under a stale one.
//
// This client's own Store and Delete of the name are visible to every
// Open that starts after they return. Another client's re-store is
// visible within one second. A handle keeps reading the version it
// opened from the cache; when a read has to decode and finds the file
// re-stored, it fails with ErrChanged — reopen to read the new
// version. ctx bounds the open and every subsequent read on the
// returned File.
func (c *Client) Open(ctx context.Context, name string) (*File, error) {
	e, fetched, err := c.lease.open(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("peerstripe: open %q: %w", name, err)
	}
	return &File{cl: c, ctx: ctx, cat: e.cat, name: name, ver: e.ver, fetched: fetched}, nil
}

// Name returns the ring-wide file name.
func (f *File) Name() string { return f.name }

// Size returns the file's logical size in bytes.
func (f *File) Size() int64 { return f.cat.FileSize() }

// ETag returns an entity tag for the file as opened: the hash of its
// chunk allocation table, which covers the name, the chunk extents,
// and each chunk's content sum. Two handles agree on the tag exactly
// when they read the same stored bytes, and re-storing a name — even
// with a layout of identical extents — changes the tag, which is what
// makes it usable for HTTP conditional requests (If-None-Match,
// If-Range).
func (f *File) ETag() string {
	return fmt.Sprintf("\"%016x\"", f.ver)
}

// errClosed builds the post-Close failure for one operation.
func (f *File) errClosed(op string) error {
	return fmt.Errorf("peerstripe: %s %q: %w", op, f.name, os.ErrClosed)
}

// prepare readies the handle for a decode and returns the number of
// full-copy chunk replicas to read from (0: the coded path). On the
// first decode, a handle opened from the lease renews it — one CAT
// load, in the same wave as the hot-marker read when this version's
// hot state is not already known. Every decode fails for good with
// ErrChanged once the file is known to be re-stored: by that renewal,
// or by the lease holding a newer version (this client stored it, or
// another handle's renewal found it). The hot state is the lease's,
// resolved once per CAT version; a marker is honored only when bound
// to this handle's CAT hash, so replicas left behind by a failed
// demote are never routed to readers of a newer layout. Marker read
// failures degrade to the coded path instead of failing the read.
func (f *File) prepare() (int, error) {
	f.prepMu.Lock()
	defer f.prepMu.Unlock()
	if f.prepErr == nil && f.cl.lease.superseded(f.name, f.ver) {
		f.prepErr = ErrChanged
	}
	if f.prepared || f.prepErr != nil {
		return f.hotCopies, f.prepErr
	}
	copies, err := f.cl.lease.renew(f.ctx, f.name, f.ver, !f.fetched)
	if errors.Is(err, ErrChanged) {
		f.prepErr = err
	}
	if err != nil {
		return 0, err
	}
	f.prepared, f.hotCopies = true, copies
	return copies, nil
}

// fetchChunk is the singleflight leader's path for one cold chunk:
// prepare the handle, try the promoted full-copy replicas (one block
// fetch, no decode, rotating across the replica set so a herd fans
// out), then fall back to fetching and erasure-decoding the coded
// blocks. Replicas are untrusted copies — a length or content-sum
// mismatch against this handle's CAT row degrades to the coded path
// instead of serving the bytes.
func (f *File) fetchChunk(ci int) ([]byte, error) {
	copies, err := f.prepare()
	if err != nil {
		return nil, err
	}
	row := f.cat.Row(ci)
	if copies > 0 {
		start := int(f.hotNext.Add(1))
		for k := 0; k < copies; k++ {
			r := 1 + (start+k)%copies
			data, err := f.cl.c.FetchChunkCopy(f.ctx, f.name, ci, r)
			if err == nil && int64(len(data)) == row.Len() &&
				(row.Sum == 0 || core.ChunkSum(data) == row.Sum) {
				return data, nil
			}
			if err := f.ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	// The shared cache above already owns this chunk's key; decode
	// without a second lookup.
	return f.cl.c.FetchChunkNoCache(f.ctx, f.cat, ci)
}

// chunk returns chunk ci's decoded bytes through the client's shared
// cache, keyed under this handle's CAT version: a hit costs nothing,
// a racing cold read joins the in-flight fetch, and a true miss runs
// fetchChunk exactly once.
func (f *File) chunk(ci int) ([]byte, error) {
	return f.cl.cache.chunk(f.ctx, f.name, f.ver, ci, f.cat.Row(ci).Len(), func() ([]byte, error) {
		return f.fetchChunk(ci)
	})
}

// ReadAt implements io.ReaderAt: it fills p from offset off, fetching
// and decoding only the chunks [off, off+len(p)) intersects. At end of
// file it returns the bytes read and io.EOF.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, f.errClosed("read")
	}
	if off < 0 {
		return 0, fmt.Errorf("peerstripe: read %q: negative offset %d", f.name, off)
	}
	if err := f.ctx.Err(); err != nil {
		return 0, err
	}
	size := f.cat.FileSize()
	if off >= size {
		return 0, io.EOF
	}
	want := int64(len(p))
	short := false
	if off+want > size {
		want = size - off
		short = true
	}
	n := 0
	for _, ci := range f.cat.ChunksFor(off, want) {
		row := f.cat.Row(ci)
		chunk, err := f.chunk(ci)
		if err != nil {
			return n, fmt.Errorf("peerstripe: read %q: %w", f.name, err)
		}
		lo := int64(0)
		if off > row.Start {
			lo = off - row.Start
		}
		hi := row.Len()
		if off+want < row.End {
			hi = off + want - row.Start
		}
		n += copy(p[n:], chunk[lo:hi])
	}
	if short {
		return n, io.EOF
	}
	return n, nil
}

// Read implements io.Reader at the handle's seek position. Concurrent
// Reads are safe and serialize: each consumes a distinct range.
func (f *File) Read(p []byte) (int, error) {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed.Load() {
		return 0, f.errClosed("seek")
	}
	f.posMu.Lock()
	defer f.posMu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = f.cat.FileSize()
	default:
		return 0, fmt.Errorf("peerstripe: seek %q: bad whence %d", f.name, whence)
	}
	next := base + offset
	if next < 0 {
		return 0, fmt.Errorf("peerstripe: seek %q: negative position %d", f.name, next)
	}
	f.pos = next
	return next, nil
}

// Close marks the handle closed: subsequent Read, ReadAt, and Seek
// calls fail with an error matching os.ErrClosed, as does a second
// Close. Decoded chunks stay in the Client's shared cache for other
// handles; the Client stays open.
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return f.errClosed("close")
	}
	return nil
}

// Interface conformance.
var (
	_ io.ReadSeekCloser = (*File)(nil)
	_ io.ReaderAt       = (*File)(nil)
)
