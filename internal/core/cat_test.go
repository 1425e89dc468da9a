package core

import (
	"hash/crc32"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleCAT() *CAT {
	// Mirrors Figure 3: six chunks, chunk 5 empty, ~100 MB total.
	return &CAT{File: "fig3", Rows: []CATRow{
		{Start: 0, End: 5242880},
		{Start: 5242880, End: 26083328},
		{Start: 26083328, End: 52297728},
		{Start: 52297728, End: 86114304},
		{Start: 86114304, End: 86114304},
		{Start: 86114304, End: 104856576},
	}}
}

func TestCATMarshalRoundTrip(t *testing.T) {
	c := sampleCAT()
	data := c.Marshal()
	got, err := UnmarshalCAT("fig3", data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, c.Rows) {
		t.Fatalf("round trip mismatch:\n%v\n%v", got.Rows, c.Rows)
	}
}

// TestCATContentSums pins the content-sum extension: rows carrying a
// Sum round-trip through the three-field form, sum-less rows keep the
// exact legacy two-field form (so pre-sum tables and their hashes are
// untouched), and the CAT hash distinguishes same-layout tables with
// different content — the property the chunk cache and hot-promotion
// markers version by.
func TestCATContentSums(t *testing.T) {
	c := &CAT{File: "sums", Rows: []CATRow{
		{Start: 0, End: 10, Sum: ChunkSum([]byte("0123456789"))},
		{Start: 10, End: 10}, // zero-sized retry row: no sum
		{Start: 10, End: 30, Sum: ChunkSum(make([]byte, 20))},
	}}
	rt, err := UnmarshalCAT("sums", c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt.Rows, c.Rows) {
		t.Fatalf("sum round trip mismatch:\n%v\n%v", rt.Rows, c.Rows)
	}

	legacy := &CAT{File: "legacy", Rows: []CATRow{{Start: 0, End: 10}}}
	if got := string(legacy.Marshal()); got != "(1) 0,10\n" {
		t.Fatalf("sum-less marshal changed: %q", got)
	}

	other := &CAT{File: "sums", Rows: []CATRow{
		{Start: 0, End: 10, Sum: ChunkSum([]byte("9876543210"))},
		{Start: 10, End: 10},
		{Start: 10, End: 30, Sum: ChunkSum(make([]byte, 20))},
	}}
	if c.Hash() == other.Hash() {
		t.Fatal("same-layout tables with different content hash equal")
	}
	if c.Hash() != rt.Hash() {
		t.Fatal("hash not stable across marshal round trip")
	}
}

// TestChunkSumKnownAnswer pins the content-sum construction. Sums are
// written into every CAT and recomputed by readers, so any change to
// ChunkSum is a format change and must fail here: the expected value
// joins the standard check values of CRC-32C (0xE3069283) and
// CRC-32/IEEE (0xCBF43926) over "123456789".
func TestChunkSumKnownAnswer(t *testing.T) {
	if got, want := ChunkSum([]byte("123456789")), uint64(0xE3069283CBF43926); got != want {
		t.Fatalf("ChunkSum(\"123456789\") = %#016x, want %#016x", got, want)
	}
}

// chunkSumInput returns a deterministic 4 MiB chunk.
func chunkSumInput() []byte {
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(14)).Read(data)
	return data
}

// TestChunkSumDetectsChanges: a single flipped bit anywhere in a chunk,
// and a chunk one byte longer or shorter, each change the sum.
func TestChunkSumDetectsChanges(t *testing.T) {
	data := chunkSumInput()
	base := ChunkSum(data)
	for _, bit := range []int{0, 7, 8 * 12345, 8*len(data)/2 + 3, 8*len(data) - 1} {
		data[bit/8] ^= 1 << (bit % 8)
		if ChunkSum(data) == base {
			t.Errorf("flipping bit %d left the sum unchanged", bit)
		}
		data[bit/8] ^= 1 << (bit % 8)
	}
	if ChunkSum(data[:len(data)-1]) == base {
		t.Error("dropping the last byte left the sum unchanged")
	}
	if ChunkSum(append(data, 0)) == base {
		t.Error("appending a zero byte left the sum unchanged")
	}
}

// TestChunkSumZeroRemap checks that a chunk whose two CRCs are both
// zero gets sum 1, since 0 means "no sum" in a CAT row. For a fixed
// length each CRC is affine over GF(2) in the message bits, so such a
// chunk is found by solving 64 linear equations in 96 message bits.
func TestChunkSumZeroRemap(t *testing.T) {
	const n = 12
	raw := func(d []byte) uint64 {
		return uint64(crc32.Checksum(d, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(d))
	}
	type vec struct {
		v   uint64  // raw(msg) ^ raw(zeros)
		msg [n]byte // message bits combined into v
	}
	var (
		zero  [n]byte
		c     = raw(zero[:])
		basis [64]vec // indexed by leading bit of v
		have  [64]bool
	)
	// reduce XORs basis vectors into e until its v is zero or has a
	// leading bit with no basis vector, and returns that bit (-1 if v
	// reached zero).
	reduce := func(e *vec) int {
		for e.v != 0 {
			hb := 63 - bits.LeadingZeros64(e.v)
			if !have[hb] {
				return hb
			}
			e.v ^= basis[hb].v
			for j := range e.msg {
				e.msg[j] ^= basis[hb].msg[j]
			}
		}
		return -1
	}
	for i := 0; i < 8*n; i++ {
		var e vec
		e.msg[i/8] = 1 << (i % 8)
		e.v = raw(e.msg[:]) ^ c
		if hb := reduce(&e); hb >= 0 {
			basis[hb], have[hb] = e, true
		}
	}
	sol := vec{v: c}
	if reduce(&sol) >= 0 {
		t.Fatal("no message with both CRCs zero at this length")
	}
	if got := raw(sol.msg[:]); got != 0 {
		t.Fatalf("solver produced raw sum %#x, want 0", got)
	}
	if got := ChunkSum(sol.msg[:]); got != 1 {
		t.Fatalf("ChunkSum of an all-zero-CRC chunk = %#x, want 1", got)
	}
}

// TestChunkSumAllocFree: summing runs on every stored and verified
// chunk, so it must not allocate.
func TestChunkSumAllocFree(t *testing.T) {
	data := chunkSumInput()
	if a := testing.AllocsPerRun(5, func() { ChunkSum(data) }); a != 0 {
		t.Fatalf("ChunkSum allocates %.0f times per 4 MiB chunk", a)
	}
}

var chunkSumSink uint64

// BenchmarkChunkSum measures the content sum on one 4 MiB chunk; `make
// bench-guard` gates it against BENCH_PR14.json.
func BenchmarkChunkSum(b *testing.B) {
	data := chunkSumInput()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunkSumSink = ChunkSum(data)
	}
}

func TestCATFileSize(t *testing.T) {
	c := sampleCAT()
	if c.FileSize() != 104856576 {
		t.Fatalf("FileSize = %d", c.FileSize())
	}
	empty := &CAT{File: "e"}
	if empty.FileSize() != 0 {
		t.Fatal("empty CAT size nonzero")
	}
}

func TestCATChunksFor(t *testing.T) {
	c := sampleCAT()
	cases := []struct {
		off, length int64
		want        []int
	}{
		{0, 1, []int{0}},
		{0, 5242880, []int{0}},
		{5242879, 2, []int{0, 1}},
		{86114304, 100, []int{5}}, // skips the empty chunk 4
		{0, 104856576, []int{0, 1, 2, 3, 5}},
		{104856576, 10, nil},
		{50, 0, nil},
	}
	for _, tc := range cases {
		got := c.ChunksFor(tc.off, tc.length)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ChunksFor(%d,%d) = %v, want %v", tc.off, tc.length, got, tc.want)
		}
	}
}

func TestCATValidate(t *testing.T) {
	if err := sampleCAT().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &CAT{File: "gap", Rows: []CATRow{{Start: 0, End: 10}, {Start: 11, End: 20}}}
	if bad.Validate() == nil {
		t.Error("gap accepted")
	}
	neg := &CAT{File: "neg", Rows: []CATRow{{Start: 0, End: 10}, {Start: 10, End: 5}}}
	if neg.Validate() == nil {
		t.Error("negative extent accepted")
	}
}

func TestUnmarshalCATErrors(t *testing.T) {
	if _, err := UnmarshalCAT("x", []byte("garbage line")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := UnmarshalCAT("x", []byte("(2) 0,10")); err == nil {
		t.Error("out-of-order index accepted")
	}
	if _, err := UnmarshalCAT("x", []byte("(1) 5,10")); err == nil {
		t.Error("row not starting at 0 accepted")
	}
	// Empty input is a valid zero-chunk table.
	c, err := UnmarshalCAT("x", nil)
	if err != nil || c.NumChunks() != 0 {
		t.Error("empty CAT rejected")
	}
}

// Property: a contiguous tiling built from arbitrary positive sizes
// always validates, round-trips, and covers every offset exactly once.
func TestCATTilingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		c := &CAT{File: "p"}
		pos := int64(0)
		for _, s := range sizes {
			c.Rows = append(c.Rows, CATRow{Start: pos, End: pos + int64(s)})
			pos += int64(s)
		}
		if c.Validate() != nil {
			return false
		}
		rt, err := UnmarshalCAT("p", c.Marshal())
		if err != nil || !reflect.DeepEqual(rt.Rows, c.Rows) {
			return false
		}
		// Any in-range offset lands in exactly one non-empty chunk.
		if pos > 0 {
			mid := pos / 2
			chunks := c.ChunksFor(mid, 1)
			if len(chunks) != 1 {
				return false
			}
			r := c.Rows[chunks[0]]
			if mid < r.Start || mid >= r.End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCATSizeBytes(t *testing.T) {
	c := sampleCAT()
	if c.SizeBytes() != int64(len(c.Marshal())) {
		t.Fatal("SizeBytes disagrees with Marshal")
	}
}
