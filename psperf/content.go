package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
)

// Object contents are a pure function of (seed, object name, version):
// word i of a version is mix(key + i·γ). Any byte range of any version
// can be regenerated, so every read is checked against the version the
// benchmark last wrote without keeping a copy of what was written.

// contentKey derives the content key of one version of one object.
func contentKey(seed int64, name string, version int) uint64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(version))
	h.Write(b[:])
	h.Write([]byte(name))
	return h.Sum64()
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fill writes bytes [off, off+len(p)) of the content with the given key
// into p.
func fill(p []byte, key uint64, off int64) {
	var w [8]byte
	i := uint64(off / 8)
	skip := int(off % 8)
	for n := 0; n < len(p); i++ {
		if skip == 0 && len(p)-n >= 8 {
			binary.LittleEndian.PutUint64(p[n:], mix(key+i*0x9e3779b97f4a7c15))
			n += 8
			continue
		}
		binary.LittleEndian.PutUint64(w[:], mix(key+i*0x9e3779b97f4a7c15))
		n += copy(p[n:], w[skip:])
		skip = 0
	}
}

// matches reports whether p equals bytes [off, off+len(p)) of the
// content with the given key. scratch is reused between calls.
func matches(p []byte, key uint64, off int64, scratch []byte) bool {
	for len(p) > 0 {
		n := min(len(p), len(scratch))
		fill(scratch[:n], key, off)
		if !bytes.Equal(p[:n], scratch[:n]) {
			return false
		}
		p, off = p[n:], off+int64(n)
	}
	return true
}

// opStream returns the random source of one worker's op sequence: a
// function of the seed and the worker index only, so one seed replays
// the same ops in the same order.
func opStream(seed int64, worker int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x5eed0000+uint64(worker)))
}
