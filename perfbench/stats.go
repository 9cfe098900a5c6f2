package main

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
)

// digest is an order-independent fingerprint of a pattern multiset: the
// count plus the sum and xor of a 64-bit hash of each pattern's object set
// and time sequence. Equal digests mean equal sorted pattern lists (up to
// hash collisions); a missing, extra, duplicated or altered pattern changes
// it. Runs keep only the digest, so collected patterns never inflate the
// measured state heap.
type digest struct {
	n        int64
	sum, xor uint64
}

func patternHash(p model.Pattern) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	put(uint64(len(p.Objects)))
	for _, o := range p.Objects {
		put(uint64(o))
	}
	put(uint64(len(p.Times)))
	for _, t := range p.Times {
		put(uint64(t))
	}
	return h.Sum64()
}

func (d *digest) add(p model.Pattern) {
	h := patternHash(p)
	d.n++
	d.sum += h
	d.xor ^= h * 0x9e3779b97f4a7c15
}

// syncDigest is a digest fed from pipeline callbacks.
type syncDigest struct {
	mu sync.Mutex
	d  digest
}

func (s *syncDigest) add(p model.Pattern) {
	s.mu.Lock()
	s.d.add(p)
	s.mu.Unlock()
}

func (s *syncDigest) get() digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d
}

// percentile returns the q-th percentile (0..100) of xs by the
// nearest-rank method; xs is sorted in place. NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q/100*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sampler collects durations in milliseconds.
type sampler []float64

func (s *sampler) add(d time.Duration) { *s = append(*s, ms(d)) }

func (s sampler) p(q float64) float64 {
	return percentile(append([]float64(nil), s...), q)
}
