// Package bitstr implements the bit-compression machinery of Section 6: the
// fixed-length bit strings of FBA (Definition 13), the variable-length bit
// strings of VBA (Definition 14), bitwise AND as pattern intersection, and
// the (K, L, G) satisfaction test that replaces exhaustive time-sequence
// enumeration.
//
// # KLG satisfaction
//
// A bit string B represents the ticks at which two (or more) trajectories
// share a cluster. B "satisfies (K, L, G)" when some sub-sequence T of its
// 1-positions is a valid time sequence: |T| >= K, every maximal consecutive
// segment of T has length >= L, and neighbouring ticks differ by at most G.
//
// The test is a linear scan over the maximal 1-runs of B:
//
//  1. a run shorter than L is unusable — no L-long consecutive segment fits
//     inside it, and a segment can never span a 0 (the tick is missing);
//  2. a usable run should be taken whole — trimming only lowers |T| and
//     widens gaps;
//  3. usable runs chain while the gap between the end of one and the start
//     of the next is <= G; a larger gap can never be bridged, because any
//     tick between them is 0;
//  4. B satisfies (K, L, G) iff some chain's total length reaches K.
//
// Consequently satisfaction is monotone in the bit set: clearing bits can
// only break chains. Since AND only clears bits, the Apriori-style candidate
// enumeration of Algorithm 4 is sound: every subset of a valid pattern is
// valid.
package bitstr

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Bits is a growable bit string. Positions are 0-based. The zero value is an
// empty string ready to use.
type Bits struct {
	words []uint64
	n     int
}

// New returns a bit string of length n with all bits zero.
func New(n int) *Bits {
	return &Bits{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Reset makes b an all-zero string of length n, reusing its storage when
// it is large enough.
func (b *Bits) Reset(n int) {
	nw := (n + wordBits - 1) / wordBits
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	} else {
		b.words = b.words[:nw]
		clear(b.words)
	}
	b.n = n
}

// FromString parses a string of '0' and '1' runes, most significant (lowest
// position) first; any other rune panics. Convenient for tests.
func FromString(s string) *Bits {
	b := New(len(s))
	for i, r := range s {
		switch r {
		case '1':
			b.Set(i)
		case '0':
		default:
			panic("bitstr: FromString accepts only '0' and '1'")
		}
	}
	return b
}

// Len returns the number of bits.
func (b *Bits) Len() int { return b.n }

// Set sets bit i to 1. It panics when i is out of range.
func (b *Bits) Set(i int) {
	if i < 0 || i >= b.n {
		panic("bitstr: Set out of range")
	}
	b.words[i/wordBits] |= 1 << (i % wordBits)
}

// Get reports whether bit i is 1. It panics when i is out of range.
func (b *Bits) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic("bitstr: Get out of range")
	}
	return b.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Append extends the string by one bit.
func (b *Bits) Append(one bool) {
	i := b.n
	b.n++
	if i/wordBits >= len(b.words) {
		b.words = append(b.words, 0)
	}
	if one {
		b.words[i/wordBits] |= 1 << (i % wordBits)
	}
}

// AppendN extends the string by n copies of the same bit.
func (b *Bits) AppendN(one bool, n int) {
	for i := 0; i < n; i++ {
		b.Append(one)
	}
}

// OnesCount returns the number of 1 bits.
func (b *Bits) OnesCount() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// TrailingZeros returns the number of 0 bits after the last 1 bit; for an
// all-zero (or empty) string it returns Len().
func (b *Bits) TrailingZeros() int {
	for i := len(b.words) - 1; i >= 0; i-- {
		w := b.words[i]
		if i == len(b.words)-1 {
			// Mask off bits beyond n.
			if rem := b.n % wordBits; rem != 0 {
				w &= (1 << rem) - 1
			}
		}
		if w != 0 {
			lastOne := i*wordBits + (wordBits - 1 - bits.LeadingZeros64(w))
			return b.n - 1 - lastOne
		}
	}
	return b.n
}

// Truncate shortens the string to n bits. It panics when n exceeds Len().
func (b *Bits) Truncate(n int) {
	if n > b.n {
		panic("bitstr: Truncate beyond length")
	}
	b.n = n
	nw := (n + wordBits - 1) / wordBits
	b.words = b.words[:nw]
	if rem := n % wordBits; rem != 0 && nw > 0 {
		b.words[nw-1] &= (1 << rem) - 1
	}
}

// Clone returns an independent copy of b.
func (b *Bits) Clone() *Bits {
	return &Bits{words: append([]uint64(nil), b.words...), n: b.n}
}

// String renders the bit string as '0'/'1' runes, position 0 first.
func (b *Bits) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// And returns a new bit string of length min(len(a), len(b)) with the
// bitwise AND of a and b. This is the pattern-intersection operator: the
// result marks the ticks at which *all* underlying trajectories co-cluster.
func And(a, b *Bits) *Bits {
	n := a.n
	if b.n < n {
		n = b.n
	}
	out := New(n)
	for i := range out.words {
		out.words[i] = a.words[i] & b.words[i]
	}
	if rem := n % wordBits; rem != 0 && len(out.words) > 0 {
		out.words[len(out.words)-1] &= (1 << rem) - 1
	}
	return out
}

// AndInto computes dst = a AND b, reusing dst's storage. dst must not alias
// a or b's headers (word slices may be reused safely after the call).
func AndInto(dst, a, b *Bits) {
	n := a.n
	if b.n < n {
		n = b.n
	}
	nw := (n + wordBits - 1) / wordBits
	if cap(dst.words) < nw {
		dst.words = make([]uint64, nw)
	}
	dst.words = dst.words[:nw]
	dst.n = n
	for i := 0; i < nw; i++ {
		dst.words[i] = a.words[i] & b.words[i]
	}
	if rem := n % wordBits; rem != 0 && nw > 0 {
		dst.words[nw-1] &= (1 << rem) - 1
	}
}

// Run is a maximal run of consecutive 1 bits: positions [Start, Start+Len).
type Run struct {
	Start, Len int
}

// End returns the position just past the run.
func (r Run) End() int { return r.Start + r.Len }

// Runs returns the maximal 1-runs of b in ascending order.
func (b *Bits) Runs() []Run { return b.AppendRuns(nil) }

// AppendRuns appends the maximal 1-runs of b to dst in ascending order and
// returns the extended slice. It scans a word at a time: each run boundary
// costs one TrailingZeros64, and runs may span word boundaries.
func (b *Bits) AppendRuns(dst []Run) []Run {
	start := -1 // start of the run still open at the current position
	for wi, w := range b.words {
		if wi == len(b.words)-1 {
			if rem := b.n % wordBits; rem != 0 {
				w &= (1 << rem) - 1
			}
		}
		base := wi * wordBits
		off := 0
		for off < wordBits {
			if start < 0 {
				rest := w >> off
				if rest == 0 {
					break
				}
				off += bits.TrailingZeros64(rest)
				start = base + off
			}
			// The shift brings in zeros at the top, so a run reaching
			// bit 63 leaves rest == 0 and stays open into the next word.
			rest := ^w >> off
			if rest == 0 {
				break
			}
			off += bits.TrailingZeros64(rest)
			dst = append(dst, Run{Start: start, Len: base + off - start})
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, Run{Start: start, Len: b.n - start})
	}
	return dst
}

// Chain is a maximal sequence of usable runs (each of length >= L) whose
// consecutive gaps are <= G. Count is the total number of 1 bits in the
// chain.
type Chain struct {
	Runs  []Run
	Count int
}

// Start returns the first position of the chain; End the position just past
// its last run. Both panic on an empty chain.
func (c Chain) Start() int { return c.Runs[0].Start }

// End returns the position just past the chain's final run.
func (c Chain) End() int { return c.Runs[len(c.Runs)-1].End() }

// Chains decomposes b into maximal chains of usable runs under (L, G).
// Runs shorter than L are dropped; a new chain starts whenever the gap from
// the previous usable run's end to the next usable run's start exceeds G.
func Chains(b *Bits, l, g int) []Chain {
	var out []Chain
	var cur Chain
	for _, r := range b.Runs() {
		if r.Len < l {
			continue
		}
		if len(cur.Runs) > 0 && r.Start-cur.End() > g-1 {
			// Gap between ticks is nextStart - prevLast; prevLast = End()-1.
			// The G constraint allows nextStart - prevLast <= g, i.e.
			// nextStart - End() <= g-1.
			out = append(out, cur)
			cur = Chain{}
		}
		cur.Runs = append(cur.Runs, r)
		cur.Count += r.Len
	}
	if len(cur.Runs) > 0 {
		out = append(out, cur)
	}
	return out
}

// SatisfiesKLG reports whether some sub-sequence of b's 1-positions forms a
// valid time sequence under (K, L, G). See the package comment for why the
// chain decomposition decides this exactly.
func SatisfiesKLG(b *Bits, k, l, g int) bool {
	for _, c := range Chains(b, l, g) {
		if c.Count >= k {
			return true
		}
	}
	return k <= 0
}

// FirstValidChain returns the earliest chain whose count reaches K, or a
// zero Chain and false.
func FirstValidChain(b *Bits, k, l, g int) (Chain, bool) {
	for _, c := range Chains(b, l, g) {
		if c.Count >= k {
			return c, true
		}
	}
	return Chain{}, false
}

// Positions expands a chain into the explicit list of its 1-positions.
func (c Chain) Positions() []int {
	var out []int
	for _, r := range c.Runs {
		for p := r.Start; p < r.End(); p++ {
			out = append(out, p)
		}
	}
	return out
}

// FinalizeStatus classifies a variable-length bit string per Lemma 7 during
// streaming. closedBits is the number of trailing zeros observed so far.
//
//   - StatusOpen: fewer than G+1 trailing zeros — future ticks may still
//     extend the sequence.
//   - StatusMaximal: at least G+1 trailing zeros and the prefix satisfies
//     (K, L, G) — the string holds a maximal pattern time sequence.
//   - StatusDead: at least G+1 trailing zeros and the prefix cannot satisfy
//     the constraints — drop it.
type FinalizeStatus int

const (
	// StatusOpen means the string may still grow into a valid sequence.
	StatusOpen FinalizeStatus = iota
	// StatusMaximal means the string is finalized and valid (Lemma 7).
	StatusMaximal
	// StatusDead means the string is finalized and can never become valid.
	StatusDead
)

// Finalize applies Lemma 7: once G+1 consecutive zeros follow the last 1,
// no future tick can connect (any extension would need a gap > G), so the
// string's fate is decided. When force is true the string is treated as
// closed regardless of its trailing zeros (stream flush).
func Finalize(b *Bits, k, l, g int, force bool) FinalizeStatus {
	if !force && b.TrailingZeros() <= g {
		return StatusOpen
	}
	if SatisfiesKLG(b, k, l, g) {
		return StatusMaximal
	}
	return StatusDead
}

// SpanOverlapPrune implements Lemma 8 with a safe boundary: candidates whose
// tick intervals [st_i, et_i] overlap in fewer than K ticks cannot combine
// into a pattern. The paper states the prune as min(et) - max(st) < K; we
// use the inclusive tick count min(et) - max(st) + 1 < K, which never prunes
// a satisfiable combination (an overlap of exactly K ticks can hold K ones).
func SpanOverlapPrune(maxStart, minEnd int64, k int) bool {
	return minEnd-maxStart+1 < int64(k)
}
