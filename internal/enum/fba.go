package enum

import (
	"repro/internal/bitstr"
	"repro/internal/model"
)

// FBA is the Fixed-length Bit Compression based Algorithm (Algorithm 4).
// Each partition P_t(o) opens a window of eta ticks; members are compressed
// into bit strings (Definition 13), candidates are filtered by (K,L,G)
// satisfaction, and patterns are enumerated Apriori-style directly from
// cardinality M-1 with bitwise-AND intersection.
//
// # Emission rule
//
// A window with base t reports a pattern exactly when t is the start of one
// of the pattern's maximal chains: the bit strings carry G+L ticks of
// lookback, and the chain containing the base position must begin there. A
// base that merely continues a run (co-occurrence at t-1) or connects
// backward to a usable run within G ticks belongs to a chain an earlier
// window already reported; Lemma 4 guarantees the chain-start window sees a
// valid witness, so this rule removes cross-window duplicates without
// losing any pattern.
type FBA struct {
	owner model.ObjectID
	c     model.Constraints
	w     windowed

	// Scratch reused across windows, so evaluating one allocates nothing:
	// one bit string per base member, the surviving candidates, one AND
	// result per lattice depth, the chosen member ids and the run buffer.
	bits   []bitstr.Bits
	cands  []fbaCand
	depth  []bitstr.Bits
	chosen []model.ObjectID
	runs   []bitstr.Run
}

// fbaLookback returns the history depth needed to decide chain starts: a
// usable run ending within G ticks of the base is always fully visible
// (length-wise) within G+L ticks.
func fbaLookback(c model.Constraints) int { return c.G + c.L }

// NewFBA returns the FBA enumerator for one owner subtask.
func NewFBA(owner model.ObjectID, c model.Constraints) Enumerator {
	return &FBA{
		owner: owner,
		c:     c,
		w:     windowed{eta: c.Eta(), lookback: fbaLookback(c)},
	}
}

// Name implements Enumerator.
func (f *FBA) Name() string { return "FBA" }

// Process implements Enumerator.
func (f *FBA) Process(p Partition, emit Emit) {
	for _, base := range f.w.advance(p) {
		f.evalWindow(base, emit)
	}
}

// Flush implements Enumerator.
func (f *FBA) Flush(emit Emit) {
	for _, base := range f.w.drain() {
		f.evalWindow(base, emit)
	}
}

// chainFrom locates the chain of b (usable runs under L, G) that covers
// the base position fbaLookback, or else the first chain after it. It
// returns the chain's start position, its number of ones at or after the
// base, and its usable runs — a view of the FBA's run buffer, valid until
// the next call. count is 0 when no chain ends after the base.
//
// Both window tests derive from it. The per-member and per-prefix filter
// (Algorithm 4 lines 7-8) is count >= K && start <= base: it is monotone
// under adding bits, so every member of an emittable pattern survives — a
// member's (superset) string has a chain covering the base, possibly
// starting earlier because the member co-clustered with the owner before
// the full pattern formed, with at least as many ticks at or after it.
// Emission needs the exact chain-start rule, count >= K && start == base;
// a base inside a longer chain, in a gap or in an unusable run belongs to
// no valid sequence starting there, or to another window.
func (f *FBA) chainFrom(b *bitstr.Bits) (start, count int, runs []bitstr.Run) {
	at := fbaLookback(f.c)
	f.runs = b.AppendRuns(f.runs[:0])
	usable := f.runs[:0]
	for _, r := range f.runs {
		if r.Len >= f.c.L {
			usable = append(usable, r)
		}
	}
	for i := 0; i < len(usable); {
		// Usable runs chain while the tick gap nextStart - prevLast stays
		// within G, i.e. nextStart - prevEnd <= G-1.
		j := i + 1
		for j < len(usable) && usable[j].Start-usable[j-1].End() <= f.c.G-1 {
			j++
		}
		if usable[j-1].End() > at {
			for _, r := range usable[i:j] {
				if s := max(r.Start, at); r.End() > s {
					count += r.End() - s
				}
			}
			return usable[i].Start, count, usable[i:j]
		}
		i = j
	}
	return -1, 0, nil
}

// fbaCand is one candidate trajectory with its window bit string.
type fbaCand struct {
	id   model.ObjectID
	bits *bitstr.Bits
}

func (f *FBA) evalWindow(base Partition, emit Emit) {
	need := f.c.M - 1
	if len(base.Members) < need {
		return
	}
	lb := fbaLookback(f.c)
	total := lb + f.c.Eta()
	// Build B[oi] for every member over [base.Tick-lb, base.Tick+eta)
	// (Algorithm 4 lines 2-6) in one pass over the history: each entry's
	// sorted ids are merged with the base's sorted members, setting the
	// entry's bit in every member string it contains.
	if len(f.bits) < len(base.Members) {
		f.bits = make([]bitstr.Bits, len(base.Members))
	}
	bs := f.bits[:len(base.Members)]
	for i := range bs {
		bs[i].Reset(total)
	}
	from := base.Tick - model.Tick(lb)
	for _, e := range f.w.hist.items() {
		if e.tick < from {
			continue
		}
		pos := int(e.tick - from)
		if pos >= total {
			break
		}
		ids, j := e.ids, 0
		for i, id := range base.Members {
			for j < len(ids) && ids[j] < id {
				j++
			}
			if j == len(ids) {
				break
			}
			if ids[j] == id {
				bs[i].Set(pos)
			}
		}
	}
	// Keep only candidates whose own string has a chain covering the base
	// with K ticks from it on (lines 7-8; see chainFrom).
	f.cands = f.cands[:0]
	allContinue := true
	for i, id := range base.Members {
		b := &bs[i]
		if start, count, _ := f.chainFrom(b); count < f.c.K || start > lb {
			continue
		}
		f.cands = append(f.cands, fbaCand{id: id, bits: b})
		if !b.Get(lb - 1) {
			allContinue = false
		}
	}
	if len(f.cands) < need {
		return
	}
	if allContinue {
		// Every candidate also co-clustered with the owner at base-1, so
		// every pattern's run extends backwards: the whole window is a
		// continuation and the chain-start window owns all its patterns.
		return
	}
	if len(f.depth) < len(f.cands) {
		f.depth = make([]bitstr.Bits, len(f.cands))
		f.chosen = make([]model.ObjectID, 0, len(f.cands))
	}
	f.extend(base, 0, f.chosen[:0], nil, emit)
}

// extend walks the candidate lattice depth-first (Algorithm 4 lines 9-17).
// prefix is the AND of the chosen candidates' bit strings (nil when
// empty); the AND for the next member lands in the scratch string of depth
// len(chosen). Pruning uses the monotone covering test, emission the exact
// chain-start test (see chainFrom).
func (f *FBA) extend(base Partition, from int, chosen []model.ObjectID,
	prefix *bitstr.Bits, emit Emit) {
	lb := fbaLookback(f.c)
	for i := from; i < len(f.cands); i++ {
		b := f.cands[i].bits
		if prefix != nil {
			b = &f.depth[len(chosen)]
			bitstr.AndInto(b, prefix, f.cands[i].bits)
		}
		start, count, runs := f.chainFrom(b)
		if count < f.c.K || start > lb {
			continue
		}
		chosen = append(chosen, f.cands[i].id)
		if len(chosen) >= f.c.M-1 && start == lb {
			f.emitPattern(base, chosen, runs, emit)
		}
		f.extend(base, i+1, chosen, b, emit)
		chosen = chosen[:len(chosen)-1]
	}
}

// emitPattern reports one pattern whose chain (runs) starts at the window
// base.
func (f *FBA) emitPattern(base Partition, members []model.ObjectID,
	runs []bitstr.Run, emit Emit) {
	from := base.Tick - model.Tick(fbaLookback(f.c))
	n := 0
	for _, r := range runs {
		n += r.Len
	}
	ticks := make([]model.Tick, 0, n)
	for _, r := range runs {
		for p := r.Start; p < r.End(); p++ {
			ticks = append(ticks, from+model.Tick(p))
		}
	}
	emit(patternOf(f.owner, members, ticks))
}
