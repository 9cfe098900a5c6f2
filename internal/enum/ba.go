package enum

import (
	"repro/internal/bitstr"
	"repro/internal/model"
	"repro/internal/timeseq"
)

// DefaultBAMaxPartition caps the partition size the Baseline will attempt
// to enumerate: beyond it the 2^n candidate materialization is hopeless
// (the paper observes BA "cannot run due to the storage cost" on large
// partitions — Figure 12 shows it failing beyond Or = 60%).
const DefaultBAMaxPartition = 22

// DefaultBACandidateBudget caps the number of candidate subsets one window
// may materialize (sum of C(n,k) for k >= M-1); beyond it the window
// overflows, modelling the paper's storage failure.
const DefaultBACandidateBudget = 1 << 20

// subsetCountAtLeast estimates sum_{k>=m} C(n,k), saturating at +inf-ish.
func subsetCountAtLeast(n, m int) float64 {
	if m < 0 {
		m = 0
	}
	total := 0.0
	c := 1.0 // C(n,0)
	for k := 0; k <= n; k++ {
		if k >= m {
			total += c
			if total > 1e15 {
				return total
			}
		}
		c = c * float64(n-k) / float64(k+1)
	}
	return total
}

// BA is the Baseline of Section 6.1 (Algorithm 3, the SPARE adaptation):
// every subset of each partition is materialized as a candidate and then
// verified against the next eta partitions.
//
// Two verification modes are provided:
//
//   - the default, used for cross-validation, decides each candidate with
//     the exact exists-a-valid-subsequence test, making BA's output
//     identical to FBA's (it remains exponential in time and storage —
//     that is the point of the baseline);
//   - Strict mode follows Algorithm 3's pseudocode verbatim: a single
//     greedily grown time sequence per candidate, discarded via Lemmas 5
//     and 6. The greedy sequence can absorb a tick that only ever forms a
//     too-short segment and then be discarded even though a valid sequence
//     skipping that tick exists, so Strict output is a subset of the exact
//     output; tests document this corner.
type BA struct {
	owner model.ObjectID
	c     model.Constraints
	w     windowed
	// Strict selects the verbatim Algorithm 3 greedy verification.
	Strict bool
	// MaxPartition guards against enumerating 2^n subsets of huge
	// partitions; windows beyond it set Overflowed and are skipped.
	MaxPartition int
	// Overflowed records that at least one window was skipped.
	Overflowed bool
}

// NewBA returns the Baseline enumerator for one owner subtask.
func NewBA(owner model.ObjectID, c model.Constraints) Enumerator {
	return &BA{
		owner:        owner,
		c:            c,
		w:            windowed{eta: c.Eta(), lookback: fbaLookback(c)},
		MaxPartition: DefaultBAMaxPartition,
	}
}

// NewStrictBA returns the Baseline in strict Algorithm 3 mode.
func NewStrictBA(owner model.ObjectID, c model.Constraints) Enumerator {
	ba := NewBA(owner, c).(*BA)
	ba.Strict = true
	return ba
}

// Name implements Enumerator.
func (b *BA) Name() string {
	if b.Strict {
		return "BA-strict"
	}
	return "BA"
}

// Process implements Enumerator.
func (b *BA) Process(p Partition, emit Emit) {
	for _, base := range b.w.advance(p) {
		b.evalWindow(base, emit)
	}
}

// Flush implements Enumerator.
func (b *BA) Flush(emit Emit) {
	for _, base := range b.w.drain() {
		b.evalWindow(base, emit)
	}
}

func (b *BA) evalWindow(base Partition, emit Emit) {
	n := len(base.Members)
	if n < b.c.M-1 {
		return
	}
	if n > b.MaxPartition ||
		subsetCountAtLeast(n, b.c.M-1) > DefaultBACandidateBudget {
		// The candidate list H of Algorithm 3 would not fit; this is the
		// failure mode the paper reports for B on large partitions.
		b.Overflowed = true
		return
	}
	// Enumerate every subset with |O| >= M-1 (Algorithm 3 lines 2-3) and
	// verify each against the window. Branches that can no longer reach
	// cardinality M-1 are skipped.
	subset := make([]model.ObjectID, 0, n)
	var walk func(from int)
	walk = func(from int) {
		if len(subset) >= b.c.M-1 {
			b.verify(base, subset, emit)
		}
		if len(subset)+(n-from) < b.c.M-1 {
			return
		}
		for i := from; i < n; i++ {
			subset = append(subset, base.Members[i])
			walk(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	walk(0)
}

// verify decides one candidate subset against the window's eta partitions
// (Algorithm 3 lines 4-12).
func (b *BA) verify(base Partition, members []model.ObjectID, emit Emit) {
	if b.Strict {
		b.verifyStrict(base, members, emit)
		return
	}
	// Exact mode: collect the occurrence bit string (with lookback) and
	// apply the same chain-start rule as FBA.
	lb := fbaLookback(b.c)
	total := lb + b.c.Eta()
	occ := bitstr.New(total)
	for j := 0; j < total; j++ {
		if containsAll(b.w.hist.items(), base.Tick+model.Tick(j-lb), members) {
			occ.Set(j)
		}
	}
	chain, ok := chainAt(occ, lb, b.c)
	if !ok {
		return
	}
	pos := chain.Positions()
	ticks := make([]model.Tick, len(pos))
	for i, p := range pos {
		ticks[i] = base.Tick + model.Tick(p-lb)
	}
	emit(patternOf(b.owner, members, ticks))
}

// chainAt returns the chain of b that starts exactly at position `at`, when
// it exists and reaches K ones. It reports false when position `at` lies
// inside a longer chain (backward-connected), in a gap, or in an unusable
// run — in all of which cases no valid sequence starting at `at` exists or
// another window owns the pattern.
func chainAt(b *bitstr.Bits, at int, c model.Constraints) (bitstr.Chain, bool) {
	for _, ch := range bitstr.Chains(b, c.L, c.G) {
		if ch.End() <= at {
			continue
		}
		return ch, ch.Start() == at && ch.Count >= c.K
	}
	return bitstr.Chain{}, false
}

// verifyStrict is Algorithm 3 verbatim: grow one sequence greedily, discard
// via Lemmas 5 and 6, output on first validity.
func (b *BA) verifyStrict(base Partition, members []model.ObjectID, emit Emit) {
	T := timeseq.Seq{base.Tick}
	for j := 1; j < b.c.Eta(); j++ {
		t := base.Tick + model.Tick(j)
		if !containsAll(b.w.hist.items(), t, members) {
			continue
		}
		if timeseq.CanExtend(T, t, b.c) {
			T = append(T, t)
		} else if timeseq.ShouldDiscard(T, t, b.c) {
			return // Lemma 5 or 6
		}
		if len(T) >= b.c.K && timeseq.LastSegment(T).Len() >= b.c.L {
			emit(patternOf(b.owner, members, append([]model.Tick(nil), T...)))
			return
		}
	}
}
