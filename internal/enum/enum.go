// Package enum implements the pattern-enumeration phase of ICPE
// (Section 6): id-based partitioning of cluster snapshots, the exponential
// Baseline (Algorithm 3), the fixed-length bit compression method FBA
// (Algorithm 4), and the variable-length bit compression method VBA
// (Algorithm 5), together with an offline oracle used for cross-validation.
//
// # Output semantics
//
// All enumerators report patterns (O, T) with |O| >= M and T a valid time
// sequence under (K, L, G) during which every member of O shares a cluster.
// They differ — exactly as the paper describes — in which witness T they
// attach and when they report:
//
//   - BA and FBA evaluate a window of eta snapshots per start tick and
//     report a pattern at the first tick of each of its maximal sequences,
//     with the witness truncated to the window (low latency).
//   - VBA reports each maximal pattern time sequence (Definition 15) once,
//     when Lemma 7 finalizes it (higher latency, higher throughput).
//
// Cross-method tests therefore compare reported object sets and validate
// every witness, and additionally check VBA's output against the oracle's
// maximal sequences.
package enum

import (
	"sort"

	"repro/internal/model"
)

// Partition is P_t(o) (Section 6.1): the trajectories sharing a cluster
// with owner o at tick t whose ids exceed o's. The owner itself is implicit.
type Partition struct {
	Tick    model.Tick
	Owner   model.ObjectID
	Members []model.ObjectID // sorted ascending, all > Owner
}

// PartitionClusters converts one cluster snapshot into id-based partitions,
// discarding clusters smaller than M (Lemma 3). Every member o of a
// surviving cluster yields a partition owned by o holding the members with
// larger ids — including the cluster's maximum id, whose partition is empty
// but still marks the owner's cluster membership at this tick.
func PartitionClusters(cs *model.ClusterSnapshot, m int) []Partition {
	var out []Partition
	for _, c := range cs.Clusters {
		if len(c) < m {
			continue
		}
		// Clusters are sorted ascending.
		for i, owner := range c {
			out = append(out, Partition{
				Tick:    cs.Tick,
				Owner:   owner,
				Members: c[i+1:],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// Emit receives detected patterns.
type Emit func(model.Pattern)

// Enumerator is one owner-subtask's pattern enumeration state. Partitions
// must arrive in strictly increasing tick order; ticks at which the owner
// is unclustered are simply absent.
type Enumerator interface {
	// Name identifies the method ("BA", "FBA", "VBA").
	Name() string
	// Process ingests the owner's partition for one tick.
	Process(p Partition, emit Emit)
	// Flush finalizes all pending state at stream end.
	Flush(emit Emit)
}

// NewFunc constructs a fresh enumerator for one owner subtask.
type NewFunc func(owner model.ObjectID, c model.Constraints) Enumerator

// tickSet is one tick's membership within a subtask's history: the
// partition's member ids, sorted ascending. Window evaluation merges them
// against the window base's members, so no per-tick lookup set is built.
type tickSet struct {
	tick model.Tick
	ids  []model.ObjectID // sorted ascending (Partition order)
}

// containsAll reports whether every id in set (sorted ascending) was a
// member at tick, given the history entries in ascending tick order.
func containsAll(entries []tickSet, tick model.Tick, set []model.ObjectID) bool {
	i := sort.Search(len(entries), func(i int) bool {
		return entries[i].tick >= tick
	})
	if i == len(entries) || entries[i].tick != tick {
		return false
	}
	ids := entries[i].ids
	j := 0
	for _, id := range set {
		for j < len(ids) && ids[j] < id {
			j++
		}
		if j == len(ids) || ids[j] != id {
			return false
		}
		j++
	}
	return true
}

// queue is a FIFO over a reused backing array. Dropping from the front
// only advances the head; a push into a full array first slides the live
// items back to its start. Steady-state use therefore neither allocates
// nor moves the live items on every call.
type queue[T any] struct {
	buf  []T // live items are buf[head:]
	head int
}

func (q *queue[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // release what the dropped items referenced
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// items returns the live items, oldest first; the slice is valid until
// the next push.
func (q *queue[T]) items() []T { return q.buf[q.head:] }

// drop discards the n oldest items.
func (q *queue[T]) drop(n int) { q.head += n }

// reset empties the queue and releases its storage.
func (q *queue[T]) reset() { *q = queue[T]{} }

// windowed drives per-start-tick evaluation for BA and FBA: every incoming
// partition opens a window that is evaluated once eta ticks have passed (or
// at flush). lookback ticks before each window base are retained so the
// evaluator can verify that the base truly starts a chain — a usable run
// ending within G ticks before the base means an earlier window already
// reported the pattern.
type windowed struct {
	eta      int
	lookback int
	hist     queue[tickSet]   // ascending ticks
	pending  queue[Partition] // windows whose eta ticks have not all arrived
}

// advance ingests a partition and returns the windows that are now ready
// for evaluation (all their eta ticks are in the past or present). The
// result aliases the pending queue and is valid until the next advance.
// History is pruned relative to the oldest window still needing it —
// including the ready ones the caller is about to evaluate.
func (w *windowed) advance(p Partition) []Partition {
	w.hist.push(tickSet{tick: p.Tick, ids: p.Members})
	w.pending.push(p)
	pending := w.pending.items()
	n := 0
	for n < len(pending) && pending[n].Tick+model.Tick(w.eta)-1 <= p.Tick {
		n++
	}
	w.pending.drop(n)
	// Pending ticks ascend, so the oldest window still needing history is
	// the first pending one, ready or not.
	cut := pending[0].Tick - model.Tick(w.lookback)
	hist := w.hist.items()
	i := 0
	for i < len(hist) && hist[i].tick < cut {
		i++
	}
	w.hist.drop(i)
	return pending[:n]
}

// drain returns all remaining windows (stream flush).
func (w *windowed) drain() []Partition {
	out := w.pending.items()
	w.pending.reset()
	return out
}

// patternOf assembles a normalized pattern from an owner, member subset,
// and witness ticks.
func patternOf(owner model.ObjectID, members []model.ObjectID, ticks []model.Tick) model.Pattern {
	objs := make([]model.ObjectID, 0, len(members)+1)
	objs = append(objs, owner)
	objs = append(objs, members...)
	return model.NormalizePattern(model.Pattern{Objects: objs, Times: ticks})
}
