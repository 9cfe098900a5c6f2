// Package clusterop implements the GridSync + DBSCAN stage: per-tick
// synchronization of the distributed range-join results, density-based
// clustering, and id-based partitioning of the resulting clusters for the
// enumeration stage. Input arrives keyed by tick; partitions leave keyed
// by owner trajectory id.
package clusterop

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/dbscan"
	"repro/internal/enum"
	"repro/internal/flow"
	"repro/internal/model"
	"repro/internal/ops/msg"
)

// Config parameterizes the clustering operator.
type Config struct {
	// MinPts is DBSCAN's density threshold.
	MinPts int
	// Dedupe eliminates duplicate pairs emitted across replicated cells by
	// the full-replication baselines (the cost the paper charges to
	// SRJ/GDC); the RJC join produces each pair exactly once.
	Dedupe bool
	// GroupMin is the significance constraint M: clusters smaller than
	// GroupMin are discarded before partitioning (Lemma 3).
	GroupMin int
	// Enumerate gates partition emission; false runs clustering-only.
	Enumerate bool
	// Incremental consumes msg.PairDelta input and maintains the cluster
	// structure across ticks instead of rerunning DBSCAN per snapshot.
	// Requires all input routed to one subtask (constant key).
	Incremental bool
	// FrontEnd marks partitioned-front-end input: msg.Meta announcements
	// arrive as per-shard partials (sorted, disjoint id lists) and merge
	// into the tick's object view, and classic-mode pairs carry object
	// ids instead of snapshot positions, translated at finalize.
	FrontEnd bool
	// OnCluster, when set, observes each tick's finished cluster snapshot
	// (latency and cluster-size metrics).
	OnCluster func(model.Tick, *model.ClusterSnapshot)
}

// tickBuf accumulates one tick's inputs until the watermark covers it. The
// snapshot view is reassembled from the msg.Meta announcement (object ids +
// ingest instant) — no pointer into an upstream stage's heap survives here.
type tickBuf struct {
	hasMeta bool
	objects []model.ObjectID
	ingest  time.Time
	pairs   [][2]int32
	seen    map[uint64]struct{} // baseline duplicate elimination
	// incAdds/incDels collect the tick's pair transitions in incremental
	// mode as packed pairs (a<<32 | b), netted at flush by sorting both
	// sides and cancelling equal runs — cheaper than a per-transition map.
	// A pair whose cell ownership moved appears once on each side and nets
	// to zero; any per-pair net outside {-1, 0, +1} means the delta stream
	// desynchronized.
	incAdds, incDels []uint64
}

// Op is the GridSync + DBSCAN operator for one subtask.
type Op struct {
	cfg  Config
	bufs map[model.Tick]*tickBuf
	// cl reuses the from-scratch clustering work buffers across ticks.
	cl dbscan.Clusterer
	// inc is the cross-tick cluster structure (incremental mode only).
	inc *dbscan.Incremental
	// addBuf/delBuf are applyNet's scratch, reused across ticks.
	addBuf, delBuf [][2]model.ObjectID
}

// New builds a clustering operator.
func New(cfg Config) *Op {
	o := &Op{cfg: cfg, bufs: make(map[model.Tick]*tickBuf)}
	if cfg.Incremental {
		o.inc = dbscan.NewIncremental(cfg.MinPts)
	}
	return o
}

// Process buffers one tick input (snapshot announcement or join pairs).
func (d *Op) Process(data any, out *flow.Collector) {
	switch m := data.(type) {
	case msg.Meta:
		b := d.buf(m.Tick)
		if d.cfg.FrontEnd {
			b.mergeMeta(m)
			return
		}
		b.hasMeta = true
		b.objects = m.Objects
		b.ingest = m.Ingest
	case msg.Pairs:
		b := d.buf(m.Tick)
		if !d.cfg.Dedupe {
			b.pairs = append(b.pairs, m.Pairs...)
			return
		}
		if b.seen == nil {
			b.seen = make(map[uint64]struct{})
		}
		for _, p := range m.Pairs {
			k := uint64(uint32(p[0]))<<32 | uint64(uint32(p[1]))
			if _, ok := b.seen[k]; ok {
				continue
			}
			b.seen[k] = struct{}{}
			b.pairs = append(b.pairs, p)
		}
	case msg.PairDelta:
		b := d.buf(m.Tick)
		for _, p := range m.Add {
			b.incAdds = append(b.incAdds, uint64(p[0])<<32|uint64(p[1]))
		}
		for _, p := range m.Del {
			b.incDels = append(b.incDels, uint64(p[0])<<32|uint64(p[1]))
		}
	}
}

func (d *Op) buf(t model.Tick) *tickBuf {
	b := d.bufs[t]
	if b == nil {
		b = &tickBuf{}
		d.bufs[t] = b
	}
	return b
}

// OnWatermark clusters every tick fully covered by the watermark. A covered
// tick whose msg.Meta never arrived can never be completed — the watermark
// promises no further input for it — so it is dropped rather than retained,
// bounding state on lossy or reordered streams. In incremental mode covered
// ticks are processed in ascending order (the deltas of tick t assume the
// structure is at tick t-1), and a meta-less tick still applies its deltas —
// only the output is skipped — so the cross-tick state never desynchronizes.
func (d *Op) OnWatermark(wm model.Tick, out *flow.Collector) {
	if d.cfg.Incremental {
		d.flushIncremental(wm, out)
		return
	}
	for t, b := range d.bufs {
		if t > wm {
			continue
		}
		if b.hasMeta {
			d.finalize(t, b, out)
		}
		delete(d.bufs, t)
	}
}

func (d *Op) flushIncremental(wm model.Tick, out *flow.Collector) {
	var ticks []model.Tick
	for t := range d.bufs {
		if t <= wm {
			ticks = append(ticks, t)
		}
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	for _, t := range ticks {
		b := d.bufs[t]
		d.applyNet(t, b)
		if b.hasMeta {
			snap := &model.Snapshot{Tick: t, Objects: b.objects, Ingest: b.ingest}
			d.emit(t, snap, d.inc.Clusters(b.objects), out)
		}
		delete(d.bufs, t)
	}
}

// applyNet advances the incremental structure by one tick's netted pair
// transitions: both transition lists are sorted and equal runs cancel
// against each other (a merge over two sorted slices — no per-pair map).
func (d *Op) applyNet(t model.Tick, b *tickBuf) {
	if len(b.incAdds) == 0 && len(b.incDels) == 0 {
		return
	}
	A, D := b.incAdds, b.incDels
	slices.Sort(A)
	slices.Sort(D)
	adds, dels := d.addBuf[:0], d.delBuf[:0]
	i, j := 0, 0
	for i < len(A) || j < len(D) {
		var p uint64
		if j >= len(D) || (i < len(A) && A[i] < D[j]) {
			p = A[i]
		} else {
			p = D[j]
		}
		n := 0
		for i < len(A) && A[i] == p {
			n++
			i++
		}
		for j < len(D) && D[j] == p {
			n--
			j++
		}
		pair := [2]model.ObjectID{model.ObjectID(p >> 32), model.ObjectID(uint32(p))}
		switch n {
		case 0: // ownership moved between cells, or a move kept the pair
		case 1:
			adds = append(adds, pair)
		case -1:
			dels = append(dels, pair)
		default:
			panic(fmt.Sprintf("clusterop: tick %d pair %v netted to %d, delta stream desynchronized", t, pair, n))
		}
	}
	d.addBuf, d.delBuf = adds[:0], dels[:0]
	d.inc.Apply(adds, dels)
}

func (d *Op) finalize(t model.Tick, b *tickBuf, out *flow.Collector) {
	snap := &model.Snapshot{Tick: t, Objects: b.objects, Ingest: b.ingest}
	pairs := b.pairs
	if d.cfg.FrontEnd {
		pairs = translatePairs(t, b.objects, pairs)
	}
	d.emit(t, snap, d.cl.FromPairs(snap.Len(), pairs, d.cfg.MinPts), out)
}

// mergeMeta folds one per-shard partial announcement into the tick's
// object view. Shard lists are sorted and disjoint (key groups partition
// the id space), so a single merge pass reproduces the id-sorted object
// list the snapshot path announces in one piece; the ingest instant is
// the earliest non-zero one, matching the assembled snapshot's minimum.
func (b *tickBuf) mergeMeta(m msg.Meta) {
	b.hasMeta = true
	if b.ingest.IsZero() || (!m.Ingest.IsZero() && m.Ingest.Before(b.ingest)) {
		b.ingest = m.Ingest
	}
	if len(b.objects) == 0 {
		b.objects = m.Objects
		return
	}
	merged := make([]model.ObjectID, 0, len(b.objects)+len(m.Objects))
	i, j := 0, 0
	for i < len(b.objects) && j < len(m.Objects) {
		if b.objects[i] < m.Objects[j] {
			merged = append(merged, b.objects[i])
			i++
		} else {
			merged = append(merged, m.Objects[j])
			j++
		}
	}
	merged = append(merged, b.objects[i:]...)
	merged = append(merged, m.Objects[j:]...)
	b.objects = merged
}

// translatePairs rewrites front-end id-pairs into positions in the
// tick's merged (id-sorted) object list — the coordinate system
// dbscan.FromPairs and the cluster snapshot use. Rewrites in place; the
// buffer is released right after. Every pair endpoint was announced by
// its shard's partial meta, so a missing id means the streams
// desynchronized.
func translatePairs(t model.Tick, objects []model.ObjectID, pairs [][2]int32) [][2]int32 {
	idx := func(v int32) int32 {
		id := model.ObjectID(uint32(v))
		k := sort.Search(len(objects), func(i int) bool { return objects[i] >= id })
		if k == len(objects) || objects[k] != id {
			panic(fmt.Sprintf("clusterop: tick %d pair references unannounced object %d", t, id))
		}
		return int32(k)
	}
	for n, p := range pairs {
		i, j := idx(p[0]), idx(p[1])
		if i > j {
			i, j = j, i
		}
		pairs[n] = [2]int32{i, j}
	}
	return pairs
}

func (d *Op) emit(t model.Tick, snap *model.Snapshot, clusters [][]int32, out *flow.Collector) {
	cs := dbscan.ToClusterSnapshot(snap, clusters)
	if d.cfg.OnCluster != nil {
		d.cfg.OnCluster(t, cs)
	}
	if !d.cfg.Enumerate {
		return
	}
	for _, p := range enum.PartitionClusters(cs, d.cfg.GroupMin) {
		out.Emit(uint64(p.Owner), p)
	}
}

// Close flushes any ticks still buffered at stream end; meta-less ticks are
// incomplete and discarded (classic) or advance the structure silently
// (incremental).
func (d *Op) Close(out *flow.Collector) {
	if d.cfg.Incremental {
		d.flushIncremental(model.Tick(math.MaxInt64), out)
		return
	}
	for t, b := range d.bufs {
		if b.hasMeta {
			d.finalize(t, b, out)
		}
		delete(d.bufs, t)
	}
}

// Buffered reports the number of ticks currently held back (tests).
func (d *Op) Buffered() int { return len(d.bufs) }
