// Package allocate implements the GridAllocate operator (Algorithm 1):
// each incoming snapshot is replicated into grid cell tasks according to
// the configured replication mode and emitted keyed by cell, plus one
// msg.Meta announcement keyed by tick so downstream stages learn the
// snapshot's object ids.
//
// In incremental mode the operator instead diffs each snapshot against
// the previous tick's positions and emits per-cell msg.CellDelta tasks
// (enter/leave/move), so downstream stages only touch the cells where
// something changed.
//
// In front-end mode (partitioned ingestion, SourcePartitions > 0) there is
// no snapshot at all: the operator is fed raw records keyed by object id,
// buffers each tick's records for its own key groups, and flushes a tick
// when the merged source watermark passes it — emitting a partial
// msg.Meta (this shard's sorted object ids) plus either id-keyed cell
// tasks (classic) or cell deltas diffed against the shard's own
// previous-tick positions (incremental). The previous-position map is
// genuinely per-key-group state: it checkpoints bucketed by the object
// id's key group and therefore rescales with the stage.
package allocate

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/model"
	"repro/internal/ops/msg"
)

var (
	_ ckpt.Snapshotter      = (*Op)(nil)
	_ ckpt.GroupSnapshotter = (*Op)(nil)
)

// noTick is the "nothing flushed yet" sentinel for the front-end tick
// cursor (matches the flow runtime's initial watermark).
const noTick = model.Tick(-1 << 62)

// Stats aggregates front-end allocate counters across the stage's
// subtasks; the driver registers them as metrics. Enter/move/leave
// classify incremental diffs (a classic run leaves them at zero).
type Stats struct {
	Enters atomic.Int64
	Moves  atomic.Int64
	Leaves atomic.Int64
	// Flushed[i] is 1 + the highest watermark subtask i has flushed
	// through (0 until the first flush) — the per-shard front-end
	// progress the watermark-lag gauge reads.
	Flushed []atomic.Int64
}

// NewStats sizes the per-subtask progress slots.
func NewStats(parallelism int) *Stats {
	return &Stats{Flushed: make([]atomic.Int64, parallelism)}
}

// partial buffers one tick's records for this subtask's key groups.
type partial struct {
	ids    []model.ObjectID
	locs   []geo.Point
	ingest time.Time
}

// Op is the GridAllocate operator; one instance per subtask. In classic
// snapshot mode it is stateless; in incremental snapshot mode the single
// subtask owning key group 0 holds the previous tick's positions; in
// front-end mode every subtask holds the previous positions of its own
// key groups plus the open per-tick record buffers.
type Op struct {
	flow.BaseOperator
	// CellWidth is the grid cell width lg.
	CellWidth float64
	// Eps is the range-join distance threshold.
	Eps float64
	// Mode selects Lemma 1 upper-half replication (RJC) or full-region
	// replication (the SRJ/GDC baselines).
	Mode grid.Mode
	// Incremental switches the operator to delta emission. In snapshot
	// mode the topology must then route every snapshot by the same
	// constant key, so one subtask sees the whole stream in tick order;
	// in front-end mode each subtask diffs its own shard independently.
	Incremental bool
	// FrontEnd switches the operator to record ingestion (fed msg.Rec
	// keyed by object id, flushed by merged source watermarks).
	FrontEnd bool
	// Subtask is this instance's index (front-end progress reporting).
	Subtask int
	// Stats, when non-nil, receives front-end counters.
	Stats *Stats

	// prev maps object id to its location at the previously processed
	// tick; allocated on first use. Front-end mode holds only this
	// shard's objects.
	prev map[model.ObjectID]geo.Point

	// Front-end state.
	pending map[model.Tick]*partial
	// lastFlushed is the highest tick this shard has accounted for:
	// every tick <= lastFlushed has either been flushed or established
	// as silent for this shard.
	lastFlushed model.Tick
}

// New builds a GridAllocate operator for the snapshot path.
func New(cellWidth, eps float64, mode grid.Mode) *Op {
	return &Op{CellWidth: cellWidth, Eps: eps, Mode: mode, lastFlushed: noTick}
}

// NewFrontEnd builds a GridAllocate operator for the partitioned front
// end: subtask's share of the record stream in, per-shard metas and cell
// tasks/deltas out.
func NewFrontEnd(cellWidth, eps float64, mode grid.Mode, incremental bool, subtask int, stats *Stats) *Op {
	return &Op{
		CellWidth:   cellWidth,
		Eps:         eps,
		Mode:        mode,
		Incremental: incremental,
		FrontEnd:    true,
		Subtask:     subtask,
		Stats:       stats,
		pending:     make(map[model.Tick]*partial),
		lastFlushed: noTick,
	}
}

// Process splits one snapshot into cell tasks (classic) or cell deltas
// (incremental); in front-end mode it buffers one raw record under its
// tick instead.
func (a *Op) Process(data any, out *flow.Collector) {
	if a.FrontEnd {
		a.buffer(data.(msg.Rec))
		return
	}
	s := data.(*model.Snapshot)
	// The meta message travels to the clustering stage through the range
	// join (keyed by tick there) so the snapshot's object ids are available.
	// Objects are copied: downstream stages may live in other processes and
	// must never share the source snapshot's heap.
	objs := append([]model.ObjectID(nil), s.Objects...)
	meta := msg.Meta{Tick: s.Tick, Objects: objs, Ingest: s.Ingest}
	if !a.Incremental {
		out.Emit(uint64(s.Tick), meta)
		for _, task := range join.AllocateSnapshot(s, a.CellWidth, a.Eps, a.Mode) {
			out.Emit(task.Key.Hash(), msg.Cell{Tick: s.Tick, Task: task})
		}
		return
	}
	// Incremental: meta rides the constant key so it reaches the single
	// stateful clustering subtask; deltas stay keyed by cell so the range
	// join keeps its full parallelism.
	out.Emit(0, meta)
	if a.prev == nil {
		a.prev = make(map[model.ObjectID]geo.Point, s.Len())
	}
	for _, delta := range join.DiffSnapshot(a.prev, s, a.CellWidth, a.Eps, a.Mode) {
		out.Emit(delta.Key.Hash(), msg.CellDelta{Tick: s.Tick, Delta: delta})
	}
}

// buffer stashes one record under its tick (front-end mode).
func (a *Op) buffer(r msg.Rec) {
	p := a.pending[r.Tick]
	if p == nil {
		p = &partial{}
		a.pending[r.Tick] = p
	}
	p.ids = append(p.ids, r.Object)
	p.locs = append(p.locs, r.Loc)
	if p.ingest.IsZero() || (!r.Ingest.IsZero() && r.Ingest.Before(p.ingest)) {
		p.ingest = r.Ingest
	}
}

// OnWatermark flushes every buffered tick the merged source watermark has
// passed: all source partitions have promised their contribution to those
// ticks is complete, which is exactly the release condition the global
// assembler used to compute — now evaluated shard-locally with no
// materialized snapshot.
func (a *Op) OnWatermark(wm model.Tick, out *flow.Collector) {
	if !a.FrontEnd {
		return
	}
	a.flush(wm, out, true)
}

// Close flushes whatever is still buffered (end of stream). No trailing
// phantom: ticks beyond the last buffered one never materialized.
func (a *Op) Close(out *flow.Collector) {
	if !a.FrontEnd {
		return
	}
	a.flush(model.Tick(1<<62-1), out, false)
}

// flush releases buffered ticks <= wm in ascending order. In incremental
// mode a gap in this shard's buffered ticks means the shard went silent
// while the stream advanced: the oracle snapshot for such a tick omits
// the shard's objects, so the diff must delete them — emitted once as a
// "phantom" delete-all delta attributed to the first silent tick (see
// phantomGap). With trailing set, the silent stretch up to wm itself is
// also accounted for.
func (a *Op) flush(wm model.Tick, out *flow.Collector, trailing bool) {
	var ticks []model.Tick
	for t := range a.pending {
		if t <= wm {
			ticks = append(ticks, t)
		}
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	for _, t := range ticks {
		p := a.pending[t]
		delete(a.pending, t)
		if t <= a.lastFlushed {
			continue // replayed duplicate; already accounted for
		}
		if a.Incremental {
			a.phantomGap(t, out)
		}
		a.flushTick(t, p, out)
		a.lastFlushed = t
	}
	if trailing && wm > a.lastFlushed {
		if a.Incremental {
			a.phantomGap(wm+1, out)
		}
		a.lastFlushed = wm
	}
	if a.Stats != nil && a.Subtask < len(a.Stats.Flushed) && wm >= 0 && wm < 1<<62-1 {
		a.Stats.Flushed[a.Subtask].Store(int64(wm) + 1)
	}
}

// phantomGap covers the silent ticks strictly before next: if the shard
// holds previous positions but flushed nothing since lastFlushed, the
// stream materialized ticks without this shard's objects, so they all
// vanish at the first silent tick. One delete-all delta empties prev;
// later silent ticks are then no-ops, so the phantom costs O(shard) once
// per silent stretch, not per tick.
func (a *Op) phantomGap(next model.Tick, out *flow.Collector) {
	if a.lastFlushed == noTick || a.lastFlushed >= next-1 || len(a.prev) == 0 {
		return
	}
	t := a.lastFlushed + 1
	if a.Stats != nil {
		a.Stats.Leaves.Add(int64(len(a.prev)))
	}
	// No Meta: the shard contributed no objects to this tick. Downstream
	// applies meta-less deltas silently, exactly like the oracle, which
	// never announces this shard's objects for the tick either.
	for _, delta := range join.DiffObjects(a.prev, nil, nil, a.CellWidth, a.Eps, a.Mode) {
		out.Emit(delta.Key.Hash(), msg.CellDelta{Tick: t, Delta: delta})
	}
	a.lastFlushed = next - 1
}

// flushTick releases one completed tick of this shard: a partial Meta
// announcing the shard's (sorted) object ids, then the shard's cell tasks
// (classic) or cell deltas (incremental). Partial metas and tasks from
// different shards merge downstream into exactly what the snapshot path
// would have produced, because key groups partition the object universe.
func (a *Op) flushTick(t model.Tick, p *partial, out *flow.Collector) {
	sort.Sort(byID{p})
	meta := msg.Meta{Tick: t, Objects: p.ids, Ingest: p.ingest}
	if !a.Incremental {
		out.Emit(uint64(t), meta)
		for _, task := range join.AllocateObjects(p.ids, p.locs, a.CellWidth, a.Eps, a.Mode) {
			out.Emit(task.Key.Hash(), msg.Cell{Tick: t, Task: task})
		}
		return
	}
	out.Emit(0, meta)
	if a.prev == nil {
		a.prev = make(map[model.ObjectID]geo.Point, len(p.ids))
	}
	var enters, moves int64
	for i, id := range p.ids {
		old, had := a.prev[id]
		switch {
		case !had:
			enters++
		case old != p.locs[i]:
			moves++
		}
	}
	if a.Stats != nil {
		leaves := int64(0)
		for id := range a.prev {
			j := sort.Search(len(p.ids), func(k int) bool { return p.ids[k] >= id })
			if j == len(p.ids) || p.ids[j] != id {
				leaves++
			}
		}
		a.Stats.Enters.Add(enters)
		a.Stats.Moves.Add(moves)
		a.Stats.Leaves.Add(leaves)
	}
	for _, delta := range join.DiffObjects(a.prev, p.ids, p.locs, a.CellWidth, a.Eps, a.Mode) {
		out.Emit(delta.Key.Hash(), msg.CellDelta{Tick: t, Delta: delta})
	}
}

// byID sorts a partial's parallel id/loc slices by object id.
type byID struct{ p *partial }

func (s byID) Len() int           { return len(s.p.ids) }
func (s byID) Less(i, j int) bool { return s.p.ids[i] < s.p.ids[j] }
func (s byID) Swap(i, j int) {
	s.p.ids[i], s.p.ids[j] = s.p.ids[j], s.p.ids[i]
	s.p.locs[i], s.p.locs[j] = s.p.locs[j], s.p.locs[i]
}
