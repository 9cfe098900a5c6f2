// Package rangejoin implements the GridQuery operator (Algorithm 2): the
// per-cell range join. Cell tasks arrive keyed by grid cell; qualifying
// pairs leave as msg.Pairs keyed by tick, so the clustering stage can
// reassemble each tick's full pair set. msg.Meta announcements pass
// through unchanged, re-keyed by tick — behind the partitioned front end
// those are per-shard partials the clustering stage merges, and cell
// tasks/deltas for one cell may arrive split across allocate shards, so
// the operator buffers and merges them per (tick, cell) until the
// watermark closes the tick.
//
// In incremental mode the operator is stateful: each grid cell keeps a
// persistent join.IncCell (data + query indexes) that msg.CellDelta
// tasks update in place, emitting only the owned-pair transitions as
// msg.PairDelta. Cell states are key-group state bucketed by the cell
// key's hash — exactly the key the deltas route by — so checkpointing
// and rescale redistribute them correctly.
package rangejoin

import (
	"encoding/binary"
	"slices"

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

// Kernel selects the per-cell join algorithm.
type Kernel int

const (
	// RJC is the paper's interleaved query-then-insert cell join
	// (Lemmas 1-2): every pair is produced exactly once across cells.
	RJC Kernel = iota
	// SRJ is the build-then-probe baseline cell join; duplicates across
	// replicated cells are eliminated downstream.
	SRJ
)

// Op is the GridQuery operator; one instance per subtask. Classic mode
// is stateless; incremental mode holds the persistent cell indexes.
type Op struct {
	flow.BaseOperator
	// Eps is the join distance threshold.
	Eps float64
	// Metric is the distance function (the paper uses L1).
	Metric geo.Metric
	// Kernel selects the cell join algorithm.
	Kernel Kernel
	// Incremental switches the operator to delta maintenance (requires
	// the RJC kernel: ownership accounting relies on Lemma 1/2 claims).
	Incremental bool
	// FrontEnd switches the operator to partitioned-front-end buffering:
	// cell tasks/deltas arrive as per-shard partials and are merged per
	// (tick, cell), then joined/applied in tick order once the merged
	// watermark confirms the tick complete. Without it, a task is
	// self-contained and a delta stream is globally tick-ordered, so both
	// process immediately.
	FrontEnd bool

	// cells holds this subtask's persistent per-cell state (incremental
	// mode); empty cells are dropped.
	cells map[grid.Key]*join.IncCell
	// pendTasks/pendDeltas buffer front-end partials per (tick, cell)
	// until the watermark passes the tick; checkpointed with the cells.
	pendTasks  map[model.Tick]map[grid.Key]*join.CellTask
	pendDeltas map[model.Tick]map[grid.Key]*join.CellDelta
	// scratch buffers are reused across Process calls so the steady
	// state emits without per-cell slice growth. Pair transitions are
	// collected packed (hi<<32|lo) so sorting and netting run on plain
	// uint64s.
	scratch [][2]int32
	addBuf  []uint64
	delBuf  []uint64
}

// New builds a GridQuery operator.
func New(eps float64, metric geo.Metric, kernel Kernel) *Op {
	return &Op{Eps: eps, Metric: metric, Kernel: kernel}
}

// SnapshotState implements ckpt.Snapshotter for classic mode (stateless).
func (g *Op) SnapshotState() ([]byte, error) { return nil, nil }

// RestoreState implements ckpt.Snapshotter (no classic-mode state).
func (g *Op) RestoreState([]byte) error { return nil }

// SnapshotGroups implements ckpt.GroupSnapshotter: every cell state is
// bucketed under the group of the key hash its deltas route by, cells
// encoded in ascending key order for deterministic bytes. In front-end
// mode the group blob also carries the group's pending (tick, cell)
// partials — tasks or deltas buffered ahead of the watermark — in a
// format gated by the FrontEnd flag (the flag follows SourcePartitions,
// which is part of the job fingerprint, so blobs never cross modes).
func (g *Op) SnapshotGroups(group func(uint64) int) (map[int][]byte, error) {
	if g.FrontEnd {
		groups := g.frontEndGroups(group)
		if len(groups) == 0 {
			return nil, nil
		}
		out := make(map[int][]byte, len(groups))
		for grp := range groups {
			out[grp] = g.encodeFrontEndGroup(grp, group)
		}
		return out, nil
	}
	if len(g.cells) == 0 {
		return nil, nil
	}
	return g.encodeCells(group), nil
}

// frontEndGroups returns the key groups currently holding cell state or
// pending partials.
func (g *Op) frontEndGroups(group func(uint64) int) map[int]struct{} {
	groups := make(map[int]struct{})
	for k := range g.cells {
		groups[group(k.Hash())] = struct{}{}
	}
	for _, cells := range g.pendTasks {
		for k := range cells {
			groups[group(k.Hash())] = struct{}{}
		}
	}
	for _, cells := range g.pendDeltas {
		for k := range cells {
			groups[group(k.Hash())] = struct{}{}
		}
	}
	return groups
}

// encodeCells serializes the cell states bucketed by key group, cells in
// ascending key order for deterministic bytes.
func (g *Op) encodeCells(group func(uint64) int) map[int][]byte {
	keys := make([]grid.Key, 0, len(g.cells))
	for k := range g.cells {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b grid.Key) int {
		if a.X != b.X {
			return int(a.X) - int(b.X)
		}
		return int(a.Y) - int(b.Y)
	})
	out := make(map[int][]byte)
	for _, k := range keys {
		grp := group(k.Hash())
		c := g.cells[k]
		buf := out[grp]
		buf = binary.AppendVarint(buf, int64(k.X))
		buf = binary.AppendVarint(buf, int64(k.Y))
		buf = appendEntries(buf, c.Idx.Entries(false))
		buf = appendEntries(buf, c.Idx.Entries(true))
		out[grp] = buf
	}
	return out
}

func appendEntries(buf []byte, os []join.IDLoc) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(os)))
	for _, o := range os {
		buf = binary.AppendUvarint(buf, uint64(o.ID))
		buf = flow.AppendFloat64(buf, o.Loc.X)
		buf = flow.AppendFloat64(buf, o.Loc.Y)
	}
	return buf
}

// RestoreGroup implements ckpt.GroupSnapshotter: one group blob holds a
// sequence of cell frames; restore may be called once per group.
func (g *Op) RestoreGroup(data []byte) error {
	if g.FrontEnd {
		return g.restoreFrontEndGroup(data)
	}
	d := flow.NewDec(data)
	if g.cells == nil {
		g.cells = make(map[grid.Key]*join.IncCell)
	}
	for d.Remaining() > 0 && d.Err() == nil {
		k := grid.Key{X: int32(d.Varint()), Y: int32(d.Varint())}
		c := join.NewIncCell(g.Eps)
		if err := restoreEntries(d, c.Idx, false); err != nil {
			return err
		}
		if err := restoreEntries(d, c.Idx, true); err != nil {
			return err
		}
		if d.Err() == nil {
			g.cells[k] = c
		}
	}
	return d.Err()
}

func restoreEntries(d *flow.Dec, x *join.CellIndex, query bool) error {
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining()/17 { // id varint + two floats per entry
		d.Failf("rangejoin: cell entry count %d exceeds payload", n)
		return d.Err()
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		id := model.ObjectID(d.Uvarint())
		loc := geo.Point{X: d.Float64(), Y: d.Float64()}
		if d.Err() == nil {
			x.Insert(id, loc, query)
		}
	}
	return d.Err()
}

// Process joins one cell task or applies one cell delta (or forwards a
// snapshot announcement).
func (g *Op) Process(data any, out *flow.Collector) {
	switch m := data.(type) {
	case msg.Meta:
		if g.Incremental {
			// Constant key: the single stateful clustering subtask.
			out.Emit(0, m)
		} else {
			out.Emit(uint64(m.Tick), m) // pass through to the clustering stage
		}
	case msg.Cell:
		if g.FrontEnd {
			g.bufferTask(m)
			return
		}
		g.runTask(&m.Task, m.Tick, out)
	case msg.CellDelta:
		if g.FrontEnd {
			g.bufferDelta(m)
			return
		}
		g.applyDelta(&m.Delta, m.Tick, out)
	}
}

// runTask joins one (complete) cell task and emits its pairs keyed by
// tick.
func (g *Op) runTask(task *join.CellTask, tick model.Tick, out *flow.Collector) {
	pairs := g.scratch[:0]
	emit := func(i, j int32) { pairs = append(pairs, [2]int32{i, j}) }
	if g.Kernel == RJC {
		join.RunCellRJC(*task, g.Eps, g.Metric, emit)
	} else {
		join.RunCellSRJ(*task, g.Eps, g.Metric, emit)
	}
	g.scratch = pairs[:0]
	if len(pairs) > 0 {
		// The emitted slice leaves this operator's ownership; copy out
		// of the scratch buffer.
		owned := make([][2]int32, len(pairs))
		copy(owned, pairs)
		out.Emit(uint64(tick), msg.Pairs{Tick: tick, Pairs: owned})
	}
}

// applyDelta folds one (complete) cell delta into the cell's persistent
// index and emits the netted pair transitions.
func (g *Op) applyDelta(delta *join.CellDelta, tick model.Tick, out *flow.Collector) {
	c := g.cells[delta.Key]
	if c == nil {
		c = join.NewIncCell(g.Eps)
		if g.cells == nil {
			g.cells = make(map[grid.Key]*join.IncCell)
		}
		g.cells[delta.Key] = c
	}
	adds, dels := g.addBuf[:0], g.delBuf[:0]
	c.Apply(delta.DataDel, delta.QueryDel, delta.DataAdd, delta.QueryAdd,
		g.Eps, g.Metric, func(add bool, a, b model.ObjectID) {
			p := uint64(a)<<32 | uint64(b)
			if add {
				adds = append(adds, p)
			} else {
				dels = append(dels, p)
			}
		})
	if c.Empty() {
		delete(g.cells, delta.Key)
	}
	g.addBuf, g.delBuf = adds[:0], dels[:0]
	if len(adds) > 0 || len(dels) > 0 {
		slices.Sort(adds)
		slices.Sort(dels)
		adds, dels = netPairs(adds, dels)
	}
	if len(adds) > 0 || len(dels) > 0 {
		d := msg.PairDelta{Tick: tick}
		d.Add = unpackPairs(adds)
		d.Del = unpackPairs(dels)
		out.Emit(0, d)
	}
}

// bufferTask merges one per-shard partial cell task into the (tick, cell)
// buffer. Shards own disjoint object sets, so merging is concatenation.
func (g *Op) bufferTask(m msg.Cell) {
	if g.pendTasks == nil {
		g.pendTasks = make(map[model.Tick]map[grid.Key]*join.CellTask)
	}
	cells := g.pendTasks[m.Tick]
	if cells == nil {
		cells = make(map[grid.Key]*join.CellTask)
		g.pendTasks[m.Tick] = cells
	}
	t := cells[m.Task.Key]
	if t == nil {
		task := m.Task
		cells[m.Task.Key] = &task
		return
	}
	t.Data = append(t.Data, m.Task.Data...)
	t.Queries = append(t.Queries, m.Task.Queries...)
}

// bufferDelta merges one per-shard partial cell delta into the
// (tick, cell) buffer. Buffering (rather than applying immediately) is
// what restores global tick order: a fast shard's tick-t+1 delta may
// arrive before a slow shard's tick-t delta, and cell state must absorb
// them in tick order.
func (g *Op) bufferDelta(m msg.CellDelta) {
	if g.pendDeltas == nil {
		g.pendDeltas = make(map[model.Tick]map[grid.Key]*join.CellDelta)
	}
	cells := g.pendDeltas[m.Tick]
	if cells == nil {
		cells = make(map[grid.Key]*join.CellDelta)
		g.pendDeltas[m.Tick] = cells
	}
	d := cells[m.Delta.Key]
	if d == nil {
		delta := m.Delta
		cells[m.Delta.Key] = &delta
		return
	}
	d.DataDel = append(d.DataDel, m.Delta.DataDel...)
	d.QueryDel = append(d.QueryDel, m.Delta.QueryDel...)
	d.DataAdd = append(d.DataAdd, m.Delta.DataAdd...)
	d.QueryAdd = append(d.QueryAdd, m.Delta.QueryAdd...)
}

// OnWatermark releases every buffered front-end tick the merged watermark
// has passed: all allocate subtasks have flushed their share of those
// ticks (operator emissions precede the forwarded watermark on every
// edge), so the merged tasks/deltas are complete.
func (g *Op) OnWatermark(wm model.Tick, out *flow.Collector) {
	if !g.FrontEnd {
		return
	}
	g.release(wm, out)
}

// Close releases everything still buffered (end of stream).
func (g *Op) Close(out *flow.Collector) {
	if !g.FrontEnd {
		return
	}
	g.release(model.Tick(1<<62-1), out)
}

// release joins/applies buffered ticks <= wm in ascending tick order,
// cells in ascending key order for deterministic emission.
func (g *Op) release(wm model.Tick, out *flow.Collector) {
	var ticks []model.Tick
	for t := range g.pendTasks {
		if t <= wm {
			ticks = append(ticks, t)
		}
	}
	for t := range g.pendDeltas {
		if t <= wm {
			ticks = append(ticks, t)
		}
	}
	slices.Sort(ticks)
	for _, t := range ticks {
		if cells := g.pendTasks[t]; cells != nil {
			delete(g.pendTasks, t)
			for _, k := range sortedKeys(cells) {
				task := cells[k]
				sortCellObjs(task.Data)
				sortCellObjs(task.Queries)
				g.runTask(task, t, out)
			}
		}
		if cells := g.pendDeltas[t]; cells != nil {
			delete(g.pendDeltas, t)
			for _, k := range sortedKeys(cells) {
				g.applyDelta(cells[k], t, out)
			}
		}
	}
}

// sortedKeys returns a map's cell keys in ascending (X, Y) order.
func sortedKeys[V any](cells map[grid.Key]V) []grid.Key {
	keys := make([]grid.Key, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b grid.Key) int {
		if a.X != b.X {
			return int(a.X) - int(b.X)
		}
		return int(a.Y) - int(b.Y)
	})
	return keys
}

// sortCellObjs orders merged cell objects by object id (Idx carries the
// id in front-end mode; unsigned compare keeps huge ids ordered), the
// same order a snapshot-path task lists them in — so the kernels see the
// exact oracle task.
func sortCellObjs(os []join.CellObj) {
	slices.SortFunc(os, func(a, b join.CellObj) int {
		ua, ub := uint32(a.Idx), uint32(b.Idx)
		switch {
		case ua < ub:
			return -1
		case ua > ub:
			return 1
		}
		return 0
	})
}

// netPairs drops pairs present in both sorted lists: an object moving
// within its cell re-derives every surviving neighbour pair as del+add,
// which is a no-op downstream. Each pair appears at most once per list
// (the cell owns a pair exactly once per tick), so a single two-pointer
// pass over the sorted lists suffices. Filters in place.
func netPairs(adds, dels []uint64) ([]uint64, []uint64) {
	i, j := 0, 0
	na, nd := adds[:0], dels[:0]
	for i < len(adds) && j < len(dels) {
		switch a, d := adds[i], dels[j]; {
		case a == d:
			i++
			j++
		case a < d:
			na = append(na, a)
			i++
		default:
			nd = append(nd, d)
			j++
		}
	}
	na = append(na, adds[i:]...)
	nd = append(nd, dels[j:]...)
	return na, nd
}

// unpackPairs expands packed hi<<32|lo pairs into the wire representation.
func unpackPairs(ps []uint64) [][2]model.ObjectID {
	if len(ps) == 0 {
		return nil
	}
	out := make([][2]model.ObjectID, len(ps))
	for i, p := range ps {
		out[i] = [2]model.ObjectID{model.ObjectID(p >> 32), model.ObjectID(uint32(p))}
	}
	return out
}
