// Checkpoint state for the allocate operator, in two formats gated by the
// mode (the mode is part of the job fingerprint, so a blob is never
// decoded by the wrong one):
//
//   - Snapshot path: the incremental previous-position map as a single
//     count-prefixed blob under key group 0 (classic is stateless).
//   - Front end: per key group — the group's share of the previous
//     positions plus its share of the open per-tick record buffers, each
//     blob prefixed with the subtask's lastFlushed cursor. Groups are the
//     object id's key groups, so the state reshards with the stage; the
//     cursor is subtask-scoped, so every blob carries it and a restore
//     max-merges.
package allocate

import (
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/model"
)

// SnapshotState implements ckpt.Snapshotter for the stateless classic
// snapshot path. (Keyed state goes through SnapshotGroups, which takes
// dispatch precedence.)
func (a *Op) SnapshotState() ([]byte, error) { return nil, nil }

// RestoreState implements ckpt.Snapshotter (no raw-blob state).
func (a *Op) RestoreState([]byte) error { return nil }

// SnapshotGroups implements ckpt.GroupSnapshotter.
func (a *Op) SnapshotGroups(group func(uint64) int) (map[int][]byte, error) {
	if !a.FrontEnd {
		return a.snapshotPrevKey0(group)
	}
	groups := a.groupSet(group)
	if len(groups) == 0 {
		// An empty shard's cursor needs no blob: losing it only skips the
		// phantom delete-all, which is vacuous when prev is empty.
		return nil, nil
	}
	out := make(map[int][]byte, len(groups))
	for g := range groups {
		out[g] = a.encodeGroup(g, group)
	}
	return out, nil
}

// RestoreGroup implements ckpt.GroupSnapshotter: one key group's state is
// merged into the operator (groups are disjoint, so entries never
// collide; the cursor max-merges).
func (a *Op) RestoreGroup(data []byte) error {
	if !a.FrontEnd {
		return a.restorePrevKey0(data)
	}
	d := flow.NewDec(data)
	if lf := model.Tick(d.Varint()); lf > a.lastFlushed {
		a.lastFlushed = lf
	}
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining()/17 { // id varint + two fixed floats
		d.Failf("allocate: position count %d exceeds payload", n)
		return d.Err()
	}
	if a.prev == nil {
		a.prev = make(map[model.ObjectID]geo.Point, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		id := model.ObjectID(d.Uvarint())
		a.prev[id] = geo.Point{X: d.Float64(), Y: d.Float64()}
	}
	ticks := int(d.Uvarint())
	if ticks < 0 || ticks > d.Remaining() {
		d.Failf("allocate: tick count %d exceeds payload", ticks)
		return d.Err()
	}
	for i := 0; i < ticks; i++ {
		t := model.Tick(d.Varint())
		var ingest time.Time
		if d.Byte() != 0 {
			ingest = time.Unix(0, d.Varint())
		}
		m := int(d.Uvarint())
		if m < 0 || m > d.Remaining()/17 {
			d.Failf("allocate: record count %d exceeds payload", m)
			return d.Err()
		}
		p := a.pending[t]
		if p == nil {
			p = &partial{}
			a.pending[t] = p
		}
		if p.ingest.IsZero() || (!ingest.IsZero() && ingest.Before(p.ingest)) {
			p.ingest = ingest
		}
		for j := 0; j < m && d.Err() == nil; j++ {
			p.ids = append(p.ids, model.ObjectID(d.Uvarint()))
			p.locs = append(p.locs, geo.Point{X: d.Float64(), Y: d.Float64()})
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
	return d.Err()
}

// groupSet returns the key groups that currently hold front-end state.
func (a *Op) groupSet(group func(uint64) int) map[int]struct{} {
	groups := make(map[int]struct{})
	for id := range a.prev {
		groups[group(uint64(id))] = struct{}{}
	}
	for _, p := range a.pending {
		for _, id := range p.ids {
			groups[group(uint64(id))] = struct{}{}
		}
	}
	return groups
}

// encodeGroup serializes one key group's share of the front-end state.
func (a *Op) encodeGroup(g int, group func(uint64) int) []byte {
	buf := binary.AppendVarint(nil, int64(a.lastFlushed))

	ids := make([]model.ObjectID, 0, len(a.prev))
	for id := range a.prev {
		if group(uint64(id)) == g {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		loc := a.prev[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = flow.AppendFloat64(buf, loc.X)
		buf = flow.AppendFloat64(buf, loc.Y)
	}

	var ticks []model.Tick
	for t, p := range a.pending {
		for _, id := range p.ids {
			if group(uint64(id)) == g {
				ticks = append(ticks, t)
				break
			}
		}
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ticks)))
	for _, t := range ticks {
		p := a.pending[t]
		buf = binary.AppendVarint(buf, int64(t))
		if p.ingest.IsZero() {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.AppendVarint(buf, p.ingest.UnixNano())
		}
		count := 0
		for _, id := range p.ids {
			if group(uint64(id)) == g {
				count++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(count))
		for i, id := range p.ids {
			if group(uint64(id)) != g {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(id))
			buf = flow.AppendFloat64(buf, p.locs[i].X)
			buf = flow.AppendFloat64(buf, p.locs[i].Y)
		}
	}
	return buf
}

// snapshotPrevKey0 is the snapshot-path encoding: the previous-tick
// positions, bucketed under the key-0 group the snapshots route by.
func (a *Op) snapshotPrevKey0(group func(uint64) int) (map[int][]byte, error) {
	if len(a.prev) == 0 {
		return nil, nil
	}
	ids := make([]model.ObjectID, 0, len(a.prev))
	for id := range a.prev {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		loc := a.prev[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = flow.AppendFloat64(buf, loc.X)
		buf = flow.AppendFloat64(buf, loc.Y)
	}
	return map[int][]byte{group(0): buf}, nil
}

// restorePrevKey0 decodes the snapshot-path format.
func (a *Op) restorePrevKey0(data []byte) error {
	d := flow.NewDec(data)
	n := int(d.Uvarint())
	if n < 0 || n > d.Remaining()/17 { // id varint + two floats per entry
		d.Failf("allocate: position count %d exceeds payload", n)
		return d.Err()
	}
	if a.prev == nil {
		a.prev = make(map[model.ObjectID]geo.Point, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		id := model.ObjectID(d.Uvarint())
		a.prev[id] = geo.Point{X: d.Float64(), Y: d.Float64()}
	}
	return d.Err()
}
