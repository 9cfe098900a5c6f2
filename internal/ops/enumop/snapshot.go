package enumop

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/enum"
	"repro/internal/flow"
	"repro/internal/model"
)

var _ ckpt.GroupSnapshotter = (*Op)(nil)

// groupBuf accumulates one key group's share of the operator state while
// SnapshotGroups buckets it: the pending reorder-buffer partitions (tick
// order) and the owners with live enumerators.
type groupBuf struct {
	ticks  []model.Tick // ticks holding this group's partitions, ascending
	items  map[model.Tick][]enum.Partition
	owners []model.ObjectID // ascending (appended from a sorted sweep)
}

// SnapshotGroups implements ckpt.GroupSnapshotter: the reorder buffer's
// pending partitions and each owner's enumerator state, bucketed by the
// key group of the owner trajectory id — the key clusterop routes
// partitions by, so every piece of state lives in the bucket its input
// routes to. The per-owner blobs are produced by the enumerators
// themselves (enum implements ckpt.Snapshotter for BA, FBA and VBA), so
// the operator stays agnostic of the enumeration method.
func (e *Op) SnapshotGroups(group func(uint64) int) (map[int][]byte, error) {
	if e.reorder.Len() == 0 && len(e.subs) == 0 {
		return nil, nil
	}
	bufs := e.bucketGroups(group)
	out := make(map[int][]byte, len(bufs))
	for g, gb := range bufs {
		blob, err := e.encodeGroup(gb)
		if err != nil {
			return nil, err
		}
		out[g] = blob
	}
	return out, nil
}

// bucketGroups buckets the operator's state — pending reorder-buffer
// partitions and live enumerator owners — by key group.
func (e *Op) bucketGroups(group func(uint64) int) map[int]*groupBuf {
	bufs := make(map[int]*groupBuf)
	grab := func(g int) *groupBuf {
		gb := bufs[g]
		if gb == nil {
			gb = &groupBuf{items: make(map[model.Tick][]enum.Partition)}
			bufs[g] = gb
		}
		return gb
	}
	for _, t := range e.reorder.BufferedTicks() {
		for _, item := range e.reorder.Items(t) {
			p := item.(enum.Partition)
			gb := grab(group(uint64(p.Owner)))
			if gb.items[t] == nil {
				gb.ticks = append(gb.ticks, t) // BufferedTicks is ascending
			}
			gb.items[t] = append(gb.items[t], p)
		}
	}
	owners := make([]model.ObjectID, 0, len(e.subs))
	for o := range e.subs {
		owners = append(owners, o)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, o := range owners {
		gb := grab(group(uint64(o)))
		gb.owners = append(gb.owners, o)
	}
	return bufs
}

// encodeGroup serializes one key group's share: the buffered partitions in
// tick order, then each owner's enumerator state.
func (e *Op) encodeGroup(gb *groupBuf) ([]byte, error) {
	buf := binary.AppendUvarint(nil, uint64(len(gb.ticks)))
	for _, t := range gb.ticks {
		items := gb.items[t]
		buf = binary.AppendVarint(buf, int64(t))
		buf = binary.AppendUvarint(buf, uint64(len(items)))
		for _, p := range items {
			buf = enum.AppendPartition(buf, p)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(gb.owners)))
	for _, o := range gb.owners {
		s, ok := e.subs[o].(ckpt.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("enumop: %s enumerator is not checkpointable", e.subs[o].Name())
		}
		blob, err := s.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("enumop: owner %d: %w", o, err)
		}
		buf = binary.AppendUvarint(buf, uint64(o))
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return buf, nil
}

// RestoreGroup implements ckpt.GroupSnapshotter: one key group's
// partitions and enumerators are merged into the operator. Enumerators are
// rebuilt with the operator's own factory — construction-time
// configuration comes from the topology, only keyed state from the
// checkpoint. Groups hold disjoint owner sets, so merging never collides;
// after a rescale a subtask restores every group blob covering its new
// range.
func (e *Op) RestoreGroup(data []byte) error {
	d := flow.NewDec(data)
	nt := int(d.Uvarint())
	for i := 0; i < nt && d.Err() == nil; i++ {
		t := model.Tick(d.Varint())
		ni := int(d.Uvarint())
		if ni < 0 || ni > d.Remaining() {
			d.Failf("partition count %d exceeds payload", ni)
			break
		}
		for j := 0; j < ni && d.Err() == nil; j++ {
			p := enum.DecodePartition(d)
			if d.Err() == nil {
				e.reorder.Add(t, p)
			}
		}
	}
	no := int(d.Uvarint())
	for i := 0; i < no && d.Err() == nil; i++ {
		owner := model.ObjectID(d.Uvarint())
		blob := d.Bytes(int(d.Uvarint()))
		if d.Err() != nil {
			break
		}
		sub := e.cfg.New(owner, e.cfg.Constraints)
		s, ok := sub.(ckpt.Snapshotter)
		if !ok {
			return fmt.Errorf("enumop: %s enumerator is not checkpointable", sub.Name())
		}
		if len(blob) > 0 {
			if err := s.RestoreState(blob); err != nil {
				return fmt.Errorf("enumop: owner %d: %w", owner, err)
			}
		}
		e.subs[owner] = sub
	}
	return d.Err()
}
