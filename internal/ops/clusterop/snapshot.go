package clusterop

import (
	"encoding/binary"
	"slices"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dbscan"
	"repro/internal/flow"
	"repro/internal/model"
)

var _ ckpt.GroupSnapshotter = (*Op)(nil)

// In the standard topology the aligned barrier travels behind the source
// watermark of the last pre-cut tick, so every buffered tick has been
// finalized and the snapshot is usually empty. The serialization is still
// complete — a topology that checkpoints mid-tick (or a future source that
// interleaves barriers and watermarks differently) round-trips its partial
// tick buffers exactly.

// SnapshotGroups implements ckpt.GroupSnapshotter: the per-tick input
// buffers, bucketed by the key group of their routing key (the tick — the
// key rangejoin emits with, so a buffer lands in the same bucket its
// records route to) and in ascending tick order within each bucket. The
// duplicate-elimination set is not stored; it is rebuilt from the kept
// pairs on restore.
func (d *Op) SnapshotGroups(group func(uint64) int) (map[int][]byte, error) {
	if d.cfg.Incremental {
		// Everything routes by the constant key in incremental mode, so
		// the whole state — cross-tick cluster structure plus pending tick
		// buffers — is one key-0 group blob. Idle subtasks (untouched
		// structure, no buffers) contribute nothing, so the blobs of
		// different subtasks never collide on the group.
		if len(d.bufs) == 0 && d.inc.Empty() {
			return nil, nil
		}
		return map[int][]byte{group(0): d.encodeIncremental()}, nil
	}
	if len(d.bufs) == 0 {
		return nil, nil
	}
	byGroup := make(map[int][]model.Tick)
	for t := range d.bufs {
		g := group(uint64(t))
		byGroup[g] = append(byGroup[g], t)
	}
	out := make(map[int][]byte, len(byGroup))
	for g, ticks := range byGroup {
		sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
		out[g] = d.encodeTicks(ticks)
	}
	return out, nil
}

// encodeTicks serializes the buffers of the given ticks (one key group's
// share of the operator state).
func (d *Op) encodeTicks(ticks []model.Tick) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ticks)))
	for _, t := range ticks {
		b := d.bufs[t]
		buf = binary.AppendVarint(buf, int64(t))
		if b.hasMeta {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(b.objects)))
		for _, id := range b.objects {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		if b.ingest.IsZero() {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.AppendVarint(buf, b.ingest.UnixNano())
		}
		buf = binary.AppendUvarint(buf, uint64(len(b.pairs)))
		for _, p := range b.pairs {
			buf = binary.AppendVarint(buf, int64(p[0]))
			buf = binary.AppendVarint(buf, int64(p[1]))
		}
	}
	return buf
}

// encodeIncremental serializes the incremental-mode state: the cluster
// structure, then the pending tick buffers in ascending tick order, each
// with its netted pair transitions sorted by pair. The byte layout is
// mode-specific without a format tag: Incremental participates in the
// deployment fingerprint, so a classic-mode checkpoint can never be
// restored into an incremental operator or vice versa.
func (d *Op) encodeIncremental() []byte {
	state := d.inc.Encode(nil)
	buf := binary.AppendUvarint(nil, uint64(len(state)))
	buf = append(buf, state...)
	ticks := make([]model.Tick, 0, len(d.bufs))
	for t := range d.bufs {
		ticks = append(ticks, t)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ticks)))
	for _, t := range ticks {
		b := d.bufs[t]
		buf = binary.AppendVarint(buf, int64(t))
		if b.hasMeta {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(b.objects)))
		for _, id := range b.objects {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		if b.ingest.IsZero() {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = binary.AppendVarint(buf, b.ingest.UnixNano())
		}
		// Net the transition lists into sorted (pair, count) rows — the
		// canonical form, so two snapshots of the same logical state are
		// byte-identical regardless of delta arrival order. Zero-net pairs
		// are dropped (they carry no information across the restore).
		A := append([]uint64(nil), b.incAdds...)
		D := append([]uint64(nil), b.incDels...)
		slices.Sort(A)
		slices.Sort(D)
		var rows [][2]int64 // packed pair (fits int64: ids are uint32), net
		i, j := 0, 0
		for i < len(A) || j < len(D) {
			var p uint64
			if j >= len(D) || (i < len(A) && A[i] < D[j]) {
				p = A[i]
			} else {
				p = D[j]
			}
			n := int64(0)
			for i < len(A) && A[i] == p {
				n++
				i++
			}
			for j < len(D) && D[j] == p {
				n--
				j++
			}
			if n != 0 {
				rows = append(rows, [2]int64{int64(p), n})
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for _, r := range rows {
			p := uint64(r[0])
			buf = binary.AppendUvarint(buf, p>>32)
			buf = binary.AppendUvarint(buf, p&0xffffffff)
			buf = binary.AppendVarint(buf, r[1])
		}
	}
	return buf
}

func (d *Op) restoreIncremental(data []byte) error {
	dec := flow.NewDec(data)
	ns := int(dec.Uvarint())
	if ns < 0 || ns > dec.Remaining() {
		dec.Failf("incremental state length %d exceeds payload", ns)
		return dec.Err()
	}
	state := dec.Bytes(ns)
	if dec.Err() != nil {
		return dec.Err()
	}
	inc, err := dbscan.DecodeIncremental(state, d.cfg.MinPts)
	if err != nil {
		return err
	}
	n := int(dec.Uvarint())
	bufs := make(map[model.Tick]*tickBuf, n)
	for i := 0; i < n && dec.Err() == nil; i++ {
		t := model.Tick(dec.Varint())
		b := &tickBuf{hasMeta: dec.Byte() == 1}
		no := int(dec.Uvarint())
		if no < 0 || no > dec.Remaining() {
			dec.Failf("object count %d exceeds payload", no)
			break
		}
		if no > 0 {
			b.objects = make([]model.ObjectID, no)
			for j := range b.objects {
				b.objects[j] = model.ObjectID(dec.Uvarint())
			}
		}
		if dec.Byte() == 1 {
			b.ingest = time.Unix(0, dec.Varint())
		}
		np := int(dec.Uvarint())
		if np < 0 || np > dec.Remaining() {
			dec.Failf("net pair count %d exceeds payload", np)
			break
		}
		for j := 0; j < np && dec.Err() == nil; j++ {
			p := dec.Uvarint()<<32 | dec.Uvarint()&0xffffffff
			n := dec.Varint()
			for ; n > 0; n-- {
				b.incAdds = append(b.incAdds, p)
			}
			for ; n < 0; n++ {
				b.incDels = append(b.incDels, p)
			}
		}
		bufs[t] = b
	}
	if err := dec.Err(); err != nil {
		return err
	}
	d.inc = inc
	for t, b := range bufs {
		d.bufs[t] = b
	}
	return nil
}

// RestoreGroup implements ckpt.GroupSnapshotter: one key group's tick
// buffers are merged into the operator. Groups are disjoint by
// construction, so merging never collides; after a rescale a subtask
// restores every group blob covering its new range.
func (d *Op) RestoreGroup(data []byte) error {
	if d.cfg.Incremental {
		return d.restoreIncremental(data)
	}
	dec := flow.NewDec(data)
	bufs := make(map[model.Tick]*tickBuf)
	n := int(dec.Uvarint())
	for i := 0; i < n && dec.Err() == nil; i++ {
		t := model.Tick(dec.Varint())
		b := &tickBuf{hasMeta: dec.Byte() == 1}
		no := int(dec.Uvarint())
		if no < 0 || no > dec.Remaining() {
			dec.Failf("object count %d exceeds payload", no)
			break
		}
		if no > 0 {
			b.objects = make([]model.ObjectID, no)
			for j := range b.objects {
				b.objects[j] = model.ObjectID(dec.Uvarint())
			}
		}
		if dec.Byte() == 1 {
			b.ingest = time.Unix(0, dec.Varint())
		}
		np := int(dec.Uvarint())
		if np < 0 || np > dec.Remaining() {
			dec.Failf("pair count %d exceeds payload", np)
			break
		}
		for j := 0; j < np && dec.Err() == nil; j++ {
			b.pairs = append(b.pairs, [2]int32{int32(dec.Varint()), int32(dec.Varint())})
		}
		if d.cfg.Dedupe && len(b.pairs) > 0 {
			b.seen = make(map[uint64]struct{}, len(b.pairs))
			for _, p := range b.pairs {
				b.seen[uint64(uint32(p[0]))<<32|uint64(uint32(p[1]))] = struct{}{}
			}
		}
		bufs[t] = b
	}
	if err := dec.Err(); err != nil {
		return err
	}
	for t, b := range bufs {
		d.bufs[t] = b
	}
	return nil
}
