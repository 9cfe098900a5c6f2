// Checkpoint state serialization for the enumerators (ckpt.Snapshotter).
// Each enumerator's keyed state is encoded with the compact varint framing
// the wire codecs use (flow.Dec), prefixed by a method tag so restoring a
// blob into the wrong enumerator type fails loudly instead of corrupting
// the stream. Construction-time configuration (owner, constraints, window
// geometry) is NOT part of the state: a restore always happens into an
// enumerator freshly built by the same NewFunc the original run used.
package enum

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/bitstr"
	"repro/internal/ckpt"
	"repro/internal/flow"
	"repro/internal/model"
)

// All enumerators are checkpointable: their keyed state survives worker
// crashes through the aligned-barrier protocol.
var (
	_ ckpt.Snapshotter = (*BA)(nil)
	_ ckpt.Snapshotter = (*FBA)(nil)
	_ ckpt.Snapshotter = (*VBA)(nil)
)

// Method tags heading each enumerator state blob.
const (
	stateTagBA  = 'B'
	stateTagFBA = 'F'
	stateTagVBA = 'V'
)

// AppendPartition encodes one partition (tick, owner, members); the
// inverse of DecodePartition. Shared with the enumeration operator's
// reorder-buffer snapshot.
func AppendPartition(buf []byte, p Partition) []byte {
	buf = binary.AppendVarint(buf, int64(p.Tick))
	buf = binary.AppendUvarint(buf, uint64(p.Owner))
	return appendIDs(buf, p.Members)
}

// DecodePartition decodes one partition encoded by AppendPartition.
func DecodePartition(d *flow.Dec) Partition {
	return Partition{
		Tick:    model.Tick(d.Varint()),
		Owner:   model.ObjectID(d.Uvarint()),
		Members: decodeIDs(d),
	}
}

func appendIDs(buf []byte, ids []model.ObjectID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

func decodeIDs(d *flow.Dec) []model.ObjectID {
	n := int(d.Uvarint())
	if n == 0 {
		return nil
	}
	if n < 0 || n > d.Remaining() { // every id takes at least one byte
		d.Failf("id count %d exceeds payload", n)
		return nil
	}
	ids := make([]model.ObjectID, n)
	for i := range ids {
		ids[i] = model.ObjectID(d.Uvarint())
	}
	return ids
}

// appendBits encodes a bit string as its length plus packed bytes
// (LSB-first within each byte).
func appendBits(buf []byte, b *bitstr.Bits) []byte {
	n := b.Len()
	buf = binary.AppendUvarint(buf, uint64(n))
	var cur byte
	for i := 0; i < n; i++ {
		if b.Get(i) {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

func decodeBits(d *flow.Dec) *bitstr.Bits {
	n := int(d.Uvarint())
	packed := d.Bytes((n + 7) / 8)
	if packed == nil && n > 0 {
		// Truncated or oversized length prefix: Dec carries the sticky
		// error; do not allocate on the untrusted n.
		return bitstr.New(0)
	}
	b := bitstr.New(n)
	for i := 0; i < n; i++ {
		if packed[i/8]&(1<<(i%8)) != 0 {
			b.Set(i)
		}
	}
	return b
}

// appendWindowed encodes the shared sliding-window state of BA and FBA:
// the history entries and the pending (not yet evaluated) window bases.
// eta and lookback are construction-time configuration and excluded.
func appendWindowed(buf []byte, w *windowed) []byte {
	hist := w.hist.items()
	buf = binary.AppendUvarint(buf, uint64(len(hist)))
	for _, e := range hist {
		buf = binary.AppendVarint(buf, int64(e.tick))
		buf = appendIDs(buf, e.ids)
	}
	pending := w.pending.items()
	buf = binary.AppendUvarint(buf, uint64(len(pending)))
	for _, p := range pending {
		buf = AppendPartition(buf, p)
	}
	return buf
}

func decodeWindowed(d *flow.Dec, w *windowed) {
	nh := int(d.Uvarint())
	w.hist.reset()
	for i := 0; i < nh && d.Err() == nil; i++ {
		tick := model.Tick(d.Varint())
		w.hist.push(tickSet{tick: tick, ids: decodeIDs(d)})
	}
	np := int(d.Uvarint())
	w.pending.reset()
	for i := 0; i < np && d.Err() == nil; i++ {
		w.pending.push(DecodePartition(d))
	}
}

func checkTag(d *flow.Dec, want byte, name string) error {
	if got := d.Byte(); got != want {
		return fmt.Errorf("enum: %s state blob has tag %q", name, got)
	}
	return nil
}

// SnapshotState implements ckpt.Snapshotter.
func (f *FBA) SnapshotState() ([]byte, error) {
	if len(f.w.hist.items()) == 0 && len(f.w.pending.items()) == 0 {
		return nil, nil
	}
	return appendWindowed([]byte{stateTagFBA}, &f.w), nil
}

// RestoreState implements ckpt.Snapshotter.
func (f *FBA) RestoreState(data []byte) error {
	d := flow.NewDec(data)
	if err := checkTag(d, stateTagFBA, "FBA"); err != nil {
		return err
	}
	decodeWindowed(d, &f.w)
	return d.Err()
}

// SnapshotState implements ckpt.Snapshotter.
func (b *BA) SnapshotState() ([]byte, error) {
	if len(b.w.hist.items()) == 0 && len(b.w.pending.items()) == 0 && !b.Overflowed {
		return nil, nil
	}
	buf := []byte{stateTagBA}
	if b.Overflowed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendWindowed(buf, &b.w), nil
}

// RestoreState implements ckpt.Snapshotter.
func (b *BA) RestoreState(data []byte) error {
	d := flow.NewDec(data)
	if err := checkTag(d, stateTagBA, "BA"); err != nil {
		return err
	}
	b.Overflowed = d.Byte() == 1
	decodeWindowed(d, &b.w)
	return d.Err()
}

// SnapshotState implements ckpt.Snapshotter.
func (v *VBA) SnapshotState() ([]byte, error) {
	if !v.started && len(v.open) == 0 && len(v.cands) == 0 {
		return nil, nil
	}
	buf := []byte{stateTagVBA}
	if v.started {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(v.lastTick))
	ids := make([]model.ObjectID, 0, len(v.open))
	for id := range v.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		e := v.open[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendVarint(buf, int64(e.start))
		buf = appendBits(buf, &e.bits)
	}
	buf = binary.AppendUvarint(buf, uint64(len(v.cands)))
	for _, c := range v.cands {
		buf = binary.AppendUvarint(buf, uint64(c.id))
		buf = binary.AppendVarint(buf, int64(c.start))
		buf = binary.AppendVarint(buf, int64(c.end))
		buf = appendBits(buf, c.bits)
	}
	return buf, nil
}

// RestoreState implements ckpt.Snapshotter.
func (v *VBA) RestoreState(data []byte) error {
	d := flow.NewDec(data)
	if err := checkTag(d, stateTagVBA, "VBA"); err != nil {
		return err
	}
	v.started = d.Byte() == 1
	v.lastTick = model.Tick(d.Varint())
	v.open = make(map[model.ObjectID]*vEntry)
	no := int(d.Uvarint())
	for i := 0; i < no && d.Err() == nil; i++ {
		id := model.ObjectID(d.Uvarint())
		e := &vEntry{start: model.Tick(d.Varint())}
		e.bits = *decodeBits(d)
		v.open[id] = e
	}
	v.cands = nil
	nc := int(d.Uvarint())
	for i := 0; i < nc && d.Err() == nil; i++ {
		c := vCand{
			id:    model.ObjectID(d.Uvarint()),
			start: model.Tick(d.Varint()),
			end:   model.Tick(d.Varint()),
		}
		c.bits = decodeBits(d)
		v.cands = append(v.cands, c)
	}
	return d.Err()
}
