package msg

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"repro/internal/enum"
	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/model"
)

// wireBatches returns one Batch message per dominant data-plane record
// kind, shaped like the pipeline's exchange traffic, plus the shapes the
// envelope must also carry: a heterogeneous batch and a single-item batch.
func wireBatches() map[string]flow.Message {
	recs := make([]any, 0, 32)
	for i := 0; i < 32; i++ {
		r := Rec{
			Object: model.ObjectID(100 + i*3),
			Loc:    geo.Point{X: 12.5 + float64(i)*0.25, Y: -3.75 + float64(i%5)},
			Tick:   model.Tick(7 + i/8),
		}
		if i%3 == 0 {
			r.Ingest = time.Unix(0, int64(1000000+i*17))
		}
		recs = append(recs, r)
	}
	cells := []any{
		Cell{Tick: 3, Task: join.CellTask{
			Key:     grid.Key{X: -2, Y: 11},
			Data:    []join.CellObj{{Idx: 0, Loc: geo.Point{X: 1.125, Y: 1.5}}, {Idx: 4, Loc: geo.Point{X: 1.25, Y: 1.625}}},
			Queries: []join.CellObj{{Idx: 6, Loc: geo.Point{X: 1.0625, Y: 1.4375}}},
		}},
		Cell{Tick: 3, Task: join.CellTask{Key: grid.Key{X: -1, Y: 11}}},
		Cell{Tick: 4, Task: join.CellTask{
			Key:     grid.Key{X: 0, Y: -7},
			Queries: []join.CellObj{{Idx: 2, Loc: geo.Point{X: -8, Y: 0.5}}},
		}},
		// Replicated object: idx 0 reappears at the same tick with the same
		// location (a neighbor-cell query).
		Cell{Tick: 3, Task: join.CellTask{
			Key: grid.Key{X: -2, Y: 12},
			Queries: []join.CellObj{
				{Idx: 0, Loc: geo.Point{X: 1.125, Y: 1.5}},
				{Idx: 9, Loc: geo.Point{X: 1.3125, Y: 1.75}},
			},
		}},
	}
	deltas := []any{
		PairDelta{Tick: 6, Add: [][2]model.ObjectID{{1, 2}, {3, 9}}, Del: [][2]model.ObjectID{{2, 5}}},
		PairDelta{Tick: 6},
		PairDelta{Tick: 7, Del: [][2]model.ObjectID{{0, 4294967295}}},
	}
	metas := []any{
		Meta{Tick: 3, Objects: []model.ObjectID{5, 6, 9, 12}},
		Meta{Tick: 4, Ingest: time.Unix(0, 1234567)},
		Meta{Tick: 4, Objects: []model.ObjectID{1}, Ingest: time.Unix(0, 1234569)},
	}
	pairs := []any{
		Pairs{Tick: 5, Pairs: [][2]int32{{0, 3}, {1, 2}, {1, 4}, {2, 4}}},
		Pairs{Tick: 5},
		Pairs{Tick: 6, Pairs: [][2]int32{{-1, 7}}},
	}
	snaps := []any{
		&model.Snapshot{
			Tick:    9,
			Objects: []model.ObjectID{0, 1, 2, 3, 7, 9},
			Locs: []geo.Point{
				{X: 1012.25, Y: 440.5}, {X: 1013.5, Y: 441.25}, {X: 1012.875, Y: 440.0625},
				{X: 63.5, Y: 1999.75}, {X: 0, Y: 2000}, {X: 0, Y: 2000},
			},
			Ingest: time.Unix(0, 555),
		},
		&model.Snapshot{Tick: 10},
		&model.Snapshot{
			Tick:    11,
			Objects: []model.ObjectID{4},
			Locs:    []geo.Point{{X: 2000, Y: 0}},
		},
	}
	parts := []any{
		enum.Partition{Tick: 2, Owner: 7, Members: []model.ObjectID{8, 9, 10, 14}},
		enum.Partition{Tick: 2, Owner: 8, Members: []model.ObjectID{9, 10}},
		enum.Partition{Tick: 3, Owner: 1},
	}
	mixed := append(append(append([]any{}, recs[:3]...), cells[0]), deltas[0],
		model.Pattern{Objects: []model.ObjectID{1, 2, 3}, Times: []model.Tick{4, 5, 6}},
		Meta{Tick: 2, Objects: []model.ObjectID{7, 8}, Ingest: time.Unix(0, 99)},
		recs[3])
	return map[string]flow.Message{
		"rec":       {From: 1, Data: flow.Batch{Items: recs}},
		"cell":      {From: 2, Data: flow.Batch{Items: cells}},
		"pairdelta": {From: 3, Data: flow.Batch{Items: deltas}},
		"meta":      {From: 6, Data: flow.Batch{Items: metas}},
		"pairs":     {From: 7, Data: flow.Batch{Items: pairs}},
		"snapshot":  {From: 0, Data: flow.Batch{Items: snaps}},
		"partition": {From: 8, Data: flow.Batch{Items: parts}},
		"mixed":     {From: 4, Data: flow.Batch{Items: mixed}},
		"single":    {From: 5, Data: flow.Batch{Items: recs[:1]}},
	}
}

// TestWireBatchEquivalence pins the batch envelope's exactness: for every
// batch shape, the decoded message keeps its sender and item count, every
// decoded item re-encodes to the same payload bytes as the item sent, and
// re-encoding the decoded message reproduces the exact frame.
func TestWireBatchEquivalence(t *testing.T) {
	for name, m := range wireBatches() {
		t.Run(name, func(t *testing.T) {
			enc, err := flow.AppendMessage(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := flow.DecodeMessage(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.From != m.From {
				t.Fatalf("decoded From %d, sent %d", got.From, m.From)
			}
			sent := m.Data.(flow.Batch).Items
			recv := got.Data.(flow.Batch).Items
			if len(sent) != len(recv) {
				t.Fatalf("sent %d items, decoded %d", len(sent), len(recv))
			}
			for i := range sent {
				bs, err := flow.AppendPayload(nil, sent[i])
				if err != nil {
					t.Fatal(err)
				}
				br, err := flow.AppendPayload(nil, recv[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bs, br) {
					t.Fatalf("item %d (%T) changed in transit:\n sent %x\n recv %x", i, sent[i], bs, br)
				}
			}
			enc2, err := flow.AppendMessage(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("batch encoding not a fixed point:\n %x\n %x", enc, enc2)
			}
		})
	}
}

// TestWireEncodeAllocs asserts the zero-alloc framing claim: steady-state
// encoding of a batched message into a reused buffer allocates nothing per
// frame.
func TestWireEncodeAllocs(t *testing.T) {
	t.Run("row", func(t *testing.T) {
		m := wireBatches()["rec"]
		buf := make([]byte, 0, 1<<16)
		var err error
		// Warm the encode scratch pool before measuring.
		if buf, err = flow.AppendMessage(buf[:0], m); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf, err = flow.AppendMessage(buf[:0], m)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("batch encode allocates %.1f/frame, want 0", allocs)
		}
	})
}

// BenchmarkWireEncode measures the per-frame encode of the dominant wire
// shapes, reporting bytes/record and allocs (must stay 0 steady-state —
// see TestWireEncodeAllocs for the hard assertion).
func BenchmarkWireEncode(b *testing.B) {
	batches := wireBatches()
	for _, name := range []string{"rec", "cell", "pairdelta", "meta", "pairs"} {
		m := batches[name]
		n := len(m.Data.(flow.Batch).Items)
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, 1<<16)
			var err error
			if buf, err = flow.AppendMessage(buf[:0], m); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(buf))/float64(n), "B/rec")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = flow.AppendMessage(buf[:0], m)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzWireBatchRoundTrip drives the batch envelope decoder with arbitrary
// bytes seeded from every batch shape: it must never panic or
// over-allocate (the item count is bounded by Dec.Remaining before
// allocation), and whatever decodes successfully must re-encode to a
// stable fixed point.
func FuzzWireBatchRoundTrip(f *testing.F) {
	batches := wireBatches()
	names := make([]string, 0, len(batches))
	for name := range batches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		enc, err := flow.AppendMessage(nil, batches[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		// A frame cut mid-item must be rejected, not misread.
		f.Add(enc[:len(enc)/2])
	}
	// Hostile shapes: empty frame, oversized count, and an envelope with a
	// flag bit no encoder sets.
	f.Add([]byte{})
	f.Add([]byte{0x0a, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0x0a, 0x00, 0x02, byte(KindRec), 0x03, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := flow.DecodeMessage(data)
		if err != nil {
			return
		}
		b1, err := flow.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		m2, err := flow.DecodeMessage(b1)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		b2, err := flow.AppendMessage(nil, m2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("batch encoding not a fixed point:\n b1 %x\n b2 %x", b1, b2)
		}
	})
}
