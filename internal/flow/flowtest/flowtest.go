// Package flowtest is the conformance suite every flow.Transport
// implementation must pass. It checks the contract the flow runtime and
// its operators rely on:
//
//   - delivery: every message sent before close is received, payloads
//     intact (for networked transports: through the codec registry);
//   - FIFO per edge: messages from one sender to one endpoint arrive in
//     send order;
//   - watermark envelopes: From/WM/IsWM survive the transport;
//   - backpressure: a sender to a full, undrained endpoint blocks instead
//     of dropping or buffering without bound;
//   - single close: after the sender side closes each endpoint once, the
//     receiver drains the remaining messages and then observes a clean,
//     persistent end of stream.
//
// Transports hand the suite both views of one edge (Harness.Edge); an
// in-process transport may return the same endpoints for both.
package flowtest

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/model"
)

// Payload is the record type the suite ships. It is registered with the
// flow codec registry so networked transports can frame it.
type Payload struct {
	Sender int
	Seq    int64
	Pad    []byte
}

// PayloadKind is the suite's reserved codec kind (high range, clear of the
// ICPE message vocabulary).
const PayloadKind flow.Kind = 0xF0

func init() {
	flow.RegisterCodec(PayloadKind, Payload{}, payloadCodec{})
}

type payloadCodec struct{}

func (payloadCodec) Append(buf []byte, v any) ([]byte, error) {
	p := v.(Payload)
	buf = binary.AppendVarint(buf, int64(p.Sender))
	buf = binary.AppendVarint(buf, p.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(p.Pad)))
	return append(buf, p.Pad...), nil
}

func (payloadCodec) Decode(data []byte) (any, error) {
	d := flow.NewDec(data)
	p := Payload{Sender: int(d.Varint()), Seq: d.Varint()}
	if n := int(d.Uvarint()); n > 0 {
		p.Pad = append([]byte(nil), d.Bytes(n)...)
	}
	return p, d.Err()
}

// Harness adapts one transport implementation to the suite.
type Harness struct {
	// Edge allocates one keyed edge with the given downstream parallelism
	// and buffer capacity, returning the sender-side view (written and
	// closed by the upstream process) and the receiver-side view (drained
	// by the downstream process). In-process transports return the same
	// endpoints twice. Resources should be released via t.Cleanup.
	Edge func(t *testing.T, stage string, parallelism, buf int) (send, recv []flow.Endpoint)
}

// Run executes the conformance suite.
func Run(t *testing.T, h Harness) {
	t.Run("DeliveryFIFO", func(t *testing.T) { testDeliveryFIFO(t, h) })
	t.Run("Watermarks", func(t *testing.T) { testWatermarks(t, h) })
	t.Run("Barriers", func(t *testing.T) { testBarriers(t, h) })
	t.Run("Batches", func(t *testing.T) { testBatches(t, h) })
	t.Run("Backpressure", func(t *testing.T) { testBackpressure(t, h) })
	t.Run("BarrierFlush", func(t *testing.T) { testBarrierFlush(t, h) })
	t.Run("IdleFlush", func(t *testing.T) { testIdleFlush(t, h) })
	t.Run("CloseDrain", func(t *testing.T) { testCloseDrain(t, h) })
}

// testDeliveryFIFO: several concurrent senders spray sequenced messages
// over a parallel edge; every receiver must observe per-sender FIFO and
// nothing may be lost.
func testDeliveryFIFO(t *testing.T, h Harness) {
	const (
		par     = 3
		senders = 4
		perEdge = 200
	)
	send, recv := h.Edge(t, "fifo", par, 8)
	if len(send) != par || len(recv) != par {
		t.Fatalf("edge returned %d send / %d recv endpoints, want %d", len(send), len(recv), par)
	}

	type key struct{ endpoint, sender int }
	var (
		mu   sync.Mutex
		last = map[key]int64{}
		got  = map[key]int{}
	)
	var rwg sync.WaitGroup
	for e := range recv {
		rwg.Add(1)
		go func(e int) {
			defer rwg.Done()
			for {
				m, ok := recv[e].Recv()
				if !ok {
					return
				}
				p, isP := m.Data.(Payload)
				if !isP {
					t.Errorf("endpoint %d received %T", e, m.Data)
					return
				}
				if m.From != p.Sender {
					t.Errorf("endpoint %d: envelope From=%d, payload sender=%d", e, m.From, p.Sender)
				}
				k := key{e, p.Sender}
				mu.Lock()
				if prev, ok := last[k]; ok && p.Seq <= prev {
					t.Errorf("endpoint %d sender %d: seq %d after %d (FIFO violated)",
						e, p.Sender, p.Seq, prev)
				}
				last[k] = p.Seq
				got[k]++
				mu.Unlock()
			}
		}(e)
	}

	var swg sync.WaitGroup
	for s := 0; s < senders; s++ {
		swg.Add(1)
		go func(s int) {
			defer swg.Done()
			for e := 0; e < par; e++ {
				for i := 0; i < perEdge; i++ {
					send[e].Send(flow.Message{From: s, Data: Payload{Sender: s, Seq: int64(i)}})
				}
			}
		}(s)
	}
	swg.Wait()
	for _, ep := range send {
		ep.Close()
	}
	rwg.Wait()

	for e := 0; e < par; e++ {
		for s := 0; s < senders; s++ {
			if n := got[key{e, s}]; n != perEdge {
				t.Errorf("endpoint %d sender %d: %d of %d messages", e, s, n, perEdge)
			}
		}
	}
}

// testWatermarks: watermark envelopes keep From/WM and stay ordered after
// the records that preceded them on the same edge.
func testWatermarks(t *testing.T, h Harness) {
	send, recv := h.Edge(t, "wm", 1, 4)
	go func() {
		send[0].Send(flow.Message{From: 2, Data: Payload{Sender: 2, Seq: 1}})
		send[0].Send(flow.Message{From: 2, WM: 41, IsWM: true})
		send[0].Send(flow.Message{From: 2, Data: Payload{Sender: 2, Seq: 2}})
		send[0].Send(flow.Message{From: 2, WM: -17, IsWM: true})
		send[0].Close()
	}()
	want := []flow.Message{
		{From: 2, Data: Payload{Sender: 2, Seq: 1}},
		{From: 2, WM: 41, IsWM: true},
		{From: 2, Data: Payload{Sender: 2, Seq: 2}},
		{From: 2, WM: model.Tick(-17), IsWM: true},
	}
	for i, w := range want {
		m, ok := recv[0].Recv()
		if !ok {
			t.Fatalf("stream ended at message %d", i)
		}
		if m.From != w.From || m.IsWM != w.IsWM || m.WM != w.WM {
			t.Fatalf("message %d = %+v, want %+v", i, m, w)
		}
		if !w.IsWM {
			if p, _ := m.Data.(Payload); p.Seq != w.Data.(Payload).Seq {
				t.Fatalf("message %d payload = %+v, want %+v", i, m.Data, w.Data)
			}
		}
	}
	if _, ok := recv[0].Recv(); ok {
		t.Error("extra message after close")
	}
}

// testBarriers: checkpoint-barrier envelopes keep From/CP and arrive in
// order interleaved with records, watermarks, and batches — the FIFO
// property the aligned-checkpoint protocol's consistent cut rests on. A
// transport that reorders a record past a barrier (or drops the barrier's
// checkpoint id) would silently corrupt every checkpoint taken over it.
func testBarriers(t *testing.T, h Harness) {
	send, recv := h.Edge(t, "barrier", 1, 4)
	go func() {
		send[0].Send(flow.Message{From: 1, Data: Payload{Sender: 1, Seq: 1}})
		send[0].Send(flow.Message{From: 1, CP: 7, IsBarrier: true})
		send[0].Send(flow.Message{From: 1, Data: flow.Batch{Items: []any{Payload{Sender: 1, Seq: 2}}}})
		send[0].Send(flow.Message{From: 1, WM: 9, IsWM: true})
		send[0].Send(flow.Message{From: 1, CP: 8, IsBarrier: true})
		send[0].Close()
	}()
	type expect struct {
		barrier bool
		cp      uint64
		wm      bool
		seq     int64
	}
	want := []expect{
		{seq: 1},
		{barrier: true, cp: 7},
		{seq: 2},
		{wm: true},
		{barrier: true, cp: 8},
	}
	for i, w := range want {
		m, ok := recv[0].Recv()
		if !ok {
			t.Fatalf("stream ended at message %d", i)
		}
		if m.From != 1 {
			t.Fatalf("message %d From = %d, want 1", i, m.From)
		}
		switch {
		case w.barrier:
			if !m.IsBarrier || m.CP != w.cp {
				t.Fatalf("message %d = %+v, want barrier cp=%d", i, m, w.cp)
			}
		case w.wm:
			if !m.IsWM || m.WM != 9 {
				t.Fatalf("message %d = %+v, want watermark 9", i, m)
			}
		default:
			if m.IsBarrier || m.IsWM {
				t.Fatalf("message %d = %+v, want data seq %d", i, m, w.seq)
			}
			var got int64
			switch d := m.Data.(type) {
			case Payload:
				got = d.Seq
			case flow.Batch:
				if len(d.Items) != 1 {
					t.Fatalf("message %d batch has %d items", i, len(d.Items))
				}
				got = d.Items[0].(Payload).Seq
			default:
				t.Fatalf("message %d data %T", i, m.Data)
			}
			if got != w.seq {
				t.Fatalf("message %d seq = %d, want %d", i, got, w.seq)
			}
		}
	}
	if _, ok := recv[0].Recv(); ok {
		t.Error("extra message after close")
	}
}

// testBatches: Batch carriers arrive with their items intact and in order.
func testBatches(t *testing.T, h Harness) {
	send, recv := h.Edge(t, "batch", 1, 4)
	items := []any{
		Payload{Sender: 1, Seq: 10},
		Payload{Sender: 1, Seq: 11, Pad: []byte{1, 2, 3}},
		Payload{Sender: 1, Seq: 12},
	}
	go func() {
		send[0].Send(flow.Message{From: 1, Data: flow.Batch{Items: items}})
		send[0].Close()
	}()
	m, ok := recv[0].Recv()
	if !ok {
		t.Fatal("no message")
	}
	b, isB := m.Data.(flow.Batch)
	if !isB {
		t.Fatalf("received %T, want Batch", m.Data)
	}
	if len(b.Items) != len(items) {
		t.Fatalf("batch has %d items, want %d", len(b.Items), len(items))
	}
	for i := range items {
		got, want := b.Items[i].(Payload), items[i].(Payload)
		if got.Seq != want.Seq || string(got.Pad) != string(want.Pad) {
			t.Errorf("item %d = %+v, want %+v", i, got, want)
		}
	}
}

// testBackpressure: with a tiny buffer and no receiver, a sender pushing a
// large volume must block rather than complete (dropping or unbounded
// buffering would let it finish). The data is then drained and verified.
func testBackpressure(t *testing.T, h Harness) {
	const (
		msgs    = 128
		padSize = 256 << 10 // 32 MiB total: beyond any sane socket buffering
	)
	send, recv := h.Edge(t, "bp", 1, 1)
	pad := make([]byte, padSize)
	for i := range pad {
		pad[i] = byte(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < msgs; i++ {
			send[0].Send(flow.Message{From: 0, Data: Payload{Sender: 0, Seq: int64(i), Pad: pad}})
		}
	}()
	select {
	case <-done:
		t.Fatal("sender completed against an undrained endpoint: no backpressure")
	case <-time.After(300 * time.Millisecond):
	}
	for i := 0; i < msgs; i++ {
		m, ok := recv[0].Recv()
		if !ok {
			t.Fatalf("stream ended after %d of %d messages", i, msgs)
		}
		p := m.Data.(Payload)
		if p.Seq != int64(i) {
			t.Fatalf("message %d has seq %d", i, p.Seq)
		}
		if len(p.Pad) != padSize {
			t.Fatalf("message %d pad %d bytes, want %d", i, len(p.Pad), padSize)
		}
		if err := checkPad(p.Pad); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	<-done
	send[0].Close()
	if _, ok := recv[0].Recv(); ok {
		t.Error("message after close")
	}
}

func checkPad(pad []byte) error {
	for i, b := range pad {
		if b != byte(i) {
			return fmt.Errorf("pad corrupted at %d", i)
		}
	}
	return nil
}

// testBarrierFlush: records followed by a barrier — with the edge left
// open — must arrive promptly. A transport that coalesces sends may buffer
// records, but a barrier (like a watermark) must force the buffer out:
// checkpoint alignment stalls job-wide if a barrier can sit in a send
// buffer waiting for more traffic that may never come.
func testBarrierFlush(t *testing.T, h Harness) {
	send, recv := h.Edge(t, "barrierflush", 1, 8)
	const n = 3
	go func() {
		for i := 0; i < n; i++ {
			send[0].Send(flow.Message{From: 0, Data: Payload{Sender: 0, Seq: int64(i)}})
		}
		send[0].Send(flow.Message{From: 0, CP: 5, IsBarrier: true})
		// The edge stays open: nothing but the flush policy can deliver
		// the barrier.
	}()
	got := make(chan flow.Message, n+1)
	go func() {
		for {
			m, ok := recv[0].Recv()
			if !ok {
				return
			}
			got <- m
		}
	}()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n+1; i++ {
		select {
		case m := <-got:
			if i < n {
				if p, ok := m.Data.(Payload); !ok || p.Seq != int64(i) {
					t.Fatalf("message %d = %+v, want seq %d", i, m, i)
				}
			} else if !m.IsBarrier || m.CP != 5 {
				t.Fatalf("message %d = %+v, want barrier cp=5", i, m)
			}
		case <-deadline:
			t.Fatalf("message %d not delivered: barrier did not flush the send buffer", i)
		}
	}
	send[0].Close()
}

// testIdleFlush: one record with no watermark, barrier or close after
// it, on an edge left open. A buffering sender must still deliver it
// within a bounded time (for tcpnet: the background flusher is the only
// trigger left).
func testIdleFlush(t *testing.T, h Harness) {
	send, recv := h.Edge(t, "idleflush", 1, 8)
	send[0].Send(flow.Message{From: 0, Data: Payload{Sender: 0, Seq: 42}})
	got := make(chan flow.Message, 1)
	go func() {
		if m, ok := recv[0].Recv(); ok {
			got <- m
		}
	}()
	select {
	case m := <-got:
		if p, ok := m.Data.(Payload); !ok || p.Seq != 42 {
			t.Fatalf("received %+v, want seq 42", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("record not delivered within 2s on an idle open edge")
	}
	send[0].Close()
}

// testCloseDrain: after the sender side closes, buffered messages remain
// receivable; once drained, Recv persistently reports end of stream.
func testCloseDrain(t *testing.T, h Harness) {
	send, recv := h.Edge(t, "close", 2, 16)
	for e := 0; e < 2; e++ {
		for i := 0; i < 5; i++ {
			send[e].Send(flow.Message{From: 0, Data: Payload{Sender: 0, Seq: int64(i)}})
		}
	}
	for _, ep := range send {
		ep.Close()
	}
	for e := 0; e < 2; e++ {
		for i := 0; i < 5; i++ {
			m, ok := recv[e].Recv()
			if !ok {
				t.Fatalf("endpoint %d: stream ended after %d messages", e, i)
			}
			if p := m.Data.(Payload); p.Seq != int64(i) {
				t.Fatalf("endpoint %d message %d: seq %d", e, i, p.Seq)
			}
		}
		for try := 0; try < 3; try++ {
			if _, ok := recv[e].Recv(); ok {
				t.Fatalf("endpoint %d: message after drain", e)
			}
		}
	}
}
