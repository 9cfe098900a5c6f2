package flow

import "repro/internal/model"

// Destination sentinels for buffered emissions.
const (
	broadcastDest = -1 // every subtask of the next stage
	sinkDest      = -2 // the pipeline sink (last stage only)
)

// outEvent is a pending emission: routed (to >= 0), broadcast, sink-bound,
// a watermark (isWM), or a checkpoint barrier (isBarrier).
type outEvent struct {
	to        int
	data      any
	wm        model.Tick
	isWM      bool
	cp        uint64
	isBarrier bool
}

// Collector lets an operator emit records and watermarks downstream. One
// Collector belongs to one subtask. Emissions are buffered while the
// operator runs inside its execution slot and flushed to the (bounded,
// backpressuring) transport after the slot is released, so a full endpoint
// can never deadlock the slot semaphore.
//
// When the stage declares an output batch size > 1, keyed emissions are
// coalesced per destination subtask into Batch carriers. A batch is sealed
// when it reaches the configured size and whenever a watermark or broadcast
// is emitted, which preserves per-edge ordering and guarantees a batched
// record is never delivered after a watermark covering its tick.
type Collector struct {
	p         *Pipeline
	subtask   int
	next      []Endpoint // next stage's inputs (nil for the last stage)
	batchSize int        // > 1 enables batched keyed exchange
	pending   [][]any    // per-destination open batches
	buf       []outEvent
}

func newCollector(p *Pipeline, subtask int, next []Endpoint, batchSize int) *Collector {
	c := &Collector{p: p, subtask: subtask, next: next, batchSize: batchSize}
	if batchSize > 1 && next != nil {
		c.pending = make([][]any, len(next))
	}
	return c
}

// Emit routes one record to the next stage (or the sink for the last
// stage) by its key group: keyGroup = hash(key) % MaxParallelism, then the
// subtask owning that group's range at the next stage's parallelism. The
// key→group mapping is independent of parallelism, so the state bucket a
// record lands in is stable across rescales.
func (c *Collector) Emit(key uint64, data any) {
	if c.next == nil {
		c.buf = append(c.buf, outEvent{to: sinkDest, data: data})
		return
	}
	to := c.p.route(key, len(c.next))
	if c.pending != nil {
		c.pending[to] = append(c.pending[to], data)
		if len(c.pending[to]) >= c.batchSize {
			c.seal(to)
		}
		return
	}
	c.buf = append(c.buf, outEvent{to: to, data: data})
}

// Broadcast sends one record to every subtask of the next stage.
func (c *Collector) Broadcast(data any) {
	if c.next == nil {
		c.buf = append(c.buf, outEvent{to: sinkDest, data: data})
		return
	}
	c.sealAll() // keep per-edge order: open batches precede the broadcast
	c.buf = append(c.buf, outEvent{to: broadcastDest, data: data})
}

// Watermark broadcasts a watermark: a promise that this subtask will send
// no record with tick <= wm anymore. Open batches are sealed first so the
// promise also holds for coalesced records.
func (c *Collector) Watermark(wm model.Tick) {
	c.sealAll()
	c.buf = append(c.buf, outEvent{wm: wm, isWM: true})
}

// Barrier broadcasts a checkpoint barrier downstream (the runtime calls it
// after the subtask's state snapshot; operators never emit barriers). Open
// batches are sealed first so every pre-barrier record stays ahead of the
// barrier on its edge — the FIFO property that makes the checkpoint a
// consistent cut.
func (c *Collector) Barrier(id uint64) {
	c.sealAll()
	c.buf = append(c.buf, outEvent{cp: id, isBarrier: true})
}

// seal closes destination to's open batch and queues it for delivery.
func (c *Collector) seal(to int) {
	c.buf = append(c.buf, outEvent{to: to, data: Batch{Items: c.pending[to]}})
	c.pending[to] = nil
}

// sealAll closes every open batch (watermark, broadcast, operator close).
func (c *Collector) sealAll() {
	for to := range c.pending {
		if len(c.pending[to]) > 0 {
			c.seal(to)
		}
	}
}

// flush delivers buffered emissions; called outside the execution slot.
// Open batches stay pending across calls until sealed by size or watermark.
func (c *Collector) flush() {
	for _, oe := range c.buf {
		switch {
		case oe.isBarrier:
			if c.next == nil {
				c.p.sinkBarrier(c.subtask, oe.cp)
			} else {
				for _, ep := range c.next {
					ep.Send(Message{From: c.subtask, CP: oe.cp, IsBarrier: true})
				}
			}
		case oe.isWM:
			if c.next == nil {
				c.p.sinkWM(c.subtask, oe.wm)
			} else {
				for _, ep := range c.next {
					ep.Send(Message{From: c.subtask, WM: oe.wm, IsWM: true})
				}
			}
		case oe.to == sinkDest:
			c.p.sink(c.subtask, oe.data)
		case oe.to == broadcastDest:
			for _, ep := range c.next {
				ep.Send(Message{From: c.subtask, Data: oe.data})
			}
		default:
			c.next[oe.to].Send(Message{From: c.subtask, Data: oe.data})
		}
	}
	c.buf = c.buf[:0]
}

// mix is a 64-bit finalizer so sequential keys spread across subtasks.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
