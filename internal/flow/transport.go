package flow

import (
	"sync/atomic"

	"repro/internal/model"
)

// Message is the transport-level envelope exchanged between subtasks. Data
// holds either a single record or a Batch of records coalesced on a keyed
// exchange; watermarks and checkpoint barriers travel as dedicated messages
// with IsWM or IsBarrier set.
type Message struct {
	// From is the sender subtask index (0 for the pipeline source).
	From int
	// Data is the record payload (possibly a Batch); nil for watermarks and
	// barriers.
	Data any
	// WM is the watermark value when IsWM is set.
	WM model.Tick
	// IsWM marks a watermark message.
	IsWM bool
	// CP is the checkpoint id when IsBarrier is set.
	CP uint64
	// IsBarrier marks an aligned-checkpoint barrier message: a promise that
	// every record of the checkpoint's stream prefix precedes it on this
	// edge. Barriers are injected at the source (SubmitBarrier), aligned and
	// forwarded by the runtime; operators never see them.
	IsBarrier bool
}

// Batch is the carrier for records coalesced on a keyed exchange. Senders
// seal a batch when it reaches the stage's configured size and on every
// watermark, so batching never delays a record past a watermark that
// covers its tick. The runtime unpacks batches transparently: operators
// always see individual records.
type Batch struct {
	Items []any
}

// Endpoint is one subtask's input queue as seen by the transport: many
// concurrent senders, a single receiver, closed exactly once after every
// sender has finished.
type Endpoint interface {
	// Send enqueues one message, blocking for backpressure when the
	// endpoint's buffer is full. Safe for concurrent use.
	Send(Message)
	// Recv dequeues the next message; ok is false once the endpoint is
	// closed and drained. Single consumer.
	Recv() (Message, bool)
	// Close marks the end of input. Called once, by the runtime, after all
	// senders have finished.
	Close()
}

// Transport builds the exchange fabric between pipeline stages. The flow
// runtime is transport-agnostic: operators, batching, watermark merging and
// backpressure all work against the Endpoint abstraction, so a multi-process
// backend (sockets, shared-memory rings) can slot in without touching
// operator code.
type Transport interface {
	// Edge allocates the input endpoints for one stage: one Endpoint per
	// subtask, each buffering up to buf messages.
	Edge(stage string, parallelism, buf int) []Endpoint
}

// Channels returns the in-process transport: bounded Go channels, giving
// pipelined transfer with natural backpressure. This is the default.
func Channels() Transport { return channelTransport{} }

type channelTransport struct{}

func (channelTransport) Edge(_ string, parallelism, buf int) []Endpoint {
	eps := make([]Endpoint, parallelism)
	for i := range eps {
		eps[i] = &chanEndpoint{ch: make(chan Message, buf)}
	}
	return eps
}

// QueueStats is the optional introspection side of an Endpoint: transports
// that can report their buffer occupancy and how often senders blocked on a
// full buffer implement it, and Pipeline.EdgeStats surfaces the numbers as
// the per-edge backpressure signal. Endpoints without it (remote send
// stubs) are simply skipped.
type QueueStats interface {
	// QueueDepth returns the current number of buffered messages and the
	// buffer capacity.
	QueueDepth() (depth, capacity int)
	// SendBlocks returns how many Send calls found the buffer full and had
	// to block — the cumulative backpressure count.
	SendBlocks() int64
}

// WireStats is the outbound counterpart of QueueStats: networked sender
// endpoints report the edge's cumulative wire traffic — bytes written,
// write syscalls (flushes; < frames when the transport coalesces) and
// frames encoded. Pipeline.WireStats surfaces the numbers per remote
// stage; in-process endpoints simply don't implement it.
type WireStats interface {
	WireStats() (bytes, flushes, frames int64)
}

type chanEndpoint struct {
	ch      chan Message
	blocked atomic.Int64
}

func (e *chanEndpoint) Send(m Message) {
	select {
	case e.ch <- m:
	default:
		e.blocked.Add(1)
		e.ch <- m
	}
}

func (e *chanEndpoint) Recv() (Message, bool) {
	m, ok := <-e.ch
	return m, ok
}

func (e *chanEndpoint) Close() { close(e.ch) }

func (e *chanEndpoint) QueueDepth() (int, int) { return len(e.ch), cap(e.ch) }

func (e *chanEndpoint) SendBlocks() int64 { return e.blocked.Load() }
