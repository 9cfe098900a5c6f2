package tcpnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"repro/internal/flow"
	"repro/internal/model"
	"repro/internal/obs"
)

// Worker is one stage-hosting process of a distributed run. JoinWorker
// performs the full handshake; afterwards the worker builds its pipeline
// with Transport/LocalStage, runs it, and calls Finish when its local
// stages have drained.
type Worker struct {
	id      int
	node    *Node
	plan    Plan
	spec    []byte
	restore map[string][]byte

	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex // serializes control frame writes
	wbuf []byte
}

// JoinWorker dials the coordinator's control address (retrying with capped
// exponential backoff while the coordinator comes up — see dialRetry) and
// completes the handshake: hello, receive plan + spec (+ checkpointed
// state on resume), open the data listener, report readiness, receive all
// data addresses.
func JoinWorker(coordAddr string) (*Worker, error) {
	conn, err := dialRetry(coordAddr, dialRetryTotal)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: join %s: %w", coordAddr, err)
	}
	w := &Worker{conn: conn, br: bufio.NewReader(conn)}
	fail := func(err error) (*Worker, error) {
		conn.Close()
		return nil, err
	}
	if err := writeJSON(conn, ctrlMsg{Type: "hello"}); err != nil {
		return fail(fmt.Errorf("tcpnet: hello: %w", err))
	}
	m, err := readJSON(w.br, "plan")
	if err != nil {
		return fail(fmt.Errorf("tcpnet: plan: %w", err))
	}
	if m.Plan == nil {
		return fail(fmt.Errorf("tcpnet: plan message without plan"))
	}
	w.id, w.plan, w.spec, w.restore = m.Worker, *m.Plan, m.Spec, m.Restore
	node, err := NewNode(w.id, w.plan, "")
	if err != nil {
		return fail(err)
	}
	w.node = node
	if err := writeJSON(conn, ctrlMsg{Type: "ready", Addr: node.DataAddr()}); err != nil {
		return fail(fmt.Errorf("tcpnet: ready: %w", err))
	}
	am, err := readJSON(w.br, "addrs")
	if err != nil {
		return fail(fmt.Errorf("tcpnet: addrs: %w", err))
	}
	node.SetAddrs(am.Addrs)
	return w, nil
}

// ID returns this worker's index in the plan.
func (w *Worker) ID() int { return w.id }

// Spec returns the opaque configuration blob the coordinator shipped.
func (w *Worker) Spec() []byte { return w.spec }

// Plan returns the broadcast placement.
func (w *Worker) Plan() Plan { return w.plan }

// Transport returns the worker's data-plane transport.
func (w *Worker) Transport() flow.Transport { return w.node.Transport() }

// LocalStage is the flow.Config.Local function for this worker's pipeline.
func (w *Worker) LocalStage(i int) bool { return w.node.LocalStage(i) }

// SetDisconnectHook installs the peer-disconnect receiver for this
// worker's inbound data edges (see Node.SetDisconnectHook). Call before
// the pipeline starts.
func (w *Worker) SetDisconnectHook(fn func(stage, addr string, err error)) {
	w.node.SetDisconnectHook(fn)
}

// RestoreState returns the checkpointed state shipped for one local
// subtask (nil when the run is not a resume, or the subtask was empty).
func (w *Worker) RestoreState(stage int, subtask int) []byte {
	if stage < 0 || stage >= len(w.plan.Stages) {
		return nil
	}
	return w.restore[RestoreKey(w.plan.Stages[stage], subtask)]
}

// writeFrame sends one binary control frame.
func (w *Worker) writeFrame(build func(buf []byte) []byte) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.wbuf = build(w.wbuf[:0])
	if _, err := w.conn.Write(w.wbuf); err != nil {
		panic(fmt.Sprintf("tcpnet: control write: %v", err))
	}
}

// Sink returns the sink forwarder the worker owning the last stage wires
// into its pipeline: records are codec-encoded and shipped to the
// coordinator on the control connection.
func (w *Worker) Sink() func(any) {
	return func(rec any) {
		payload, err := flow.AppendPayload(nil, rec)
		if err != nil {
			panic(fmt.Sprintf("tcpnet: sink encode: %v", err))
		}
		w.writeFrame(func(buf []byte) []byte {
			buf = append(buf, ctrlSink)
			buf = binary.AppendUvarint(buf, uint64(len(payload)))
			return append(buf, payload...)
		})
	}
}

// SinkWatermark returns the matching watermark forwarder.
func (w *Worker) SinkWatermark() func(model.Tick) {
	return func(wm model.Tick) {
		w.writeFrame(func(buf []byte) []byte {
			buf = append(buf, ctrlWM)
			return binary.AppendVarint(buf, int64(wm))
		})
	}
}

// CheckpointAck returns the forwarder for subtask checkpoint acks (wired
// as the worker pipeline's flow.Config.OnCheckpointState): state snapshots
// travel to the coordinator's ckpt coordinator over the control
// connection, serialized with sink frames.
func (w *Worker) CheckpointAck() func(id uint64, stage, subtask int, state []byte, err error) {
	return func(id uint64, stage, subtask int, state []byte, err error) {
		ok := byte(1)
		body := state
		if err != nil {
			ok = 0
			body = []byte(err.Error())
		}
		w.writeFrame(func(buf []byte) []byte {
			buf = append(buf, ctrlAck)
			buf = binary.AppendUvarint(buf, id)
			buf = binary.AppendUvarint(buf, uint64(stage))
			buf = binary.AppendUvarint(buf, uint64(subtask))
			buf = append(buf, ok)
			buf = binary.AppendUvarint(buf, uint64(len(body)))
			return append(buf, body...)
		})
	}
}

// SinkBarrier returns the forwarder for the sink-barrier cut (the worker
// owning the last stage wires it as flow.Config.SinkBarrier). Ordering
// with Sink frames on the shared connection is what makes the cut exact on
// the coordinator side.
func (w *Worker) SinkBarrier() func(id uint64) {
	return func(id uint64) {
		w.writeFrame(func(buf []byte) []byte {
			buf = append(buf, ctrlBarrier)
			return binary.AppendUvarint(buf, id)
		})
	}
}

// SendMetrics ships a metric snapshot (the worker registry's families) to
// the coordinator. Serialized with the other control frames, so a final
// snapshot sent before Finish is guaranteed to precede the done frame —
// the coordinator holds every worker's last numbers once WaitDone returns.
func (w *Worker) SendMetrics(fams []obs.FamilySnapshot) error {
	body, err := json.Marshal(fams)
	if err != nil {
		return fmt.Errorf("tcpnet: encode metrics: %w", err)
	}
	w.writeFrame(func(buf []byte) []byte {
		buf = append(buf, ctrlMetrics)
		buf = binary.AppendUvarint(buf, uint64(len(body)))
		return append(buf, body...)
	})
	return nil
}

// Finish reports completion of this worker's local stages to the
// coordinator. Call after the pipeline's WaitLocal returns (all local
// subtasks drained, EOS emitted downstream, sink records forwarded).
func (w *Worker) Finish() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if _, err := w.conn.Write([]byte{ctrlDone}); err != nil {
		return fmt.Errorf("tcpnet: done: %w", err)
	}
	return nil
}

// Close tears down the control connection and the data plane.
func (w *Worker) Close() error {
	err := w.conn.Close()
	if w.node != nil {
		w.node.Close()
	}
	return err
}
