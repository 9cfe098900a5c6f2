// Coordinator/worker control plane. The handshake is newline-delimited
// JSON, after which the worker's control connection switches to binary
// frames for sink forwarding and completion:
//
//	worker -> coordinator: {"type":"hello"}
//	coordinator -> worker: {"type":"plan", "worker":i, "plan":{...}, "spec":..., "restore":{...}}
//	worker -> coordinator: {"type":"ready", "addr":"host:port"}
//	coordinator -> worker: {"type":"addrs", "addrs":[...]}
//	worker -> coordinator (binary frames):
//	    sink record    [0][len uvarint][payload (kind+body)]
//	    sink watermark [1][wm varint]
//	    done           [2]
//	    checkpoint ack [3][id uvarint][stage uvarint][subtask uvarint][ok byte][len uvarint][state or error text]
//	    sink barrier   [4][id uvarint]
//	    metrics        [5][len uvarint][JSON []obs.FamilySnapshot]
//
// The spec blob is opaque to this package: the coordinator ships whatever
// configuration bytes the application hands it (internal/core encodes its
// Config there), so every worker reconstructs the identical topology. The
// optional restore map ("stage/subtask" -> state blob) carries checkpointed
// operator state for the stages a worker owns when the run resumes from a
// checkpoint. Its subtask indices are those of the RESUMING topology, not
// the checkpointed one: on a rescale the application re-slices the blobs by
// key group before the handshake (ckpt.Reshard), so each worker receives
// exactly the blobs covering its new subtasks' key-group ranges and nothing
// else. Barriers themselves travel the data plane (they are ordinary flow
// messages), while acks and the sink-barrier cut come back over the control
// connection, ordered with the sink stream.

package tcpnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/flow"
	"repro/internal/model"
	"repro/internal/obs"
)

// Control frame types (worker -> coordinator, after the JSON handshake).
const (
	ctrlSink    = 0
	ctrlWM      = 1
	ctrlDone    = 2
	ctrlAck     = 3
	ctrlBarrier = 4
	ctrlMetrics = 5
)

type ctrlMsg struct {
	Type   string   `json:"type"`
	Worker int      `json:"worker,omitempty"`
	Plan   *Plan    `json:"plan,omitempty"`
	Spec   []byte   `json:"spec,omitempty"`
	Addr   string   `json:"addr,omitempty"`
	Addrs  []string `json:"addrs,omitempty"`
	// Restore maps "stage/subtask" to checkpointed operator state for the
	// stages the receiving worker owns (resume-from-checkpoint only).
	Restore map[string][]byte `json:"restore,omitempty"`
}

// RestoreKey is the restore-map key for one subtask's state blob — the
// checkpoint store's canonical key, so coordinator-shipped maps always
// match Worker.RestoreState lookups.
func RestoreKey(stage string, subtask int) string {
	return ckpt.StateKey(stage, subtask)
}

func writeJSON(conn net.Conn, m ctrlMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = conn.Write(append(b, '\n'))
	return err
}

func readJSON(br *bufio.Reader, wantType string) (ctrlMsg, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return ctrlMsg{}, err
	}
	var m ctrlMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return ctrlMsg{}, err
	}
	if m.Type != wantType {
		return ctrlMsg{}, fmt.Errorf("tcpnet: control message %q, want %q", m.Type, wantType)
	}
	return m, nil
}

// Coordinator drives a distributed run: it admits workers, computes and
// broadcasts the placement plan, feeds stage 0 through its Transport, and
// receives the sink stream from the worker owning the last stage.
type Coordinator struct {
	lis      net.Listener
	nWorkers int
	dataDisc func(stage, addr string, err error)

	node      *Node
	ctrls     []net.Conn
	ctrlRs    []*bufio.Reader // pending control readers (Run..Start window)
	sinkFn    func(any)
	sinkWMs   func(model.Tick)
	ackFn     func(id uint64, stage, subtask int, state []byte, err error)
	sinkBar   func(id uint64)
	metricsFn func(worker int, fams []obs.FamilySnapshot)
	eventFn   func(event string, worker int, addr string)

	mu     sync.Mutex
	doneCh chan error
	closed bool
}

// NewCoordinator listens for worker control connections on addr (e.g.
// "127.0.0.1:7400", or ":0" for an ephemeral port).
func NewCoordinator(addr string, workers int) (*Coordinator, error) {
	if workers < 1 {
		return nil, fmt.Errorf("tcpnet: need at least one worker, got %d", workers)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: %w", err)
	}
	return &Coordinator{
		lis:      lis,
		nWorkers: workers,
		doneCh:   make(chan error, workers),
	}, nil
}

// Addr returns the control listener address workers join.
func (c *Coordinator) Addr() string { return c.lis.Addr().String() }

// SetDataDisconnectHook installs the peer-disconnect receiver for the
// driver's inbound data edges (see Node.SetDisconnectHook). Call before
// Run; it is applied to the data-plane node the handshake creates.
func (c *Coordinator) SetDataDisconnectHook(fn func(stage, addr string, err error)) {
	c.dataDisc = fn
}

// OnSink installs the receiver for records forwarded from the remote last
// stage. Set before Start (frames are not read until then, so nothing is
// lost in between).
func (c *Coordinator) OnSink(fn func(any)) { c.sinkFn = fn }

// OnSinkWatermark installs the receiver for the remote last stage's merged
// watermark. Set before Start.
func (c *Coordinator) OnSinkWatermark(fn func(model.Tick)) { c.sinkWMs = fn }

// OnCheckpointAck installs the receiver for worker subtask checkpoint acks
// (forwarded flow.Config.OnCheckpointState calls). Set before Start.
func (c *Coordinator) OnCheckpointAck(fn func(id uint64, stage, subtask int, state []byte, err error)) {
	c.ackFn = fn
}

// OnSinkBarrier installs the receiver for the remote last stage's
// sink-barrier cut; frames are ordered with the sink record stream, so all
// pre-cut records have been delivered when it fires. Set before Start.
func (c *Coordinator) OnSinkBarrier(fn func(id uint64)) { c.sinkBar = fn }

// OnMetrics installs the receiver for worker metric snapshots: workers
// ship their registry's families periodically (and once more right before
// done), and the coordinator merges them into its own registry so one
// scrape shows the whole job. Set before Start. Because a worker's final
// snapshot precedes its done frame on the same connection, every metric is
// in when WaitDone returns.
func (c *Coordinator) OnMetrics(fn func(worker int, fams []obs.FamilySnapshot)) {
	c.metricsFn = fn
}

// OnWorkerEvent installs the receiver for worker lifecycle transitions:
// "connect" when a worker's hello is accepted during Run, "done" when its
// done frame arrives, "disconnect" when its control connection fails
// before done. Set before Run (connect events fire during the handshake).
func (c *Coordinator) OnWorkerEvent(fn func(event string, worker int, addr string)) {
	c.eventFn = fn
}

// workerEvent fires the lifecycle hook if installed.
func (c *Coordinator) workerEvent(event string, worker int, addr string) {
	if c.eventFn != nil {
		c.eventFn(event, worker, addr)
	}
}

// Run performs the handshake: it waits for all workers to join, assigns
// the round-robin placement for stages, ships spec (and, on resume, each
// worker's share of the checkpointed state in restore, keyed by
// RestoreKey) to every worker, collects data addresses and broadcasts
// them. After Run returns the Transport is ready; install the sink hooks,
// then call Start to begin consuming worker control frames.
func (c *Coordinator) Run(stages []string, spec []byte, restore map[string][]byte) error {
	plan := RoundRobin(stages, c.nWorkers)
	if err := plan.validate(); err != nil {
		return err
	}
	type joined struct {
		conn net.Conn
		br   *bufio.Reader
	}
	var workers []joined
	// A failed handshake must not strand workers that already joined: they
	// are blocked reading the next control message and only a closed
	// connection releases them.
	ok := false
	defer func() {
		if ok {
			return
		}
		for _, w := range workers {
			w.conn.Close()
		}
	}()
	for len(workers) < c.nWorkers {
		conn, err := c.lis.Accept()
		if err != nil {
			return fmt.Errorf("tcpnet: accept worker: %w", err)
		}
		br := bufio.NewReader(conn)
		if _, err := readJSON(br, "hello"); err != nil {
			conn.Close()
			return fmt.Errorf("tcpnet: worker hello: %w", err)
		}
		c.workerEvent("connect", len(workers), conn.RemoteAddr().String())
		workers = append(workers, joined{conn, br})
	}
	for i, w := range workers {
		p := plan
		m := ctrlMsg{Type: "plan", Worker: i, Plan: &p, Spec: spec}
		if len(restore) > 0 {
			// Ship only the state of stages this worker owns.
			m.Restore = make(map[string][]byte)
			for si, stage := range plan.Stages {
				if plan.Owners[si] != i {
					continue
				}
				prefix := stage + "/"
				for key, blob := range restore {
					if strings.HasPrefix(key, prefix) {
						m.Restore[key] = blob
					}
				}
			}
		}
		if err := writeJSON(w.conn, m); err != nil {
			return fmt.Errorf("tcpnet: send plan to worker %d: %w", i, err)
		}
	}
	addrs := make([]string, c.nWorkers)
	for i, w := range workers {
		m, err := readJSON(w.br, "ready")
		if err != nil {
			return fmt.Errorf("tcpnet: worker %d ready: %w", i, err)
		}
		addrs[i] = m.Addr
	}
	plan.Addrs = addrs
	for i, w := range workers {
		if err := writeJSON(w.conn, ctrlMsg{Type: "addrs", Addrs: addrs}); err != nil {
			return fmt.Errorf("tcpnet: send addrs to worker %d: %w", i, err)
		}
	}
	node, err := NewNode(DriverID, plan, "")
	if err != nil {
		return err
	}
	if c.dataDisc != nil {
		node.SetDisconnectHook(c.dataDisc)
	}
	node.SetAddrs(addrs)
	c.node = node
	for _, w := range workers {
		c.ctrls = append(c.ctrls, w.conn)
		c.ctrlRs = append(c.ctrlRs, w.br)
	}
	ok = true
	return nil
}

// Start launches the control-frame readers. Call after Run, once the sink
// hooks are installed — the separation is what makes hook installation
// race-free: no reader goroutine exists before Start. Worker frames sent
// in the meantime simply wait in socket buffers.
func (c *Coordinator) Start() {
	for i, br := range c.ctrlRs {
		go c.readCtrl(i, c.ctrls[i].RemoteAddr().String(), br)
	}
	c.ctrlRs = nil
}

// readCtrl consumes one worker's post-handshake binary frames.
func (c *Coordinator) readCtrl(worker int, addr string, br *bufio.Reader) {
	for {
		ft, err := br.ReadByte()
		if err != nil {
			c.workerEvent("disconnect", worker, addr)
			c.doneCh <- fmt.Errorf("tcpnet: worker control connection: %w", err)
			return
		}
		switch ft {
		case ctrlSink:
			body, err := readLenBytes(br, maxFrameLen)
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: sink frame: %w", err)
				return
			}
			rec, err := flow.DecodePayload(body)
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: sink payload: %w", err)
				return
			}
			if c.sinkFn != nil {
				c.sinkFn(rec)
			}
		case ctrlWM:
			wm, err := binary.ReadVarint(br)
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: sink watermark: %w", err)
				return
			}
			if c.sinkWMs != nil {
				c.sinkWMs(model.Tick(wm))
			}
		case ctrlAck:
			id, err := binary.ReadUvarint(br)
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: ack id: %w", err)
				return
			}
			stage, err := binary.ReadUvarint(br)
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: ack stage: %w", err)
				return
			}
			subtask, err := binary.ReadUvarint(br)
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: ack subtask: %w", err)
				return
			}
			okb, err := br.ReadByte()
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: ack flag: %w", err)
				return
			}
			body, err := readLenBytes(br, maxFrameLen)
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: ack body: %w", err)
				return
			}
			if c.ackFn != nil {
				var snapErr error
				state := body
				if okb == 0 {
					snapErr = fmt.Errorf("tcpnet: remote snapshot: %s", body)
					state = nil
				}
				c.ackFn(id, int(stage), int(subtask), state, snapErr)
			}
		case ctrlBarrier:
			id, err := binary.ReadUvarint(br)
			if err != nil {
				c.doneCh <- fmt.Errorf("tcpnet: sink barrier: %w", err)
				return
			}
			if c.sinkBar != nil {
				c.sinkBar(id)
			}
		case ctrlMetrics:
			body, err := readLenBytes(br, maxFrameLen)
			if err != nil {
				c.workerEvent("disconnect", worker, addr)
				c.doneCh <- fmt.Errorf("tcpnet: metrics frame: %w", err)
				return
			}
			if c.metricsFn != nil {
				var fams []obs.FamilySnapshot
				if err := json.Unmarshal(body, &fams); err != nil {
					c.doneCh <- fmt.Errorf("tcpnet: metrics payload: %w", err)
					return
				}
				c.metricsFn(worker, fams)
			}
		case ctrlDone:
			c.workerEvent("done", worker, addr)
			c.doneCh <- nil
			return
		default:
			c.doneCh <- fmt.Errorf("tcpnet: unknown control frame %d", ft)
			return
		}
	}
}

// Transport returns the coordinator's data-plane transport (sender
// endpoints for every stage). Valid after Run.
func (c *Coordinator) Transport() flow.Transport { return c.node.Transport() }

// Local is the flow.Config.Local of a pure driver: no stage executes here.
func (c *Coordinator) Local(int) bool { return false }

// WaitDone blocks until every worker has reported completion of its local
// stages. Because a worker's sink frames precede its done frame on the
// same connection, all sink output has been delivered when WaitDone
// returns.
func (c *Coordinator) WaitDone() error {
	var firstErr error
	for i := 0; i < c.nWorkers; i++ {
		if err := <-c.doneCh; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close tears down the control listener, worker connections and the data
// plane.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	for _, conn := range c.ctrls {
		conn.Close()
	}
	err := c.lis.Close()
	if c.node != nil {
		c.node.Close()
	}
	return err
}
