// Package tcpnet is the multi-process backend for the flow runtime: a
// flow.Transport whose edges are TCP sockets, plus the coordinator/worker
// handshake that places the stages of a linear topology onto separate OS
// processes.
//
// # Data plane
//
// Placement is stage-granular: every stage of the pipeline is owned by
// exactly one worker process, which runs all of its subtasks. Each worker
// opens one data listener; the process owning stage i-1 (or the driver,
// for stage 0) opens one TCP connection *per inbound edge* to the owner of
// stage i and multiplexes that stage's subtask streams over it. Dedicated
// per-edge connections matter: backpressure then propagates strictly
// upstream along the pipeline, so a stalled downstream stage can never
// deadlock an unrelated edge sharing the socket.
//
// Messages cross the wire through the flow codec registry
// (flow.AppendMessage/DecodeMessage), so every record type on a networked
// edge must have a registered codec — which is exactly what keeps the
// message vocabulary free of shared-heap pointers. Per-edge framing:
//
//	preamble: [len uvarint][stage name][format byte = 0]
//	data:     [0][subtask uvarint][len uvarint][encoded message]
//	eos:      [1]                                (upstream stage finished)
//
// There is one format: the receiver rejects any other format byte, and a
// preamble whose stage name is longer than maxStageName is dropped before
// anything is allocated for it.
//
// TCP gives FIFO per connection; the demultiplexer preserves it per
// subtask queue, which is the ordering contract the flow runtime's
// watermark merging relies on. Sends against a full downstream queue block
// the connection (the reader stops draining), which is how backpressure
// reaches remote senders.
//
// # Send coalescing
//
// Senders encode frames inline, under the edge's mutex, into a shared
// pending buffer; the buffer reaches the socket in one Write per *flush*,
// not per frame. The flush policy is fixed: when the pending buffer
// crosses coalesceBytes (64 KiB), on every barrier frame (checkpoint
// alignment never waits for batching), when a watermark broadcast
// completes (the collector sends a watermark to all par subtasks
// back-to-back; only the last one flushes), and otherwise by a background
// flusher every flushInterval (1 ms) — the hard latency bound for data
// frames that no other trigger follows (flush-on-idle: latency is never
// traded for batching). Edge connections keep Go's default TCP_NODELAY
// (the pending buffer replaces Nagle batching without its ack-bound
// latency) and the OS default socket buffers. Backpressure is preserved: a
// sender blocks in conn.Write while holding the edge mutex when the
// receiver stops draining, stalling every subtask of the edge.
//
// The transport is fail-fast: an I/O error on an established edge panics
// the process rather than silently dropping records; a distributed run is
// only correct if every edge delivers everything. The one classified
// exception is a peer disconnect (EOF / connection reset mid-stream):
// it still panics, but surfaces as a logged peer-disconnect event — see
// Node.SetDisconnectHook — instead of an opaque decode error.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/flow"
)

// Startup dial retry policy: process launch order is not coordinated (a
// worker may dial the coordinator before it listens; an edge may dial a
// peer whose listener races the handshake), so a refused connection during
// startup is normal, not fatal. Dials retry with exponential backoff
// capped at dialRetryCap, giving up after dialRetryTotal; once a
// connection is established, I/O failures remain fail-fast.
const (
	dialRetryBase  = 50 * time.Millisecond
	dialRetryCap   = time.Second
	dialRetryTotal = 30 * time.Second
)

// dialRetry dials addr, retrying connection failures with capped
// exponential backoff for up to total.
func dialRetry(addr string, total time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(total)
	delay := dialRetryBase
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(delay)
		if delay *= 2; delay > dialRetryCap {
			delay = dialRetryCap
		}
	}
}

// Data-plane constants. A pending buffer is flushed once it holds
// coalesceBytes, and otherwise at the background flusher's next tick
// (every flushInterval). maxStageName bounds the preamble, which is read
// off any connection to a worker's data listener before anything
// identifies the peer; maxFrameLen bounds every other length prefix.
const (
	coalesceBytes = 64 << 10
	flushInterval = time.Millisecond
	maxStageName  = 1 << 10
	maxFrameLen   = 1 << 31
)

// Package-wide wire counters, aggregated across every edge of every Node
// in the process. The bench harness snapshots them around a run to report
// bytes on the wire and the frames-per-flush ratio without plumbing
// through each worker goroutine.
var (
	wireBytes   atomic.Int64
	wireFlushes atomic.Int64
	wireFrames  atomic.Int64
)

// WireCounters returns the process-wide cumulative data-plane totals:
// bytes written, Write calls (flushes), and frames encoded.
func WireCounters() (bytes, flushes, frames int64) {
	return wireBytes.Load(), wireFlushes.Load(), wireFrames.Load()
}

// DriverID is the node id of a pure driver process (the coordinator): it
// owns no stages and only feeds stage 0 and receives the sink.
const DriverID = -1

// Plan is the placement of a linear topology onto worker processes. All
// processes of one run hold identical plans (the coordinator computes and
// broadcasts it).
type Plan struct {
	// Workers is the number of worker processes.
	Workers int `json:"workers"`
	// Stages are the stage names in pipeline order.
	Stages []string `json:"stages"`
	// Owners[i] is the worker index running Stages[i]'s subtasks.
	Owners []int `json:"owners"`
	// Addrs[w] is worker w's data listener address ("" if w owns no
	// stage). Filled during the handshake.
	Addrs []string `json:"addrs,omitempty"`
}

// RoundRobin places stage i on worker i mod workers — with more than one
// worker every edge crosses a process boundary, which is the configuration
// the conformance and determinism tests exercise hardest.
func RoundRobin(stages []string, workers int) Plan {
	p := Plan{Workers: workers, Stages: stages, Owners: make([]int, len(stages))}
	for i := range stages {
		p.Owners[i] = i % workers
	}
	return p
}

func (p Plan) validate() error {
	if p.Workers < 1 {
		return fmt.Errorf("tcpnet: plan needs at least one worker, got %d", p.Workers)
	}
	if len(p.Owners) != len(p.Stages) {
		return fmt.Errorf("tcpnet: %d owners for %d stages", len(p.Owners), len(p.Stages))
	}
	seen := make(map[string]struct{}, len(p.Stages))
	for i, s := range p.Stages {
		if _, dup := seen[s]; dup {
			return fmt.Errorf("tcpnet: duplicate stage %q", s)
		}
		seen[s] = struct{}{}
		if p.Owners[i] < 0 || p.Owners[i] >= p.Workers {
			return fmt.Errorf("tcpnet: stage %q owned by %d of %d workers", s, p.Owners[i], p.Workers)
		}
	}
	return nil
}

func (p Plan) ownerOf(stage string) (int, error) {
	for i, s := range p.Stages {
		if s == stage {
			return p.Owners[i], nil
		}
	}
	return 0, fmt.Errorf("tcpnet: stage %q not in plan %v", stage, p.Stages)
}

// OwnsAny reports whether worker me owns any stage (and thus needs a data
// listener).
func (p Plan) OwnsAny(me int) bool {
	for _, o := range p.Owners {
		if o == me {
			return true
		}
	}
	return false
}

// Node is one process's view of the data plane. It implements
// flow.Transport: Edge returns receiving queue endpoints for stages this
// process owns and remote sender endpoints for all others.
type Node struct {
	me   int
	plan Plan
	lis  net.Listener

	mu           sync.Mutex
	cond         *sync.Cond
	logf         func(string, ...any)
	onDisconnect func(stage, addr string, err error)
	recv         map[string][]*recvEndpoint
	out          map[string]*senderGroup
	aconns       map[net.Conn]struct{} // accepted data connections
	closed       bool
}

// NewNode builds the data plane for worker me (or DriverID) under plan,
// opening a data listener on listenAddr (default "127.0.0.1:0") when me
// owns at least one stage. Call SetAddrs once every worker's listener
// address is known, before the pipeline starts sending.
func NewNode(me int, plan Plan, listenAddr string) (*Node, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		me:     me,
		plan:   plan,
		logf:   log.Printf,
		recv:   make(map[string][]*recvEndpoint),
		out:    make(map[string]*senderGroup),
		aconns: make(map[net.Conn]struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	if plan.OwnsAny(me) {
		if listenAddr == "" {
			listenAddr = "127.0.0.1:0"
		}
		lis, err := net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: %w", err)
		}
		n.lis = lis
		go n.acceptLoop()
	}
	return n, nil
}

// DataAddr returns the bound data listener address ("" for a node owning
// no stage).
func (n *Node) DataAddr() string {
	if n.lis == nil {
		return ""
	}
	return n.lis.Addr().String()
}

// SetAddrs installs the data listener addresses of all workers.
func (n *Node) SetAddrs(addrs []string) {
	n.mu.Lock()
	n.plan.Addrs = addrs
	n.mu.Unlock()
}

// SetDisconnectHook installs the receiver for classified peer disconnects
// on inbound data edges: EOF or a connection reset mid-stream (a torn
// length prefix at teardown) fires the hook with the edge's stage and the
// remote address before the fail-fast panic, so the failure surfaces as a
// structured worker.disconnect event rather than an opaque decode error.
// During node teardown the hook still fires but the panic is suppressed.
func (n *Node) SetDisconnectHook(fn func(stage, addr string, err error)) {
	n.mu.Lock()
	n.onDisconnect = fn
	n.mu.Unlock()
}

// SetLogf overrides the error logger (tests silence it).
func (n *Node) SetLogf(f func(string, ...any)) {
	n.mu.Lock()
	n.logf = f
	n.mu.Unlock()
}

// log reports through the installed logger; demux goroutines call it
// concurrently with SetLogf.
func (n *Node) log(format string, args ...any) {
	n.mu.Lock()
	f := n.logf
	n.mu.Unlock()
	f(format, args...)
}

// Transport returns the node as a flow.Transport.
func (n *Node) Transport() flow.Transport { return n }

// LocalStage reports whether stage index i executes in this process; it is
// the flow.Config.Local function of a distributed pipeline.
func (n *Node) LocalStage(i int) bool {
	return i >= 0 && i < len(n.plan.Owners) && n.plan.Owners[i] == n.me
}

// Edge implements flow.Transport.
func (n *Node) Edge(stage string, parallelism, buf int) []flow.Endpoint {
	owner, err := n.plan.ownerOf(stage)
	if err != nil {
		panic(err)
	}
	eps := make([]flow.Endpoint, parallelism)
	if owner == n.me {
		queues := make([]*recvEndpoint, parallelism)
		for i := range queues {
			queues[i] = &recvEndpoint{ch: make(chan flow.Message, buf)}
			eps[i] = queues[i]
		}
		n.mu.Lock()
		if _, dup := n.recv[stage]; dup {
			n.mu.Unlock()
			panic(fmt.Sprintf("tcpnet: edge %q allocated twice", stage))
		}
		n.recv[stage] = queues
		n.cond.Broadcast()
		n.mu.Unlock()
		return eps
	}
	g := &senderGroup{node: n, stage: stage, owner: owner, par: parallelism}
	n.mu.Lock()
	n.out[stage] = g
	n.mu.Unlock()
	for i := range eps {
		eps[i] = &sendEndpoint{g: g, subtask: i}
	}
	return eps
}

// Close tears the data plane down: the listener, accepted connections and
// any outbound edges still open.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.cond.Broadcast()
	conns := make([]net.Conn, 0, len(n.aconns))
	for c := range n.aconns {
		conns = append(conns, c)
	}
	groups := make([]*senderGroup, 0, len(n.out))
	for _, g := range n.out {
		groups = append(groups, g)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, g := range groups {
		g.shutdown()
	}
	if n.lis != nil {
		return n.lis.Close()
	}
	return nil
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.lis.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.aconns[conn] = struct{}{}
		n.mu.Unlock()
		go n.demux(conn)
	}
}

// recvWait blocks until the edge for stage has been allocated (the local
// pipeline may still be under construction when a remote sender dials in).
func (n *Node) recvWait(stage string) []*recvEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.recv[stage] == nil && !n.closed {
		n.cond.Wait()
	}
	return n.recv[stage]
}

// Frame types on data connections.
const (
	frameData = 0
	frameEOS  = 1
)

// isDisconnect classifies I/O errors that mean the peer went away (or the
// local socket was torn down) rather than the stream being corrupt: EOF
// and unexpected EOF (a torn length prefix — the connection died between
// the prefix and its body), a reset connection, and reads on a closed
// socket.
func isDisconnect(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// notifyDisconnect logs and fires the disconnect hook for one inbound
// edge's peer loss.
func (n *Node) notifyDisconnect(stage string, conn net.Conn, err error) {
	addr := ""
	if ra := conn.RemoteAddr(); ra != nil {
		addr = ra.String()
	}
	n.log("tcpnet: edge %s: peer %s disconnected: %v", stage, addr, err)
	n.mu.Lock()
	fn := n.onDisconnect
	n.mu.Unlock()
	if fn != nil {
		fn(stage, addr, err)
	}
}

// demux reads one inbound edge connection and routes its messages to the
// stage's subtask queues. Pushing into a full queue blocks, which stops
// draining the socket and backpressures the remote sender. The frame body
// buffer is reused across frames (codecs copy what they keep), so the
// steady-state read path allocates nothing per frame.
func (n *Node) demux(conn net.Conn) {
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.aconns, conn)
		n.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	stageB, err := readLenBytes(br, maxStageName)
	if err != nil {
		n.log("tcpnet: %v: preamble: %v", conn.RemoteAddr(), err)
		return
	}
	stage := string(stageB)
	frameFormat, err := br.ReadByte()
	if err != nil {
		n.log("tcpnet: %v: preamble format: %v", conn.RemoteAddr(), err)
		return
	}
	// Once the edge is established, any failure before a clean EOS is
	// fatal (fail-fast): returning with the queues still open would leave
	// downstream subtasks blocked in Recv forever and hang the whole
	// distributed run, while closing them would silently truncate the
	// stream. An EOF here means the upstream process died mid-stream; it
	// is classified and surfaced as a peer-disconnect event first.
	fatal := func(format string, args ...any) {
		if n.isClosed() {
			return // teardown: the run is over, nothing to corrupt
		}
		panic(fmt.Sprintf("tcpnet: edge %s: %s", stage, fmt.Sprintf(format, args...)))
	}
	if frameFormat != 0 {
		fatal("unknown wire format %d", frameFormat)
		return
	}
	queues := n.recvWait(stage)
	if queues == nil {
		return // node closed before the edge existed
	}
	var body []byte // reused frame body
	// readBody reads one [len uvarint][bytes] frame body into the reused
	// buffer; the caller classifies the error.
	readBody := func() error {
		ln, err := binary.ReadUvarint(br)
		if err == nil && ln > maxFrameLen {
			return fmt.Errorf("frame length %d exceeds limit", ln)
		}
		if err == nil {
			if uint64(cap(body)) < ln {
				body = make([]byte, ln)
			}
			body = body[:ln]
			_, err = io.ReadFull(br, body)
		}
		return err
	}
	for {
		ft, err := binary.ReadUvarint(br)
		if err != nil {
			if isDisconnect(err) {
				n.notifyDisconnect(stage, conn, err)
				fatal("peer disconnected before EOS (upstream process died?): %v", err)
				return
			}
			fatal("frame: %v", err)
			return
		}
		switch ft {
		case frameData:
			subtask, err := binary.ReadUvarint(br)
			if err == nil && subtask >= uint64(len(queues)) {
				fatal("subtask %d of %d", subtask, len(queues))
				return
			}
			if err == nil {
				err = readBody()
			}
			if err != nil {
				// A torn length prefix or truncated body at connection
				// teardown is a peer disconnect, not stream corruption.
				if isDisconnect(err) {
					n.notifyDisconnect(stage, conn, err)
					fatal("peer disconnected mid-frame (torn length prefix): %v", err)
					return
				}
				fatal("frame: %v", err)
				return
			}
			m, err := flow.DecodeMessage(body)
			if err != nil {
				fatal("decode: %v", err)
				return
			}
			queues[subtask].Send(m)
		case frameEOS:
			// The upstream stage has finished entirely: end every subtask
			// queue. Buffered messages stay receivable.
			for _, q := range queues {
				close(q.ch)
			}
			return
		default:
			fatal("unknown frame type %d", ft)
			return
		}
	}
}

// readLenBytes reads one [len uvarint][bytes] field, refusing lengths
// above limit before allocating: the prefix comes off the network.
func readLenBytes(br *bufio.Reader, limit uint64) ([]byte, error) {
	ln, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ln > limit {
		return nil, fmt.Errorf("length %d exceeds limit %d", ln, limit)
	}
	b := make([]byte, ln)
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// recvEndpoint is one local subtask's input queue, fed either by the demux
// loop (remote upstream) or directly by same-process senders (when
// adjacent stages land on one worker). It implements flow.QueueStats so
// remote edges feed the same per-edge backpressure gauges as in-process
// ones: a Send that finds the queue full counts a block — on the demux
// path that is exactly the moment the socket stops draining and TCP
// backpressure reaches the remote sender.
type recvEndpoint struct {
	ch      chan flow.Message
	blocked atomic.Int64
}

func (e *recvEndpoint) Send(m flow.Message) {
	select {
	case e.ch <- m:
	default:
		e.blocked.Add(1)
		e.ch <- m
	}
}

func (e *recvEndpoint) Recv() (flow.Message, bool) {
	m, ok := <-e.ch
	return m, ok
}

func (e *recvEndpoint) Close() { close(e.ch) }

func (e *recvEndpoint) QueueDepth() (int, int) { return len(e.ch), cap(e.ch) }

func (e *recvEndpoint) SendBlocks() int64 { return e.blocked.Load() }

// senderGroup is the outbound side of one edge: all subtask endpoints
// share one connection to the owning worker. Senders encode inline under
// the group mutex into a shared pending buffer, which is only written out
// when a frame demands it (watermark, barrier, EOS — alignment and
// checkpoint latency never wait for batching), when it crosses
// coalesceBytes, or by the background flusher's tick, so a burst of data
// frames costs one syscall instead of one each. Blocking in conn.Write
// while holding the mutex is the edge's backpressure: an undrained
// receiver stalls every subtask of the edge. EOS is emitted once the
// runtime has closed every subtask endpoint of the edge.
type senderGroup struct {
	node  *Node
	stage string
	owner int
	par   int

	mu      sync.Mutex
	conn    net.Conn
	buf     []byte        // pending frames, flushed by writeLocked
	pbuf    []byte        // per-message encode scratch
	done    chan struct{} // closed to terminate the flusher
	started bool          // flusher running
	stopped bool          // done has been closed
	closes  int
	down    bool // no more sends accepted (clean close or teardown)
	dead    bool // teardown: connection torn, frames may be dropped
	wg      sync.WaitGroup

	bytes   atomic.Int64
	flushes atomic.Int64
	frames  atomic.Int64
}

// dialLocked opens the edge connection and writes the preamble. The
// pending buffer is empty whenever the connection is down (frames are only
// buffered after a successful dial), so reusing g.buf here is safe.
func (g *senderGroup) dialLocked() {
	if g.conn != nil || g.dead {
		return
	}
	g.node.mu.Lock()
	addrs := g.node.plan.Addrs
	g.node.mu.Unlock()
	if g.owner >= len(addrs) || addrs[g.owner] == "" {
		panic(fmt.Sprintf("tcpnet: no data address for worker %d (edge %q); handshake incomplete", g.owner, g.stage))
	}
	conn, err := dialRetry(addrs[g.owner], dialRetryTotal)
	if err != nil {
		panic(fmt.Sprintf("tcpnet: dial edge %q: %v", g.stage, err))
	}
	g.conn = conn
	g.buf = binary.AppendUvarint(g.buf[:0], uint64(len(g.stage)))
	g.buf = append(g.buf, g.stage...)
	g.buf = append(g.buf, 0) // format byte: the row framing above
	g.writeLocked()
}

// writeLocked flushes the pending buffer to the connection, counting one
// flush, and resets it. During teardown (dead, or the conn already torn
// away) frames are dropped silently, matching the no-EOS semantics of
// shutdown.
func (g *senderGroup) writeLocked() {
	buf := g.buf
	g.buf = buf[:0]
	if g.conn == nil || len(buf) == 0 {
		return
	}
	if _, err := g.conn.Write(buf); err != nil {
		if g.node.isClosed() || g.dead {
			return
		}
		panic(fmt.Sprintf("tcpnet: write edge %q: %v", g.stage, err))
	}
	g.bytes.Add(int64(len(buf)))
	g.flushes.Add(1)
	wireBytes.Add(int64(len(buf)))
	wireFlushes.Add(1)
}

// appendFrame encodes one data frame for subtask onto the pending buffer.
// The message is encoded into the reused scratch first, since its length
// prefix precedes it.
func (g *senderGroup) appendFrame(subtask int, m flow.Message) {
	var err error
	g.pbuf, err = flow.AppendMessage(g.pbuf[:0], m)
	if err != nil {
		panic(fmt.Sprintf("tcpnet: encode for edge %q: %v", g.stage, err))
	}
	g.buf = binary.AppendUvarint(g.buf, frameData)
	g.buf = binary.AppendUvarint(g.buf, uint64(subtask))
	g.buf = binary.AppendUvarint(g.buf, uint64(len(g.pbuf)))
	g.buf = append(g.buf, g.pbuf...)
	g.frames.Add(1)
	wireFrames.Add(1)
}

// send encodes one frame into the pending buffer and flushes on barrier
// frames, on the last subtask of a watermark broadcast (the collector
// sends watermarks to subtasks 0..par-1 back-to-back, so alignment and
// propagation latency never wait for batching) and when the buffer
// crosses coalesceBytes, leaving everything else to the background
// flusher.
func (g *senderGroup) send(subtask int, m flow.Message) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down {
		if g.dead || g.node.isClosed() {
			return // teardown: the run is over, frames are droppable
		}
		panic(fmt.Sprintf("tcpnet: send on closed edge %q", g.stage))
	}
	g.dialLocked()
	g.startFlusherLocked()
	g.appendFrame(subtask, m)
	if m.IsBarrier || (m.IsWM && subtask == g.par-1) || len(g.buf) >= coalesceBytes {
		g.writeLocked()
	}
}

// startFlusherLocked launches the background flusher once.
func (g *senderGroup) startFlusherLocked() {
	if g.started {
		return
	}
	g.started = true
	g.done = make(chan struct{})
	g.wg.Add(1)
	go g.flusher(flushInterval)
}

// flusher ships whatever send left in the pending buffer every interval:
// the latency bound for data frames that no watermark, barrier or size
// trigger followed. A tick that finds the buffer empty is a no-op; a tick
// that finds a sender blocked in conn.Write simply queues on the mutex
// behind it.
func (g *senderGroup) flusher(interval time.Duration) {
	defer g.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-t.C:
			g.mu.Lock()
			g.writeLocked()
			g.mu.Unlock()
		}
	}
}

// stopFlusherLocked arranges flusher termination; the caller must close
// the returned channel (if any) and wait on g.wg after releasing g.mu.
func (g *senderGroup) stopFlusherLocked() chan struct{} {
	if !g.started || g.stopped {
		return nil
	}
	g.stopped = true
	return g.done
}

// closeOne records one subtask endpoint's Close; the last one flushes any
// pending frames together with the EOS marker and shuts the connection
// down.
func (g *senderGroup) closeOne() {
	g.mu.Lock()
	if g.down {
		g.mu.Unlock()
		return
	}
	g.closes++
	if g.closes < g.par {
		g.mu.Unlock()
		return
	}
	g.down = true
	// EOS must reach the receiver even when the edge carried no data.
	g.dialLocked()
	g.buf = binary.AppendUvarint(g.buf, frameEOS)
	g.writeLocked()
	if g.conn != nil {
		g.conn.Close()
		g.conn = nil
	}
	done := g.stopFlusherLocked()
	g.mu.Unlock()
	if done != nil {
		close(done)
		g.wg.Wait()
	}
}

// shutdown force-closes the connection without EOS (node teardown): any
// pending frames are dropped and the flusher, if running, is terminated.
func (g *senderGroup) shutdown() {
	g.mu.Lock()
	g.down = true
	g.dead = true
	g.buf = g.buf[:0]
	if g.conn != nil {
		g.conn.Close()
		g.conn = nil
	}
	done := g.stopFlusherLocked()
	g.mu.Unlock()
	if done != nil {
		close(done)
		g.wg.Wait()
	}
}

// WireStats reports this edge's cumulative wire counters: bytes written,
// Write calls (flushes) and frames encoded.
func (g *senderGroup) WireStats() (bytes, flushes, frames int64) {
	return g.bytes.Load(), g.flushes.Load(), g.frames.Load()
}

// sendEndpoint is one subtask's view of a senderGroup.
type sendEndpoint struct {
	g       *senderGroup
	subtask int
}

func (e *sendEndpoint) Send(m flow.Message) { e.g.send(e.subtask, m) }

func (e *sendEndpoint) Recv() (flow.Message, bool) {
	panic("tcpnet: Recv on a sender endpoint (stage owned by another process)")
}

func (e *sendEndpoint) Close() { e.g.closeOne() }

// WireStats implements flow.WireStats, surfacing the shared group's
// counters (every subtask endpoint of an edge reports the same totals).
func (e *sendEndpoint) WireStats() (bytes, flushes, frames int64) { return e.g.WireStats() }
