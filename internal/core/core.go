// Package core is the thin façade over the layered ICPE implementation:
// it translates a single Config into the paper's standard pipeline
// (Figure 3) and carries the run's bookkeeping (latency, throughput,
// pattern collection). The layers below it are:
//
//   - internal/ops/*: one package per operator (allocate, rangejoin,
//     clusterop, enumop) plus the shared message types in ops/msg;
//   - internal/topology: the pipeline declared as a data-driven graph of
//     stage specs and keyed exchanges;
//   - internal/flow: the transport-pluggable execution runtime.
//
// The standard topology is declared in icpe_topology.go; nothing in this
// package implements operator logic. See ARCHITECTURE.md for how to add an
// operator, a topology, or a transport.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/ops/allocate"
	"repro/internal/ops/msg"
	"repro/internal/patstore"
	"repro/internal/stream"
)

// ClusterMethod selects the range-join engine.
type ClusterMethod string

const (
	// RJC is the paper's GR-index range join (Lemmas 1-2).
	RJC ClusterMethod = "rjc"
	// SRJ is the full-replication build-then-probe baseline.
	SRJ ClusterMethod = "srj"
	// GDC is the eps-cell grid DBSCAN baseline.
	GDC ClusterMethod = "gdc"
)

// EnumMethod selects the pattern enumerator.
type EnumMethod string

const (
	// BA is the exponential baseline (Algorithm 3).
	BA EnumMethod = "ba"
	// FBA is fixed-length bit compression (Algorithm 4).
	FBA EnumMethod = "fba"
	// VBA is variable-length bit compression (Algorithm 5).
	VBA EnumMethod = "vba"
	// NoEnum disables pattern enumeration (clustering-only benchmarks).
	NoEnum EnumMethod = "none"
)

// Config parameterizes one ICPE pipeline instance.
type Config struct {
	// Constraints is the CP(M,K,L,G) pattern definition.
	Constraints model.Constraints
	// Eps is the DBSCAN distance threshold.
	Eps float64
	// CellWidth is the grid cell width lg.
	CellWidth float64
	// Metric is the distance function (paper: L1).
	Metric geo.Metric
	// MinPts is DBSCAN's density threshold.
	MinPts int
	// Cluster selects the range-join engine (default RJC).
	Cluster ClusterMethod
	// Enum selects the pattern enumerator (default FBA).
	Enum EnumMethod
	// Nodes and SlotsPerNode simulate the cluster size: at most
	// Nodes*SlotsPerNode operators execute concurrently. Nodes = 0
	// disables the cap.
	Nodes        int
	SlotsPerNode int
	// Parallelism is the subtask count per stage (default 4). It is a pure
	// deployment knob: results are identical at any parallelism, and a
	// checkpointed run may resume at a different one (elastic rescale).
	Parallelism int
	// MaxParallelism is the key-group count (default 128): keyed exchanges
	// route by hash(key) % MaxParallelism and operator state is
	// checkpointed per key group, so Parallelism can change across a
	// resume as long as it stays ≤ MaxParallelism. Unlike Parallelism it
	// is part of the job's identity — the key→group mapping is the address
	// space of all keyed state — and must match the checkpoint's on
	// resume (it is validated via the config fingerprint).
	MaxParallelism int
	// SourcePartitions moves ingestion into the dataflow: the topology gains
	// a partitioned source stage (this many subtasks, each owning a disjoint
	// shard of object ids routed by key group) feeding the allocate stage
	// directly — records stay keyed by object id end to end, each allocate
	// subtask diffs/allocates only its own key groups' objects, and no stage
	// ever materializes a global snapshot. The pipeline is fed individual
	// records via PushRecord instead of driver-assembled snapshots. 0 (the
	// default) keeps the classic PushSnapshot path. Unlike Parallelism, the
	// partition count shards the external stream and the per-partition
	// replay offsets, so it is part of a checkpointed job's identity
	// (fingerprinted) and must stay fixed across a resume; every other stage
	// still rescales freely.
	SourcePartitions int
	// SourceSlack delays a source partition's coverage watermark by this
	// many ticks, absorbing late first records of unknown objects (see
	// stream.Assembler.Slack). Only used with SourcePartitions > 0.
	SourceSlack model.Tick
	// SourceSilence is how many ticks an object may stay silent before its
	// partition stops waiting for it (default stream.DefaultSilenceTimeout).
	// Only used with SourcePartitions > 0.
	SourceSilence model.Tick
	// Incremental switches the pipeline to delta-based cross-tick
	// computation: allocate diffs each snapshot against the previous
	// tick's positions and emits per-cell object deltas, rangejoin keeps
	// persistent per-cell indexes and emits only pair transitions, and
	// the clustering stage maintains the DBSCAN structure incrementally.
	// Results are identical to the from-scratch path; only the work per
	// tick changes (proportional to churn instead of snapshot size).
	// Requires the RJC cluster method; composes with either source
	// (classic PushSnapshot or the partitioned record feed). Like
	// MaxParallelism it is part of a checkpointed job's identity: the
	// stateful operators' blob formats differ per mode, so the mode is
	// fingerprinted and must match on resume.
	Incremental bool
	// ExchangeBatch is the record batch size on the keyed exchanges between
	// stages (default 32); values < 0 ship record-at-a-time. Batches are
	// sealed on every watermark, so results are identical either way.
	ExchangeBatch int
	// Transport overrides the exchange fabric between subtasks (default:
	// in-process bounded channels).
	Transport flow.Transport
	// Local restricts which pipeline stages execute in this process (nil =
	// all). Distributed runs pair it with a multi-process Transport; see
	// NewDistributed and RunWorker.
	Local func(stage int) bool
	// AwaitDrain, when set, is called by Finish after the source is closed
	// and the local stages have drained, before metrics are finalized.
	// Distributed drivers use it to wait for remote stage completion.
	AwaitDrain func()
	// CollectPatterns stores emitted patterns in the result (tests and
	// examples; benchmarks usually only count).
	CollectPatterns bool
	// OnPattern, when set, receives every pattern as it is emitted.
	OnPattern func(model.Pattern)
	// OnTickComplete, when set, is called once per tick after every stage
	// has fully consumed it (admission control in benchmarks).
	OnTickComplete func(model.Tick)

	// CheckpointInterval enables aligned-barrier checkpointing: a barrier
	// is injected after every CheckpointInterval-th snapshot (with
	// SourcePartitions > 0: once the record stream's tick has advanced by
	// that many ticks — the same cadence, measured at the record-feed
	// front), and each operator's keyed state is written to the checkpoint
	// store (0 = disabled). See internal/ckpt for the protocol.
	CheckpointInterval int
	// CheckpointDir is the local checkpoint directory (required when
	// CheckpointInterval > 0 unless CheckpointStore is set).
	CheckpointDir string
	// CheckpointStore overrides the checkpoint store backend (tests,
	// alternative backends). Defaults to a DirStore over CheckpointDir.
	CheckpointStore ckpt.Store
	// CheckpointAsync takes snapshot encoding off the hot path: at each
	// barrier an operator's state is captured synchronously (cheap), while
	// blob assembly and the coordinator ack run on background goroutines.
	// Results and checkpoint contents are identical to the synchronous
	// default; only when the work happens changes. Pure deployment knob:
	// not fingerprinted, may change across a resume.
	CheckpointAsync bool
	// CheckpointDelta cuts incremental checkpoints: after the first full
	// checkpoint, each cut persists only the key groups dirtied since the
	// last completed one, and the store maintains the resulting delta
	// chains (restore replays them; background compaction folds long
	// chains into new bases). The first checkpoint after a start or resume
	// is always full. Pure deployment knob: not fingerprinted, may change
	// across a resume. The synchronous full-state default remains the
	// oracle path.
	CheckpointDelta bool
	// CheckpointCompact is the delta-chain length that triggers background
	// store compaction (default ckpt.DefaultCompactThreshold when
	// CheckpointDelta is set; ignored otherwise). Only applies to the
	// default DirStore backend.
	CheckpointCompact int
	// CheckpointPaged stores checkpoint state in a paged blob file
	// (fixed-size pages with a free list) instead of one contiguous framed
	// file, so a large operator blob never has to be written or read as a
	// single []byte. Only applies to the default DirStore backend. Pure
	// deployment knob: stores of either layout restore interchangeably.
	CheckpointPaged bool
	// Resume restores operator state from the latest completed checkpoint
	// in the store before starting, and reports the replay position via
	// Pipeline.ResumePosition. A store without any completed checkpoint
	// starts fresh. Requires CheckpointInterval > 0.
	Resume bool
	// OnCommit, when set (requires checkpointing), receives batches of
	// patterns with exactly-once semantics: a batch is withheld until the
	// checkpoint covering it is durable, so a crash-and-resume never
	// duplicates or loses a committed pattern. The id is the covering
	// checkpoint's (0 for the final end-of-stream batch). OnPattern, by
	// contrast, streams every pattern immediately (at-least-once across
	// crashes).
	OnCommit func(ckptID uint64, pats []model.Pattern)
	// PatternStore, when set, receives every emitted pattern (the sink
	// feeds the queryable index applications read).
	PatternStore *patstore.Store
	// PatternRetention bounds PatternStore on long runs: patterns whose
	// witnesses end more than PatternRetention ticks behind the sink
	// watermark are evicted (0 = keep everything).
	PatternRetention model.Tick

	// Obs, when set, receives the run's exported metrics: per-stage
	// throughput and busy time, per-edge queue depth and backpressure,
	// watermark lag, checkpoint stats, latency summaries (see
	// ARCHITECTURE.md's metric catalog). Pure deployment knob: never
	// fingerprinted, so it can be added or dropped across a resume.
	Obs *obs.Registry
	// Events, when set, receives the structured event log (JSON lines):
	// checkpoint begin/complete, restore, rescale, compaction. Pure
	// deployment knob like Obs. A nil log discards events, so call sites
	// need no guards.
	Events *events.Log
}

func (c *Config) fill() error {
	if err := c.Constraints.Validate(); err != nil {
		return err
	}
	if c.Eps <= 0 {
		return fmt.Errorf("core: eps must be positive")
	}
	if c.Cluster == "" {
		c.Cluster = RJC
	}
	if c.Enum == "" {
		c.Enum = FBA
	}
	if c.CellWidth <= 0 {
		c.CellWidth = 4 * c.Eps
	}
	if c.MinPts <= 0 {
		c.MinPts = 10
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = flow.DefaultMaxParallelism
		if c.Parallelism > c.MaxParallelism {
			// Raise the default so Parallelism > 128 keeps working out of
			// the box — but only for uncheckpointed runs. A checkpointed
			// job must pin MaxParallelism explicitly: the derived value
			// would follow Parallelism into the manifest fingerprint, and
			// a later resume at a narrower Parallelism would re-derive a
			// different one and be rejected — silently breaking exactly
			// the rescale this knob exists for.
			if c.CheckpointInterval > 0 {
				return fmt.Errorf(
					"core: parallelism %d exceeds the default max parallelism %d; checkpointed jobs this wide must set MaxParallelism explicitly (it is fixed for the job's lifetime and bounds every future rescale)",
					c.Parallelism, flow.DefaultMaxParallelism)
			}
			c.MaxParallelism = c.Parallelism
		}
	}
	if c.Parallelism > c.MaxParallelism {
		return fmt.Errorf("core: parallelism %d exceeds max parallelism %d",
			c.Parallelism, c.MaxParallelism)
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 2
	}
	if c.SourcePartitions < 0 {
		return fmt.Errorf("core: negative source partitions %d", c.SourcePartitions)
	}
	if c.SourcePartitions > c.MaxParallelism {
		return fmt.Errorf("core: source partitions %d exceed max parallelism %d",
			c.SourcePartitions, c.MaxParallelism)
	}
	if c.SourceSlack < 0 || c.SourceSilence < 0 {
		return fmt.Errorf("core: negative source slack/silence")
	}
	if c.SourcePartitions > 0 && c.SourceSilence == 0 {
		c.SourceSilence = stream.DefaultSilenceTimeout
	}
	if c.Incremental && c.Cluster != RJC {
		return fmt.Errorf("core: incremental mode requires the rjc cluster method (got %q)", c.Cluster)
	}
	c.ExchangeBatch = normalizeBatch(c.ExchangeBatch)
	if c.CheckpointInterval > 0 && c.CheckpointDir == "" && c.CheckpointStore == nil {
		return fmt.Errorf("core: checkpointing needs CheckpointDir or CheckpointStore")
	}
	if c.CheckpointInterval <= 0 {
		if c.Resume {
			return fmt.Errorf("core: Resume requires CheckpointInterval > 0")
		}
		if c.OnCommit != nil {
			return fmt.Errorf("core: OnCommit requires CheckpointInterval > 0")
		}
		if c.CheckpointAsync || c.CheckpointDelta || c.CheckpointPaged {
			return fmt.Errorf("core: CheckpointAsync/Delta/Paged require CheckpointInterval > 0")
		}
	}
	if c.CheckpointCompact < 0 {
		return fmt.Errorf("core: negative CheckpointCompact %d", c.CheckpointCompact)
	}
	if c.CheckpointCompact > 0 && !c.CheckpointDelta {
		return fmt.Errorf("core: CheckpointCompact requires CheckpointDelta (only delta chains compact)")
	}
	return nil
}

// EffectiveExchangeBatch resolves an ExchangeBatch knob value to the batch
// size the pipeline will actually use (0 means the default, negative means
// record-at-a-time). Exposed for instrumentation that reports the batch
// size of a run.
func EffectiveExchangeBatch(b int) int { return normalizeBatch(b) }

// normalizeBatch resolves the ExchangeBatch knob: 0 means the default of
// 32, negative means record-at-a-time.
func normalizeBatch(b int) int {
	switch {
	case b == 0:
		return 32
	case b < 0:
		return 1
	default:
		return b
	}
}

// Metrics aggregates one run's measurements.
type Metrics struct {
	// ClusterLatency is per-snapshot time from ingest to cluster-snapshot
	// completion (the clustering figures 10-11).
	ClusterLatency metrics.Latency
	// CompletionLatency is per-snapshot time from ingest until the
	// enumeration stage has fully consumed the snapshot.
	CompletionLatency metrics.Latency
	// PatternLatency is per-pattern time from the ingest of the snapshot
	// at the pattern's first witness tick to emission — the responsiveness
	// number where FBA beats VBA.
	PatternLatency metrics.Latency
	// AvgClusterSize tracks DBSCAN cluster cardinality (figures 12-13).
	AvgClusterSize metrics.Mean
	// Snapshots and Patterns count stream volume.
	Snapshots int64
	Patterns  int64

	start, end time.Time
	mu         sync.Mutex
}

// Report summarizes the run.
func (m *Metrics) Report() metrics.Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := metrics.Report{
		LatencyMean:    m.CompletionLatency.Mean(),
		LatencyP95:     m.CompletionLatency.Percentile(95),
		AvgClusterSize: m.AvgClusterSize.Value(),
		Snapshots:      m.Snapshots,
		Patterns:       m.Patterns,
	}
	if m.end.After(m.start) && m.Snapshots > 0 {
		r.ThroughputPerSec = float64(m.Snapshots) / m.end.Sub(m.start).Seconds()
	}
	return r
}

// Result is the outcome of a finished pipeline run.
type Result struct {
	Patterns []model.Pattern
	Metrics  *Metrics
	// BAOverflow reports that the exponential baseline skipped windows.
	BAOverflow bool
}

// tickHeap is a min-heap of pushed ticks not yet completion-sampled.
// PushSnapshot feeds it in increasing order (the new tick is already the
// maximum, so the sift is a no-op), but the partitioned record feed
// registers ticks from concurrent, possibly skewed feeders — the heap
// keeps both insert and pop O(log n) where the former sorted slice paid
// an O(n) copy per out-of-order insert.
type tickHeap []model.Tick

func (h *tickHeap) push(t model.Tick) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *tickHeap) pop() model.Tick {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l] < s[min] {
			min = l
		}
		if r < n && s[r] < s[min] {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

// Pipeline is one running ICPE instance.
type Pipeline struct {
	cfg  Config
	fl   *flow.Pipeline
	mets *Metrics
	ck   *ckptRunner // nil when checkpointing is disabled
	// allocStats receives the front-end allocate delta counters and
	// per-shard flush marks (SourcePartitions > 0 only, nil otherwise).
	allocStats *allocate.Stats

	// srcMu serializes PushRecord callers (network front-ends feed from
	// several read loops) and keeps barrier injection atomic with respect
	// to record submission: the records counted before a barrier are
	// exactly the records ahead of it on every source edge.
	srcMu sync.Mutex

	mu       sync.Mutex
	ingest   map[model.Tick]time.Time
	queue    tickHeap // pushed ticks not yet completion-sampled
	patterns []model.Pattern
	overflow bool

	// regTick is the highest tick registered by the record feed (with a
	// "seen" flag); the hot path of registerTick is one atomic load.
	regTick atomic.Int64
	regSeen atomic.Bool

	// Stream-progress marks for the watermark-lag gauges: highest tick
	// pushed at the source and the sink's merged watermark, with "seen"
	// flags so the gauges stay silent until each side has advanced.
	srcTick, sinkTick atomic.Int64
	srcSeen, sinkSeen atomic.Bool
	obsCompletion     *obs.Histogram // nil without Config.Obs
}

// noteSourceTick advances the source-progress mark (monotone max).
func (p *Pipeline) noteSourceTick(t model.Tick) {
	for {
		old := p.srcTick.Load()
		if p.srcSeen.Load() && old >= int64(t) {
			return
		}
		if p.srcTick.CompareAndSwap(old, int64(t)) {
			p.srcSeen.Store(true)
			return
		}
	}
}

// New builds an ICPE pipeline. Call Start, feed snapshots with
// PushSnapshot, then Finish.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:    cfg,
		mets:   &Metrics{},
		ingest: make(map[model.Tick]time.Time),
	}
	if p.cfg.SourcePartitions > 0 {
		p.allocStats = allocate.NewStats(p.cfg.Parallelism)
	}
	g, err := Topology(&p.cfg, Hooks{
		OnCluster:     p.recordCluster,
		OnOverflow:    p.setOverflow,
		AllocStats:    p.allocStats,
		Sink:          p.onSinkRecord,
		SinkWatermark: p.onSinkWatermark,
	})
	if err != nil {
		return nil, err
	}
	if p.cfg.CheckpointInterval > 0 {
		runner, man, err := newCkptRunner(&p.cfg, ckptStages(g))
		if err != nil {
			return nil, err
		}
		p.ck = runner
		g.OnCheckpointState = runner.ack
		g.SinkBarrier = runner.onSinkBarrier
		g.AsyncSnapshots = p.cfg.CheckpointAsync
		g.CkptStats = runner.stats
		if man != nil {
			// RestoreFunc re-slices the blobs onto this run's per-stage
			// parallelism, which may differ from the checkpoint's.
			if g.Restore, err = ckpt.RestoreFunc(runner.store, man, ckptStages(g)); err != nil {
				return nil, err
			}
		}
	}
	if p.fl, err = g.Build(); err != nil {
		return nil, err
	}
	p.setupObs()
	return p, nil
}

// Start launches the pipeline.
func (p *Pipeline) Start() {
	p.mets.mu.Lock()
	p.mets.start = time.Now()
	p.mets.mu.Unlock()
	p.fl.Start()
}

// PushSnapshot feeds one snapshot (ticks must be strictly increasing).
func (p *Pipeline) PushSnapshot(s *model.Snapshot) {
	if p.cfg.SourcePartitions > 0 {
		panic("core: PushSnapshot on a partitioned-source pipeline (feed records with PushRecord)")
	}
	now := time.Now()
	if s.Ingest.IsZero() {
		s.Ingest = now
	}
	p.mu.Lock()
	p.ingest[s.Tick] = s.Ingest
	p.queue.push(s.Tick)
	p.mu.Unlock()
	p.noteSourceTick(s.Tick)
	if p.cfg.Incremental {
		// Constant key: every snapshot routes to the one allocate subtask
		// holding the previous tick's positions.
		p.fl.Submit(0, s)
	} else {
		p.fl.Submit(uint64(s.Tick), s)
	}
	p.fl.SubmitWatermark(s.Tick)
	if p.ck != nil {
		// The barrier rides behind the snapshot's watermark, so the
		// checkpoint cut falls exactly between two ticks of the stream.
		if b, inject := p.ck.afterPush(s.Tick); inject {
			p.injectBarrier(b)
		}
	}
	p.mets.mu.Lock()
	p.mets.Snapshots++
	p.mets.mu.Unlock()
}

// PushRecord feeds one discretized trajectory record into the partitioned
// source layer (requires Config.SourcePartitions > 0): the record is routed
// by its object id to the owning source partition, which tracks last-time
// markers, merges shard coverage into its watermark, and forwards the
// record — still keyed by object id — to the allocate subtask owning that
// key group. Records of one object must be pushed in increasing tick order;
// duplicates and stale ticks are dropped inside the source partition —
// which is also what makes replaying a stream after a resume idempotent.
// Safe for concurrent use (network front-ends feed from several connection
// read loops).
func (p *Pipeline) PushRecord(obj model.ObjectID, loc geo.Point, tick model.Tick) {
	if p.cfg.SourcePartitions <= 0 {
		panic("core: PushRecord needs Config.SourcePartitions > 0 (use PushSnapshot)")
	}
	rec := msg.Rec{
		Object: obj,
		Loc:    loc,
		Tick:   tick,
		Ingest: time.Now(),
	}
	p.noteSourceTick(tick)
	p.registerTick(tick, rec.Ingest)
	if p.ck == nil {
		// No barriers to order against: the endpoint send is itself safe
		// for concurrent producers, so concurrent feeders proceed without
		// serialization (each object's records must still come from one
		// goroutine to preserve its tick order).
		p.fl.Submit(uint64(obj), rec)
		return
	}
	// With checkpointing, the mutex makes the counted record prefix exactly
	// the set ahead of the barrier on every source edge; the barrier goes
	// out first so the cut falls on a tick boundary of an ordered stream.
	p.srcMu.Lock()
	part := stream.PartitionFor(obj, p.cfg.MaxParallelism, p.cfg.SourcePartitions)
	if b, inject := p.ck.beforePushRecord(part, tick); inject {
		p.injectBarrier(b)
	}
	p.fl.Submit(uint64(obj), rec)
	p.srcMu.Unlock()
}

// PushSourceWatermark promises that no further PushRecord will carry a
// tick <= wm (partitioned-source mode). Source partitions force-release
// their pending coverage up to wm and forward the watermark, which keeps
// snapshot release live even for partitions whose shard is empty or
// silent — drivers replaying a tick-ordered stream call it at every tick
// boundary. Records pushed later with tick <= wm are dropped.
func (p *Pipeline) PushSourceWatermark(wm model.Tick) {
	if p.cfg.SourcePartitions <= 0 {
		panic("core: PushSourceWatermark needs Config.SourcePartitions > 0")
	}
	if p.ck == nil {
		p.fl.SubmitWatermark(wm)
		return
	}
	p.srcMu.Lock()
	p.fl.SubmitWatermark(wm)
	p.srcMu.Unlock()
}

// SourcePartitionOf returns the source partition a record of obj routes to
// (requires SourcePartitions > 0). Drivers replaying a deterministic
// stream after a resume pair it with ResumePosition's per-partition record
// counts to skip each shard's already-checkpointed prefix.
func (p *Pipeline) SourcePartitionOf(obj model.ObjectID) int {
	return stream.PartitionFor(obj, p.cfg.MaxParallelism, p.cfg.SourcePartitions)
}

// registerTick does the per-tick driver bookkeeping of the partitioned
// record feed — what PushSnapshot does once per snapshot on the classic
// path: the first record of each tick stamps the tick's ingest instant,
// queues it for completion sampling, and counts one stream snapshot. The
// common case (another record of the tick just registered) is one atomic
// load; records from skewed concurrent feeders fall through to the map
// check, which makes registration exact regardless of interleaving.
func (p *Pipeline) registerTick(tick model.Tick, ingest time.Time) {
	if p.regSeen.Load() && p.regTick.Load() == int64(tick) {
		return
	}
	p.mu.Lock()
	if _, ok := p.ingest[tick]; ok {
		p.mu.Unlock()
		return
	}
	p.ingest[tick] = ingest
	p.queue.push(tick)
	p.mu.Unlock()
	for {
		old := p.regTick.Load()
		if p.regSeen.Load() && old >= int64(tick) {
			break
		}
		if p.regTick.CompareAndSwap(old, int64(tick)) {
			p.regSeen.Store(true)
			break
		}
	}
	p.mets.mu.Lock()
	p.mets.Snapshots++
	p.mets.mu.Unlock()
}

// Finish drains the pipeline and returns the result.
func (p *Pipeline) Finish() Result {
	if p.ck != nil {
		// A final checkpoint ahead of the drain leaves a resumable cut for
		// graceful shutdowns (the barrier precedes the close on every edge).
		if b, inject := p.ck.finalBarrier(); inject {
			p.injectBarrier(b)
		}
	}
	p.fl.Drain()
	if p.cfg.AwaitDrain != nil {
		p.cfg.AwaitDrain()
	}
	if p.ck != nil {
		p.ck.finish()
	}
	p.mets.mu.Lock()
	p.mets.end = time.Now()
	p.mets.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	return Result{
		Patterns:   p.patterns,
		Metrics:    p.mets,
		BAOverflow: p.overflow,
	}
}

// ingestOf returns the ingest time of a tick, if known.
func (p *Pipeline) ingestOf(t model.Tick) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ts, ok := p.ingest[t]
	return ts, ok
}

// recordCluster logs clustering completion for one tick.
func (p *Pipeline) recordCluster(t model.Tick, cs *model.ClusterSnapshot) {
	if ts, ok := p.ingestOf(t); ok {
		p.mets.ClusterLatency.Observe(time.Since(ts))
	}
	if len(cs.Clusters) > 0 {
		p.mets.AvgClusterSize.Observe(cs.AverageClusterSize())
	}
}

// recordCompletion logs full processing of all ticks up to wm. Called from
// multiple enumeration subtasks; the queue guarantees one sample per tick.
// Ingest times stay available for pattern-latency lookups.
func (p *Pipeline) recordCompletion(wm model.Tick) {
	p.mu.Lock()
	var done []time.Time
	var ticks []model.Tick
	for len(p.queue) > 0 && p.queue[0] <= wm {
		t := p.queue.pop()
		if ts, ok := p.ingest[t]; ok {
			done = append(done, ts)
			ticks = append(ticks, t)
		}
	}
	p.mu.Unlock()
	for _, ts := range done {
		d := time.Since(ts)
		p.mets.CompletionLatency.Observe(d)
		if p.obsCompletion != nil {
			p.obsCompletion.Observe(d.Seconds())
		}
	}
	if p.cfg.OnTickComplete != nil {
		for _, t := range ticks {
			p.cfg.OnTickComplete(t)
		}
	}
}

// onSinkRecord receives emitted patterns (already serialized by flow).
func (p *Pipeline) onSinkRecord(data any) {
	pat, ok := data.(model.Pattern)
	if !ok {
		return
	}
	p.mets.mu.Lock()
	p.mets.Patterns++
	p.mets.mu.Unlock()
	if len(pat.Times) > 0 {
		if ts, ok := p.ingestOf(pat.Times[0]); ok {
			p.mets.PatternLatency.Observe(time.Since(ts))
		}
	}
	if p.cfg.OnPattern != nil {
		p.cfg.OnPattern(pat)
	}
	if p.cfg.PatternStore != nil {
		p.cfg.PatternStore.Add(pat)
	}
	if p.ck != nil {
		p.ck.onPattern(pat) // buffered for exactly-once OnCommit release
	}
	if p.cfg.CollectPatterns {
		p.mu.Lock()
		p.patterns = append(p.patterns, pat)
		p.mu.Unlock()
	}
}

// onSinkWatermark receives the merged watermark after the last stage: all
// subtasks have fully consumed every tick up to wm.
func (p *Pipeline) onSinkWatermark(wm model.Tick) {
	p.sinkTick.Store(int64(wm))
	p.sinkSeen.Store(true)
	p.recordCompletion(wm)
	if p.cfg.PatternStore != nil && p.cfg.PatternRetention > 0 {
		// Watermark-driven eviction keeps the store bounded on long runs:
		// anything ending more than the retention window behind wm can no
		// longer be queried by freshness-bound consumers.
		p.cfg.PatternStore.Prune(wm - p.cfg.PatternRetention)
	}
}

// DeliverSink injects one sink record produced by a remote last stage.
// Distributed drivers wire the transport's sink stream here so pattern
// collection, callbacks and latency metrics work exactly as in-process.
func (p *Pipeline) DeliverSink(data any) { p.onSinkRecord(data) }

// DeliverSinkWatermark injects the remote last stage's merged watermark.
func (p *Pipeline) DeliverSinkWatermark(wm model.Tick) { p.onSinkWatermark(wm) }

// StageNames returns the pipeline's stage names in order.
func (p *Pipeline) StageNames() []string { return p.fl.StageNames() }

// StageRecords returns per-stage processed record counts for the stages
// running in this process (benchmark instrumentation).
func (p *Pipeline) StageRecords() []int64 { return p.fl.StageRecords() }

// StageBusy returns per-stage cumulative operator processing time for the
// stages running in this process (benchmark instrumentation).
func (p *Pipeline) StageBusy() []time.Duration { return p.fl.StageBusy() }

// StageSubtaskBusy returns one stage's operator time split by subtask; the
// maximum entry is the stage's serial critical path (see
// flow.Pipeline.StageSubtaskBusy).
func (p *Pipeline) StageSubtaskBusy(stage int) []time.Duration { return p.fl.StageSubtaskBusy(stage) }

// CheckpointStats returns the run's checkpoint observability counters
// (capture vs. encode vs. upload time, bytes per cut, delta/full mix,
// chain length). Zero-valued when checkpointing is disabled.
func (p *Pipeline) CheckpointStats() metrics.CheckpointSnapshot {
	if p.ck == nil {
		return metrics.CheckpointSnapshot{}
	}
	return p.ck.stats.Snapshot()
}

// setOverflow flags BA overflow.
func (p *Pipeline) setOverflow() {
	p.mu.Lock()
	p.overflow = true
	p.mu.Unlock()
}

// RunSnapshots is a convenience: start, push all snapshots, finish.
func RunSnapshots(cfg Config, snaps []*model.Snapshot) (Result, error) {
	p, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	p.Start()
	for _, s := range snaps {
		p.PushSnapshot(s)
	}
	return p.Finish(), nil
}
