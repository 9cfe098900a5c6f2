// Package icpe is a from-scratch Go implementation of ICPE — the real-time
// distributed co-movement pattern detection framework of Chen, Gao, Fang,
// Miao, Jensen and Guo, "Real-time Distributed Co-Movement Pattern
// Detection on Streaming Trajectories", PVLDB 12(10), 2019.
//
// A co-movement pattern CP(M, K, L, G) is a group of at least M objects
// that share a density-based (DBSCAN) cluster for at least K discrete
// timestamps, in consecutive runs of at least L, with gaps of at most G
// between runs. The Detector consumes a stream of GPS records (or
// pre-built snapshots), clusters every snapshot with a GR-index-based
// range join, and enumerates patterns with bit-compressed, candidate-based
// enumeration — all on a pipelined parallel dataflow that stands in for
// the paper's Flink cluster.
//
// # Quick start
//
//	det, err := icpe.New(icpe.Options{
//	    M: 5, K: 180, L: 30, G: 30,
//	    Eps: 10, MinPts: 10,
//	    Interval: time.Second,
//	})
//	...
//	det.Push(icpe.Record{Object: 42, Loc: icpe.Point{X: x, Y: y}, Time: t})
//	...
//	result := det.Close()
//	for _, p := range result.Patterns { fmt.Println(p) }
//
// See the examples directory for runnable end-to-end programs, cmd/bench
// for the runners reproducing the paper's evaluation, and BENCHMARK.json
// for the real-time benchmark.
package icpe

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/stream"
)

// Re-exported domain types. The internal packages define the canonical
// versions; these aliases are the public surface.
type (
	// ObjectID identifies one moving object.
	ObjectID = model.ObjectID
	// Tick is a discretized time index.
	Tick = model.Tick
	// Point is a planar location.
	Point = geo.Point
	// Record is a raw GPS record (object, location, wall-clock time).
	Record = model.Record
	// Snapshot is the set of object locations at one tick.
	Snapshot = model.Snapshot
	// Pattern is a detected co-movement pattern: the object set and the
	// witnessing time sequence.
	Pattern = model.Pattern
	// Metric selects the distance function.
	Metric = geo.Metric
)

// Distance metrics.
const (
	L1   = geo.L1
	L2   = geo.L2
	LInf = geo.LInf
)

// Enumeration methods.
const (
	// MethodFBA (fixed-length bit compression) has the lowest pattern
	// latency; the paper recommends it when throughput suffices.
	MethodFBA = core.FBA
	// MethodVBA (variable-length bit compression) has the highest
	// throughput and reports maximal pattern time sequences.
	MethodVBA = core.VBA
	// MethodBA is the exponential baseline; useful for validation only.
	MethodBA = core.BA
)

// Clustering engines.
const (
	ClusterRJC = core.RJC
	ClusterSRJ = core.SRJ
	ClusterGDC = core.GDC
)

// Options configures a Detector. Zero values get sensible defaults where
// noted; M, K, L, G and Eps are mandatory.
type Options struct {
	// M is the minimum group size (significance), >= 2.
	M int
	// K is the minimum total co-movement duration in ticks.
	K int
	// L is the minimum length of each consecutive run.
	L int
	// G is the maximum gap between consecutive runs.
	G int

	// Eps is the DBSCAN distance threshold.
	Eps float64
	// MinPts is the DBSCAN density threshold (default 10).
	MinPts int
	// Metric is the distance function (default L1, as in the paper).
	Metric Metric
	// CellWidth is the grid cell width lg (default 4*Eps).
	CellWidth float64

	// Interval is the time-discretization width for Push (default 1s).
	Interval time.Duration
	// Origin anchors tick 0 (default: time of the first record).
	Origin time.Time
	// Slack delays snapshot release to absorb out-of-order records, in
	// ticks (default 0).
	Slack int

	// Method selects the enumerator (default MethodFBA).
	Method core.EnumMethod
	// Cluster selects the range-join engine (default ClusterRJC).
	Cluster core.ClusterMethod
	// Parallelism is the per-stage subtask count (default 4). A deployment
	// knob: results are identical at any value, and a checkpointed run may
	// resume at a different one.
	Parallelism int
	// MaxParallelism is the key-group count (default 128): the upper bound
	// on Parallelism and the granularity keyed state is checkpointed at.
	// It must stay fixed for the lifetime of a checkpointed job (it is
	// part of the checkpoint's config fingerprint), while Parallelism may
	// change across CheckpointResume.
	MaxParallelism int
	// SourcePartitions moves ingestion into the dataflow: Push-fed records
	// are routed by object id to this many parallel source partitions
	// (each with its own last-time tracker and coverage watermark) and
	// snapshots are assembled by a keyed stage instead of on the caller's
	// goroutine. 0 keeps the classic host-side assembly. Like
	// MaxParallelism it is part of a checkpointed job's identity and must
	// stay fixed across CheckpointResume; PushSnapshot is unavailable in
	// this mode.
	SourcePartitions int
	// Incremental switches the pipeline to cross-tick delta maintenance:
	// allocate diffs each snapshot against the previous positions, the
	// range join keeps persistent per-cell indexes, and clustering is
	// maintained incrementally — identical results, with per-tick work
	// proportional to how many objects moved rather than to the full
	// population. Requires ClusterRJC and composes with SourcePartitions.
	// Like MaxParallelism it is part of a checkpointed job's identity.
	Incremental bool
	// Nodes simulates a cluster of this many nodes (0 = uncapped).
	Nodes int
	// SlotsPerNode is the per-node slot count (default 2).
	SlotsPerNode int
	// ExchangeBatch is the record batch size on the keyed exchanges between
	// pipeline stages (default 32); negative values ship record-at-a-time.
	// Results are identical either way — batches are sealed on every
	// watermark — only the exchange overhead changes.
	ExchangeBatch int
	// Transport overrides the exchange fabric between pipeline subtasks
	// (default: in-process bounded channels). The transport must provide
	// receivable endpoints for every stage — this Detector runs all stages
	// in the current process. Multi-process deployments (the tcpnet
	// transport, where stages live in other processes) are driven through
	// cmd/icpe's coordinator/worker mode or core.NewDistributed/RunWorker
	// instead.
	Transport flow.Transport

	// CollectPatterns stores all patterns in the final Result (default
	// true; disable for unbounded streams and use OnPattern instead).
	CollectPatterns *bool
	// OnPattern receives each pattern as soon as it is detected.
	OnPattern func(Pattern)

	// CheckpointDir enables aligned-barrier checkpointing of all operator
	// state into this directory; with CheckpointResume set, the detector
	// restores from the latest completed checkpoint and reports the ticks
	// to skip via Detector.ResumeTick. Every checkpoint is a full-state
	// snapshot taken synchronously at the aligned barrier, and the
	// directory keeps the two most recent ones. See ARCHITECTURE.md for
	// the checkpoint cut, recovery sequence, and store layout.
	CheckpointDir string
	// CheckpointInterval is the barrier cadence in snapshots — with
	// SourcePartitions > 0, in stream ticks, which is the same cadence
	// (default 32 when CheckpointDir is set).
	CheckpointInterval int
	// CheckpointResume restores from the latest completed checkpoint in
	// CheckpointDir before processing (fresh start when none exists).
	CheckpointResume bool

	// MetricsAddr, when non-empty, serves Prometheus text-format metrics
	// (/metrics), health endpoints (/healthz, /readyz) and pprof for this
	// detector on the given address (use "127.0.0.1:0" for an ephemeral
	// port and read it back with Detector.MetricsAddr). A pure deployment
	// knob: it affects neither results nor checkpoint identity.
	MetricsAddr string
	// EventLog, when set, receives the structured event log — one JSON
	// object per line (checkpoint cuts/completions, restores, rescales,
	// worker membership). The writer is not closed by Detector.Close.
	EventLog io.Writer
}

// Result summarizes a finished detection run.
type Result struct {
	// Patterns holds the detected patterns (when collection is enabled).
	Patterns []Pattern
	// Stats carries the performance measurements of the run.
	Stats Stats
}

// Stats are the run's performance measurements.
type Stats struct {
	// Snapshots processed and patterns emitted.
	Snapshots, Patterns int64
	// MeanLatency is the average per-snapshot completion latency.
	MeanLatency time.Duration
	// MeanClusterLatency is the clustering share of the latency.
	MeanClusterLatency time.Duration
	// MeanPatternLatency is the average delay from a pattern's first
	// witness tick to its report.
	MeanPatternLatency time.Duration
	// Throughput is snapshots per second.
	Throughput float64
	// AvgClusterSize is the mean DBSCAN cluster cardinality.
	AvgClusterSize float64
}

// Detector is a streaming co-movement pattern detector.
type Detector struct {
	opts     Options
	pipe     *core.Pipeline
	disc     *stream.Discretizer
	asm      *stream.Assembler
	buf      []*model.Snapshot
	now      func() time.Time
	anchored bool
	obsSrv   *obs.Server
}

// New builds and starts a Detector.
func New(opts Options) (*Detector, error) {
	collect := true
	if opts.CollectPatterns != nil {
		collect = *opts.CollectPatterns
	}
	cfg := core.Config{
		Constraints: model.Constraints{
			M: opts.M, K: opts.K, L: opts.L, G: opts.G,
		},
		Eps:              opts.Eps,
		CellWidth:        opts.CellWidth,
		Metric:           opts.Metric,
		MinPts:           opts.MinPts,
		Cluster:          opts.Cluster,
		Enum:             opts.Method,
		Nodes:            opts.Nodes,
		SlotsPerNode:     opts.SlotsPerNode,
		Parallelism:      opts.Parallelism,
		MaxParallelism:   opts.MaxParallelism,
		SourcePartitions: opts.SourcePartitions,
		Incremental:      opts.Incremental,
		ExchangeBatch:    opts.ExchangeBatch,
		Transport:        opts.Transport,
		CollectPatterns:  collect,
		OnPattern:        opts.OnPattern,
	}
	if opts.SourcePartitions > 0 {
		// In partitioned mode the out-of-order slack lives in the source
		// partitions; in classic mode it tunes only the host-side assembler
		// and must stay out of the config (and checkpoint fingerprint).
		cfg.SourceSlack = model.Tick(opts.Slack)
	}
	if opts.CheckpointDir != "" {
		cfg.CheckpointDir = opts.CheckpointDir
		cfg.CheckpointInterval = opts.CheckpointInterval
		if cfg.CheckpointInterval <= 0 {
			cfg.CheckpointInterval = 32
		}
		cfg.Resume = opts.CheckpointResume
	} else if opts.CheckpointResume {
		// Silently starting fresh would make the caller replay its source
		// from the beginning and duplicate all output.
		return nil, fmt.Errorf("icpe: CheckpointResume requires CheckpointDir")
	}
	var obsSrv *obs.Server
	if opts.MetricsAddr != "" {
		cfg.Obs = obs.NewRegistry()
		var err error
		if obsSrv, err = obs.NewServer(opts.MetricsAddr, cfg.Obs); err != nil {
			return nil, fmt.Errorf("icpe: %w", err)
		}
	}
	if opts.EventLog != nil {
		cfg.Events = events.New(opts.EventLog)
	}
	pipe, err := core.New(cfg)
	if err != nil {
		if obsSrv != nil {
			obsSrv.Close()
		}
		return nil, fmt.Errorf("icpe: %w", err)
	}
	d := &Detector{opts: opts, pipe: pipe, now: time.Now, obsSrv: obsSrv}
	interval := opts.Interval
	if interval <= 0 {
		interval = time.Second
	}
	d.anchored = !opts.Origin.IsZero()
	d.disc = stream.NewDiscretizer(opts.Origin, interval)
	if opts.SourcePartitions <= 0 {
		// Classic mode: snapshots are assembled on the caller's goroutine.
		// (With a partitioned source, assembly happens inside the dataflow
		// and the restored source-partition state handles replay dedup.)
		d.asm = stream.NewAssembler()
		d.asm.Slack = model.Tick(opts.Slack)
		if pos, ok := pipe.ResumePosition(); ok {
			// Replayed records at or below the checkpoint cut are dropped;
			// the restored operator state already accounts for them.
			d.asm.ResumeAt(pos.LastTick + 1)
		}
	}
	pipe.Start()
	if d.obsSrv != nil {
		d.obsSrv.SetReady(true)
	}
	return d, nil
}

// MetricsAddr reports the bound address of the metrics server, or "" when
// Options.MetricsAddr was empty. Useful with an ephemeral ":0" port.
func (d *Detector) MetricsAddr() string {
	if d.obsSrv == nil {
		return ""
	}
	return d.obsSrv.Addr()
}

// ResumeTick reports the last tick covered by the checkpoint this
// detector resumed from: sources replaying pre-built snapshots should
// skip ticks at or below it (Push-fed raw records are dropped
// automatically). ok is false when the run did not resume.
func (d *Detector) ResumeTick() (Tick, bool) {
	pos, ok := d.pipe.ResumePosition()
	return pos.LastTick, ok
}

// Push ingests one raw GPS record. Records may arrive out of order within
// the configured slack; duplicates within one tick are dropped.
func (d *Detector) Push(r Record) {
	if !d.anchored {
		// No explicit origin: anchor tick 0 at the first record.
		d.disc = stream.NewDiscretizer(r.Time, d.interval())
		d.anchored = true
	}
	if d.asm == nil {
		// Partitioned source: time discretization happens here (a pure
		// function of the origin and interval); last-time tracking, dedup
		// and assembly run inside the dataflow's source partitions.
		d.pipe.PushRecord(r.Object, r.Loc, d.disc.Tick(r.Time))
		return
	}
	sr, ok := d.disc.Discretize(r, d.now())
	if !ok {
		return
	}
	d.buf = d.asm.Push(sr, d.buf[:0])
	for _, s := range d.buf {
		d.pipe.PushSnapshot(s)
	}
}

func (d *Detector) interval() time.Duration {
	if d.opts.Interval > 0 {
		return d.opts.Interval
	}
	return time.Second
}

// PushSnapshot bypasses discretization and assembly, feeding a pre-built
// snapshot (ticks must increase strictly). Unavailable (panics) with
// SourcePartitions > 0 — records are the unit of partitioned ingestion.
func (d *Detector) PushSnapshot(s *Snapshot) {
	d.pipe.PushSnapshot(s)
}

// Close flushes pending snapshots and all enumerator state, stops the
// pipeline, and returns the result.
func (d *Detector) Close() Result {
	if d.asm != nil {
		for _, s := range d.asm.FlushAll(nil) {
			d.pipe.PushSnapshot(s)
		}
	}
	res := d.pipe.Finish()
	if d.obsSrv != nil {
		// Shut the endpoint down after the drain so a final scrape during
		// Close still sees the pipeline's terminal counters.
		d.obsSrv.SetReady(false)
		d.obsSrv.Close()
		d.obsSrv = nil
	}
	rep := res.Metrics.Report()
	return Result{
		Patterns: res.Patterns,
		Stats: Stats{
			Snapshots:          rep.Snapshots,
			Patterns:           rep.Patterns,
			MeanLatency:        rep.LatencyMean,
			MeanClusterLatency: res.Metrics.ClusterLatency.Mean(),
			MeanPatternLatency: res.Metrics.PatternLatency.Mean(),
			Throughput:         rep.ThroughputPerSec,
			AvgClusterSize:     rep.AvgClusterSize,
		},
	}
}
