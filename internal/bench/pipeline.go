package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/trajio"
	"repro/internal/transport/tcpnet"
)

// StageThroughput is one stage's record volume over a run.
type StageThroughput struct {
	Name          string  `json:"name"`
	Records       int64   `json:"records"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// TransportRun is one transport's measurement of the standard pipeline.
type TransportRun struct {
	Transport       string            `json:"transport"` // "inproc" | "tcp"
	Workers         int               `json:"workers,omitempty"`
	WallSeconds     float64           `json:"wall_seconds"`
	SnapshotsPerSec float64           `json:"snapshots_per_sec"`
	Patterns        int64             `json:"patterns"`
	Stages          []StageThroughput `json:"stages"`
	// ExchangeRecordsPerSec is the total keyed-exchange traffic (every
	// stage-input record crossed one exchange) over the wall clock — the
	// headline number for comparing transports.
	ExchangeRecordsPerSec float64 `json:"exchange_records_per_sec"`
}

// CheckpointRun measures the aligned-barrier checkpointing overhead at one
// interval on the in-process transport: the same workload as the plain
// runs, with barriers injected every Interval snapshots and every operator
// state snapshot written to a local-directory store.
type CheckpointRun struct {
	// Interval is the checkpoint cadence in snapshots (0 rows never appear;
	// the baseline is the plain inproc run).
	Interval int `json:"interval"`
	// Completed is the highest checkpoint id that became durable during
	// the run (aborted or superseded ids may be skipped, so this is an id,
	// not a count).
	Completed       uint64  `json:"completed"`
	WallSeconds     float64 `json:"wall_seconds"`
	SnapshotsPerSec float64 `json:"snapshots_per_sec"`
	// OverheadPct is the wall-clock overhead relative to a paired,
	// interleaved plain in-process baseline ((wall/baseline - 1) * 100),
	// minimum-wall sample on both sides.
	OverheadPct float64 `json:"overhead_pct"`
	// Patterns counts the exactly-once committed patterns. Equal across
	// every row at every interval, or checkpointing altered results.
	Patterns int64 `json:"patterns"`
	// Cumulative milliseconds over the run: Capture is operator state
	// capture, Encode is blob assembly (both inside the barrier handler),
	// Upload is store persistence.
	CaptureMs float64 `json:"capture_ms"`
	EncodeMs  float64 `json:"encode_ms"`
	UploadMs  float64 `json:"upload_ms"`
	// StateBytes is the total checkpoint bytes persisted over the run;
	// BytesPerCut divides it by the completed cuts.
	StateBytes  int64   `json:"state_bytes"`
	BytesPerCut float64 `json:"bytes_per_cut"`
	// FullCuts counts completed checkpoints.
	FullCuts int64 `json:"full_cuts"`
}

// RescaleRun measures one elastic rescale-from-checkpoint: a run at
// FromParallelism checkpoints half the stream and shuts down gracefully,
// then a fresh pipeline resumes the same job at ToParallelism (the
// checkpointed key-group state re-sliced across the new subtask count)
// and finishes the stream.
type RescaleRun struct {
	FromParallelism int `json:"from_parallelism"`
	ToParallelism   int `json:"to_parallelism"`
	// RestoreSeconds is the rescale-specific cost: loading the manifest
	// and state, resharding every key-group blob onto the new
	// parallelism, and constructing the resumed pipeline.
	RestoreSeconds float64 `json:"restore_seconds"`
	// ResumeWallSeconds is the wall clock of the resumed half of the
	// stream (processing only; restore excluded).
	ResumeWallSeconds float64 `json:"resume_wall_seconds"`
	// Patterns counts the patterns committed across both halves — equal
	// for the p->2p and 2p->p rows, or the rescale is broken.
	Patterns int `json:"patterns"`
}

// IngestRun measures the partitioned source layer at one partition count:
// the dataset flattened into individual records and pushed through
// PushRecord into the source shards feeding allocate directly, in-process.
// The 1-partition row is the scaling baseline; Patterns must be equal on
// every row (and to the snapshot-fed runs) or the source layer is broken.
type IngestRun struct {
	SourcePartitions int     `json:"source_partitions"`
	Records          int64   `json:"records"`
	WallSeconds      float64 `json:"wall_seconds"`
	RecordsPerSec    float64 `json:"records_per_sec"`
	Patterns         int64   `json:"patterns"`
}

// FrontEndScale sizes the front-end scaling workload: enough objects per
// tick (~10k) that the allocate diff dominates each tick's work, with a
// short stream so the parallelism sweep stays bounded.
var FrontEndScale = Scale{Objects: 10000, Ticks: 40}

// FrontEndRun is one partitioned-front-end measurement: the dataset fed
// as individual records with SourcePartitions == Parallelism, in classic
// (per-tick cell tasks) or incremental (cell deltas) mode.
type FrontEndRun struct {
	Mode        string  `json:"mode"` // "classic" | "incremental"
	Parallelism int     `json:"parallelism"`
	Records     int64   `json:"records"`
	WallSeconds float64 `json:"wall_seconds"`
	// AllocateCriticalSeconds is the busiest allocate subtask's operator
	// time — the stage's serial critical path, which sharding shrinks
	// even when the host has too few cores for wall-clock parallelism.
	AllocateCriticalSeconds float64 `json:"allocate_critical_seconds"`
	// AllocateRecordsPerSec divides the stage's input records by that
	// critical path: the allocate stage's throughput capacity.
	AllocateRecordsPerSec float64 `json:"allocate_records_per_sec"`
	Patterns              int64   `json:"patterns"`
}

// FrontEndReport is the partitioned front end's scaling and equivalence
// section: allocate-stage throughput at parallelism 1/2/4 in both modes,
// every row's pattern output checked byte-for-byte against the
// snapshot-path oracle (the bench hard-fails on any mismatch, so a
// written report implies every check passed), plus the same equality
// over TCP workers and across a kill at one parallelism resumed at
// another.
type FrontEndReport struct {
	Objects        int           `json:"objects"`
	Ticks          int           `json:"ticks"`
	OraclePatterns int64         `json:"oracle_patterns"`
	Runs           []FrontEndRun `json:"runs"`
	// *Speedup1To4 is allocate-stage throughput at parallelism 4 over
	// parallelism 1 (per mode).
	ClassicSpeedup1To4     float64 `json:"classic_allocate_speedup_1_to_4"`
	IncrementalSpeedup1To4 float64 `json:"incremental_allocate_speedup_1_to_4"`
	// TCPPatternsMatch: classic and incremental runs over real TCP
	// workers matched the oracle. ResumePatternsMatch: a run killed at
	// parallelism 4 (after a durable checkpoint, no graceful drain) and
	// resumed at parallelism 2 committed exactly the oracle's patterns
	// across both halves.
	TCPPatternsMatch    bool `json:"tcp_patterns_match"`
	ResumePatternsMatch bool `json:"resume_patterns_match"`
}

// IncrementalRun compares the from-scratch and incremental (delta
// maintenance) execution modes on one fixed-churn workload, clustering
// only (NoEnum) so the measured work is exactly the allocate + rangejoin +
// cluster stages both modes share. Snapshots/sec is end-to-end over those
// stages; the Stage numbers divide the ticks by the operator time the
// rangejoin + cluster stages actually accrued (flow.Pipeline.StageBusy),
// which is where delta maintenance replaces per-tick recomputation —
// end-to-end rates dilute that with source/allocate/exchange costs the two
// modes share. Speedups are incremental over from-scratch.
type IncrementalRun struct {
	// MoveFraction of the objects moves each tick (0.1 / 0.5 / 1.0).
	MoveFraction float64 `json:"move_fraction"`
	// ScratchSnapshotsPerSec is the from-scratch (classic) mode rate.
	ScratchSnapshotsPerSec float64 `json:"from_scratch_snapshots_per_sec"`
	// IncrementalSnapshotsPerSec is the delta-maintenance mode rate.
	IncrementalSnapshotsPerSec float64 `json:"incremental_snapshots_per_sec"`
	Speedup                    float64 `json:"speedup"`
	// ScratchStageSnapshotsPerSec is ticks per second of combined
	// rangejoin + cluster operator time, from scratch.
	ScratchStageSnapshotsPerSec float64 `json:"from_scratch_stage_snapshots_per_sec"`
	// IncrementalStageSnapshotsPerSec is the same rate under delta
	// maintenance.
	IncrementalStageSnapshotsPerSec float64 `json:"incremental_stage_snapshots_per_sec"`
	// StageSpeedup is the combined rangejoin + cluster stage throughput
	// ratio, incremental over from-scratch.
	StageSpeedup float64 `json:"stage_speedup"`
	// AvgClusterSize sanity-checks that the workload clusters at all (both
	// modes; they are verified equal elsewhere, the bench just reports it).
	AvgClusterSize float64 `json:"avg_cluster_size"`
}

// ObservabilityRun measures the cost of the metrics layer on the
// in-process pipeline at one instrumentation level: "off" (no registry),
// "on" (full driver-side instrumentation, nobody scraping), and
// "on_scraped_1hz" (instrumented plus a concurrent goroutine rendering
// the full text exposition once a second — a live Prometheus scrape).
// The budget is 3%: instrumentation lives on gather hooks, so the
// per-record hot path pays nothing and overhead must stay in the noise.
type ObservabilityRun struct {
	Mode            string  `json:"mode"`
	WallSeconds     float64 `json:"wall_seconds"`
	SnapshotsPerSec float64 `json:"snapshots_per_sec"`
	// OverheadPct is wall-clock overhead vs the interleaved "off" baseline
	// (minimum-wall sample on both sides, like the checkpoint rows).
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

// PipelineReport is the machine-readable output of `bench -exp pipeline`
// (written to BENCH_pipeline.json by `make bench-json`): the same seeded
// workload pushed through the standard topology on the in-process and the
// multi-process TCP transports, plus checkpoint-enabled variants at
// increasing intervals (overhead vs interval) and rescale-from-checkpoint
// rows (restore time at p->2p and 2p->p).
type PipelineReport struct {
	Dataset       string             `json:"dataset"`
	Objects       int                `json:"objects"`
	Ticks         int                `json:"ticks"`
	Seed          int64              `json:"seed"`
	Parallelism   int                `json:"parallelism"`
	ExchangeBatch int                `json:"exchange_batch"`
	Runs          []TransportRun     `json:"runs"`
	Checkpoint    []CheckpointRun    `json:"checkpoint,omitempty"`
	Rescale       []RescaleRun       `json:"rescale,omitempty"`
	Ingest        []IngestRun        `json:"ingest,omitempty"`
	FrontEnd      *FrontEndReport    `json:"front_end,omitempty"`
	Incremental   []IncrementalRun   `json:"incremental,omitempty"`
	Observability []ObservabilityRun `json:"observability,omitempty"`
}

// admit bounds in-flight snapshots exactly like runOnce, so the two
// transports are compared at equal queueing depth.
func admit(cfg *core.Config) chan struct{} {
	tokens := make(chan struct{}, 32)
	cfg.OnTickComplete = func(model.Tick) { <-tokens }
	return tokens
}

func feedAll(pipe *core.Pipeline, d Dataset, tokens chan struct{}) {
	for _, s := range d.Snapshots {
		tokens <- struct{}{}
		c := s.Clone()
		c.Ingest = time.Time{}
		pipe.PushSnapshot(c)
	}
}

func stageRows(names []string, recs []int64, wall time.Duration) ([]StageThroughput, float64) {
	rows := make([]StageThroughput, len(names))
	var total int64
	for i, name := range names {
		rows[i] = StageThroughput{Name: name, Records: recs[i]}
		if wall > 0 {
			rows[i].RecordsPerSec = float64(recs[i]) / wall.Seconds()
		}
		total += recs[i]
	}
	perSec := 0.0
	if wall > 0 {
		perSec = float64(total) / wall.Seconds()
	}
	return rows, perSec
}

// runPipelineInproc measures the single-process channel transport: the
// minimum-wall sample of five, under the same drained-writeback protocol
// as the checkpoint runs. Scheduling and I/O noise on a shared box is
// strictly additive, so the minimum is the consistent estimator of the
// deterministic cost — and this wall is the denominator of every
// checkpoint overhead percentage, where a single unlucky sample skews
// the whole section (negative overheads were observed with a one-shot
// baseline).
func runPipelineInproc(d Dataset, cfg core.Config) (TransportRun, error) {
	const samples = 5
	runs := make([]TransportRun, 0, samples)
	for i := 0; i < samples; i++ {
		syscall.Sync()
		run, err := runPipelineInprocOnce(d, cfg)
		if err != nil {
			return TransportRun{}, err
		}
		runs = append(runs, run)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].WallSeconds < runs[j].WallSeconds })
	return runs[0], nil
}

func runPipelineInprocOnce(d Dataset, cfg core.Config) (TransportRun, error) {
	tokens := admit(&cfg)
	pipe, err := core.New(cfg)
	if err != nil {
		return TransportRun{}, err
	}
	start := time.Now()
	pipe.Start()
	feedAll(pipe, d, tokens)
	res := pipe.Finish()
	wall := time.Since(start)
	stages, exch := stageRows(pipe.StageNames(), pipe.StageRecords(), wall)
	rep := res.Metrics.Report()
	return TransportRun{
		Transport:             "inproc",
		WallSeconds:           wall.Seconds(),
		SnapshotsPerSec:       rep.ThroughputPerSec,
		Patterns:              rep.Patterns,
		Stages:                stages,
		ExchangeRecordsPerSec: exch,
	}, nil
}

// runPipelineTCP measures the multi-process TCP transport: a coordinator
// plus `workers` worker nodes on loopback, every stage input crossing a
// real socket (round-robin placement).
func runPipelineTCP(d Dataset, cfg core.Config, workers int) (TransportRun, error) {
	coord, err := tcpnet.NewCoordinator("127.0.0.1:0", workers)
	if err != nil {
		return TransportRun{}, err
	}
	defer coord.Close()

	var (
		wg      sync.WaitGroup
		statsMu sync.Mutex
		stats   []core.WorkerStats
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := core.RunWorker(coord.Addr())
			if err != nil {
				// Fail fast, like the transport itself: a worker lost
				// mid-run cannot be recovered, and the coordinator side
				// would panic (AwaitDrain) or block before any graceful
				// error return here could be observed.
				panic(fmt.Sprintf("bench: worker: %v", err))
			}
			statsMu.Lock()
			defer statsMu.Unlock()
			stats = append(stats, st)
		}()
	}
	tokens := admit(&cfg)
	pipe, err := core.NewDistributed(cfg, coord)
	if err != nil {
		return TransportRun{}, err
	}
	start := time.Now()
	pipe.Start()
	feedAll(pipe, d, tokens)
	res := pipe.Finish()
	wall := time.Since(start)
	wg.Wait()

	// Merge per-worker counters into one per-stage view.
	names := pipe.StageNames()
	recs := make([]int64, len(names))
	for _, st := range stats {
		if len(st.Records) != len(recs) {
			return TransportRun{}, fmt.Errorf("bench: worker reported %d stages, want %d",
				len(st.Records), len(recs))
		}
		for i, r := range st.Records {
			recs[i] += r
		}
	}
	stages, exch := stageRows(names, recs, wall)
	rep := res.Metrics.Report()
	return TransportRun{
		Transport:             "tcp",
		Workers:               workers,
		WallSeconds:           wall.Seconds(),
		SnapshotsPerSec:       rep.ThroughputPerSec,
		Patterns:              rep.Patterns,
		Stages:                stages,
		ExchangeRecordsPerSec: exch,
	}, nil
}

// runPipelineCkpt measures one checkpoint-enabled in-process run
// (the interval comes in on cfg) against a PAIRED
// baseline: samples alternate baseline / checkpointed, each from drained
// writeback, and the overhead is min-vs-min. Interleaving is what makes
// the percentage trustworthy on a shared box — load drifts over the
// minutes a bench invocation takes, so a baseline measured once up front
// skews every later comparison (negative overheads were observed); the
// minimum is the right per-side estimator because scheduling and I/O
// noise is strictly additive. The reported row is the minimum-wall
// checkpointed sample's.
func runPipelineCkpt(d Dataset, cfg core.Config, interval int) (CheckpointRun, error) {
	const samples = 5
	base := cfg
	base.CheckpointDir = ""
	base.CheckpointInterval = 0
	cfg.CheckpointInterval = interval
	baseWall := 0.0
	runs := make([]CheckpointRun, 0, samples)
	for i := 0; i < samples; i++ {
		syscall.Sync()
		bl, err := runPipelineInprocOnce(d, base)
		if err != nil {
			return CheckpointRun{}, err
		}
		if baseWall == 0 || bl.WallSeconds < baseWall {
			baseWall = bl.WallSeconds
		}
		syscall.Sync()
		run, err := runPipelineCkptOnce(d, cfg, interval)
		if err != nil {
			return CheckpointRun{}, err
		}
		runs = append(runs, run)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].WallSeconds < runs[j].WallSeconds })
	for _, r := range runs {
		if r.Patterns != runs[0].Patterns {
			return CheckpointRun{}, fmt.Errorf("bench: ckpt interval %d: committed patterns differ across samples (%d vs %d)",
				interval, r.Patterns, runs[0].Patterns)
		}
	}
	run := runs[0]
	if baseWall > 0 {
		run.OverheadPct = (run.WallSeconds/baseWall - 1) * 100
	}
	return run, nil
}

func runPipelineCkptOnce(d Dataset, cfg core.Config, interval int) (CheckpointRun, error) {
	dir, err := os.MkdirTemp("", "icpe-bench-ckpt-")
	if err != nil {
		return CheckpointRun{}, err
	}
	defer os.RemoveAll(dir)
	cfg.CheckpointDir = dir
	var patterns int64
	cfg.OnCommit = func(_ uint64, pats []model.Pattern) { patterns += int64(len(pats)) }
	tokens := admit(&cfg)
	pipe, err := core.New(cfg)
	if err != nil {
		return CheckpointRun{}, err
	}
	start := time.Now()
	pipe.Start()
	feedAll(pipe, d, tokens)
	res := pipe.Finish()
	wall := time.Since(start)
	ck := pipe.CheckpointStats()
	store, err := ckpt.NewDirStore(dir)
	if err != nil {
		return CheckpointRun{}, err
	}
	man, err := store.Latest()
	if err != nil {
		return CheckpointRun{}, err
	}
	run := CheckpointRun{
		Interval:        interval,
		WallSeconds:     wall.Seconds(),
		SnapshotsPerSec: res.Metrics.Report().ThroughputPerSec,
		Patterns:        patterns,
		CaptureMs:       float64(ck.Capture) / float64(time.Millisecond),
		EncodeMs:        float64(ck.Encode) / float64(time.Millisecond),
		UploadMs:        float64(ck.Upload) / float64(time.Millisecond),
		StateBytes:      ck.Bytes,
		FullCuts:        ck.FullCuts,
	}
	if ck.FullCuts > 0 {
		run.BytesPerCut = float64(ck.Bytes) / float64(ck.FullCuts)
	}
	if man != nil {
		run.Completed = man.ID
	}
	return run, nil
}

// runPipelineObs measures the observability overhead: the three
// instrumentation modes sampled interleaved (off / on / on+scrape per
// round, minimum wall per mode over the rounds), so load drift on a
// shared box cannot masquerade as instrumentation cost.
func runPipelineObs(d Dataset, cfg core.Config) ([]ObservabilityRun, error) {
	const samples = 5
	modes := []string{"off", "on", "on_scraped_1hz"}
	best := make(map[string]TransportRun, len(modes))
	for i := 0; i < samples; i++ {
		for _, mode := range modes {
			syscall.Sync()
			run, err := runPipelineObsOnce(d, cfg, mode)
			if err != nil {
				return nil, err
			}
			if b, ok := best[mode]; !ok || run.WallSeconds < b.WallSeconds {
				best[mode] = run
			}
		}
	}
	base := best["off"].WallSeconds
	out := make([]ObservabilityRun, 0, len(modes))
	for _, mode := range modes {
		r := best[mode]
		or := ObservabilityRun{
			Mode:            mode,
			WallSeconds:     r.WallSeconds,
			SnapshotsPerSec: r.SnapshotsPerSec,
		}
		if mode != "off" && base > 0 {
			or.OverheadPct = (r.WallSeconds/base - 1) * 100
		}
		out = append(out, or)
	}
	return out, nil
}

func runPipelineObsOnce(d Dataset, cfg core.Config, mode string) (TransportRun, error) {
	if mode != "off" {
		// A fresh registry per run: gather hooks capture the pipeline they
		// instrument, so reusing one would keep dead pipelines reachable.
		cfg.Obs = obs.NewRegistry()
	}
	var stop chan struct{}
	var wg sync.WaitGroup
	if mode == "on_scraped_1hz" {
		stop = make(chan struct{})
		reg := cfg.Obs
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				_ = reg.WritePrometheus(io.Discard)
				select {
				case <-t.C:
				case <-stop:
					return
				}
			}
		}()
	}
	run, err := runPipelineInprocOnce(d, cfg)
	if stop != nil {
		close(stop)
		wg.Wait()
	}
	return run, err
}

// runPipelineRescale checkpoints half the stream at fromPar, resumes at
// toPar from the final graceful checkpoint, and times the restore (load +
// key-group reshard + build) separately from the resumed processing.
func runPipelineRescale(d Dataset, cfg core.Config, fromPar, toPar int) (RescaleRun, error) {
	dir, err := os.MkdirTemp("", "icpe-bench-rescale-")
	if err != nil {
		return RescaleRun{}, err
	}
	defer os.RemoveAll(dir)
	half := len(d.Snapshots) / 2

	patterns := 0
	cfg.CheckpointInterval = 16
	cfg.CheckpointDir = dir
	cfg.OnCommit = func(_ uint64, pats []model.Pattern) { patterns += len(pats) }

	first := cfg
	first.Parallelism = fromPar
	tokens := admit(&first)
	pipe, err := core.New(first)
	if err != nil {
		return RescaleRun{}, err
	}
	pipe.Start()
	for _, s := range d.Snapshots[:half] {
		tokens <- struct{}{}
		c := s.Clone()
		c.Ingest = time.Time{}
		pipe.PushSnapshot(c)
	}
	pipe.Finish() // graceful: takes a final checkpoint covering the prefix

	second := cfg
	second.Parallelism = toPar
	second.Resume = true
	tokens = admit(&second)
	restoreStart := time.Now()
	resumed, err := core.New(second)
	if err != nil {
		return RescaleRun{}, err
	}
	restore := time.Since(restoreStart)
	pos, ok := resumed.ResumePosition()
	if !ok {
		return RescaleRun{}, fmt.Errorf("bench: rescale %d->%d: no resume position", fromPar, toPar)
	}
	start := time.Now()
	resumed.Start()
	for _, s := range d.Snapshots {
		if s.Tick <= pos.LastTick {
			continue
		}
		tokens <- struct{}{}
		c := s.Clone()
		c.Ingest = time.Time{}
		resumed.PushSnapshot(c)
	}
	resumed.Finish()
	return RescaleRun{
		FromParallelism:   fromPar,
		ToParallelism:     toPar,
		RestoreSeconds:    restore.Seconds(),
		ResumeWallSeconds: time.Since(start).Seconds(),
		Patterns:          patterns,
	}, nil
}

// feedRecords pushes the snapshots as individual records. Concurrent
// feeders emulate parallel publishers: each owns a stripe of a tick's
// records (so per-object tick order holds) and the tick barrier bounds
// the skew, exactly like rate-paced sensor gateways. Each tick boundary
// publishes a source watermark so release stays live even for partitions
// with no objects that tick.
func feedRecords(pipe *core.Pipeline, snaps []*model.Snapshot, tokens chan struct{}) int64 {
	const feeders = 4
	var records int64
	for _, s := range snaps {
		tokens <- struct{}{}
		var wg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for i := f; i < len(s.Objects); i += feeders {
					pipe.PushRecord(s.Objects[i], s.Locs[i], s.Tick)
				}
			}(f)
		}
		wg.Wait()
		records += int64(len(s.Objects))
		pipe.PushSourceWatermark(s.Tick)
	}
	return records
}

// runPipelineIngest measures the ingest path at one source-partition
// count: every record of the dataset pushed individually through the
// partitioned source layer.
func runPipelineIngest(d Dataset, cfg core.Config, parts int) (IngestRun, error) {
	cfg.SourcePartitions = parts
	var patterns int64
	cfg.OnPattern = func(model.Pattern) { patterns++ }
	tokens := admit(&cfg)
	pipe, err := core.New(cfg)
	if err != nil {
		return IngestRun{}, err
	}
	start := time.Now()
	pipe.Start()
	records := feedRecords(pipe, d.Snapshots, tokens)
	pipe.Finish()
	wall := time.Since(start)
	run := IngestRun{
		SourcePartitions: parts,
		Records:          records,
		WallSeconds:      wall.Seconds(),
		Patterns:         patterns,
	}
	if wall > 0 {
		run.RecordsPerSec = float64(records) / wall.Seconds()
	}
	return run, nil
}

// canonPatterns renders patterns in their canonical byte form (sorted,
// CSV) for exact cross-run equality checks.
func canonPatterns(ps []model.Pattern) ([]byte, error) {
	enum.SortPatterns(ps)
	var buf bytes.Buffer
	if err := trajio.WritePatternsCSV(&buf, ps); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runPipelineFrontEndOnce runs the partitioned front end at one (mode,
// parallelism) and returns the measurement plus the canonical pattern
// bytes for the oracle check.
func runPipelineFrontEndOnce(d Dataset, cfg core.Config, par int, incremental bool) (FrontEndRun, []byte, error) {
	cfg.SourcePartitions = par
	cfg.Parallelism = par
	cfg.Incremental = incremental
	cfg.CollectPatterns = true
	tokens := admit(&cfg)
	pipe, err := core.New(cfg)
	if err != nil {
		return FrontEndRun{}, nil, err
	}
	start := time.Now()
	pipe.Start()
	records := feedRecords(pipe, d.Snapshots, tokens)
	res := pipe.Finish()
	wall := time.Since(start)
	alloc := -1
	for i, n := range pipe.StageNames() {
		if n == "allocate" {
			alloc = i
		}
	}
	if alloc < 0 {
		return FrontEndRun{}, nil, fmt.Errorf("bench: front end: no allocate stage in %v", pipe.StageNames())
	}
	var crit time.Duration
	for _, b := range pipe.StageSubtaskBusy(alloc) {
		if b > crit {
			crit = b
		}
	}
	mode := "classic"
	if incremental {
		mode = "incremental"
	}
	run := FrontEndRun{
		Mode:                    mode,
		Parallelism:             par,
		Records:                 records,
		WallSeconds:             wall.Seconds(),
		AllocateCriticalSeconds: crit.Seconds(),
		Patterns:                int64(len(res.Patterns)),
	}
	if crit > 0 {
		run.AllocateRecordsPerSec = float64(records) / crit.Seconds()
	}
	canon, err := canonPatterns(res.Patterns)
	return run, canon, err
}

// runPipelineFrontEndTCP runs the partitioned front end over real TCP
// workers and returns the canonical pattern bytes.
func runPipelineFrontEndTCP(d Dataset, cfg core.Config, par, workers int, incremental bool) ([]byte, error) {
	cfg.SourcePartitions = par
	cfg.Parallelism = par
	cfg.Incremental = incremental
	cfg.CollectPatterns = true
	coord, err := tcpnet.NewCoordinator("127.0.0.1:0", workers)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := core.RunWorker(coord.Addr()); err != nil {
				panic(fmt.Sprintf("bench: front-end worker: %v", err))
			}
		}()
	}
	tokens := admit(&cfg)
	pipe, err := core.NewDistributed(cfg, coord)
	if err != nil {
		return nil, err
	}
	pipe.Start()
	feedRecords(pipe, d.Snapshots, tokens)
	res := pipe.Finish()
	wg.Wait()
	return canonPatterns(res.Patterns)
}

// runPipelineFrontEndResume kills a checkpointing partitioned run at
// fromPar (abandoned with no graceful drain once a checkpoint is durable
// and the commit queue has quiesced) and resumes it at toPar, replaying
// the full record stream (the restored source shards drop the absorbed
// prefix). It returns the canonical bytes of the patterns committed
// across both halves — the exactly-once guarantee says they must equal
// an uninterrupted run's output.
func runPipelineFrontEndResume(d Dataset, cfg core.Config, parts, fromPar, toPar int, incremental bool) ([]byte, error) {
	dir, err := os.MkdirTemp("", "icpe-bench-frontend-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	crashTick := len(d.Snapshots) * 2 / 3

	base := cfg
	base.SourcePartitions = parts
	base.Incremental = incremental
	base.CheckpointInterval = 8
	base.CheckpointDir = dir
	var mu sync.Mutex
	var committed []model.Pattern
	var commits int
	base.OnCommit = func(_ uint64, ps []model.Pattern) {
		mu.Lock()
		committed = append(committed, ps...)
		commits++
		mu.Unlock()
	}

	first := base
	first.Parallelism = fromPar
	tokens := admit(&first)
	crashy, err := core.New(first)
	if err != nil {
		return nil, err
	}
	crashy.Start()
	feedRecords(crashy, d.Snapshots[:crashTick], tokens)
	// Wait for a durable checkpoint and a quiescent commit queue: with the
	// feed stopped no new barriers enter the pipeline, so once the store
	// manifest and the commit count stop moving, every in-flight cut has
	// landed and the resumed run cannot double-commit a racing cut.
	store, err := ckpt.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	var lastID uint64
	lastC := -1
	stable := 0
	for deadline := time.Now().Add(30 * time.Second); stable < 3; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: front-end resume: no durable checkpoint before crash point")
		}
		time.Sleep(100 * time.Millisecond)
		man, err := store.Latest()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		c := commits
		mu.Unlock()
		if man != nil && man.ID >= 1 && man.ID == lastID && c == lastC {
			stable++
		} else {
			stable = 0
		}
		if man != nil {
			lastID = man.ID
		}
		lastC = c
	}
	// Crash: abandon the pipeline without draining it.

	second := base
	second.Parallelism = toPar
	second.Resume = true
	tokens = admit(&second)
	resumed, err := core.New(second)
	if err != nil {
		return nil, err
	}
	resumed.Start()
	feedRecords(resumed, d.Snapshots, tokens)
	resumed.Finish()

	mu.Lock()
	defer mu.Unlock()
	return canonPatterns(committed)
}

// runPipelineFrontEnd builds the front_end section: the allocate-stage
// scaling sweep (parallelism 1/2/4, classic and incremental, minimum
// critical path over samples) with every run's pattern output checked
// against the snapshot-path oracle, then the TCP and kill-resume
// equivalence checks.
func runPipelineFrontEnd(seed int64, sc Scale) (*FrontEndReport, error) {
	d := MakeDataset("planted", seed, sc)
	p := DefaultParams()
	cfg := d.config(p, core.RJC, core.FBA)

	ocfg := cfg
	ocfg.CollectPatterns = true
	oracleRes, err := core.RunSnapshots(ocfg, cloneSnapshots(d.Snapshots))
	if err != nil {
		return nil, err
	}
	if len(oracleRes.Patterns) == 0 {
		return nil, fmt.Errorf("bench: front end: snapshot-path oracle found no patterns; weak check")
	}
	oracle, err := canonPatterns(oracleRes.Patterns)
	if err != nil {
		return nil, err
	}
	rep := &FrontEndReport{
		Objects:        d.Objects,
		Ticks:          len(d.Snapshots),
		OraclePatterns: int64(len(oracleRes.Patterns)),
	}

	const samples = 3
	rate := map[string]float64{}
	for _, incremental := range []bool{false, true} {
		for _, par := range []int{1, 2, 4} {
			var best FrontEndRun
			for i := 0; i < samples; i++ {
				syscall.Sync()
				run, canon, err := runPipelineFrontEndOnce(d, cfg, par, incremental)
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(canon, oracle) {
					return nil, fmt.Errorf("bench: front end %s parallelism %d: %d patterns differ from snapshot-path oracle's %d",
						run.Mode, par, run.Patterns, rep.OraclePatterns)
				}
				if i == 0 || run.AllocateCriticalSeconds < best.AllocateCriticalSeconds {
					best = run
				}
			}
			rep.Runs = append(rep.Runs, best)
			rate[fmt.Sprintf("%s/%d", best.Mode, par)] = best.AllocateRecordsPerSec
		}
	}
	if r1 := rate["classic/1"]; r1 > 0 {
		rep.ClassicSpeedup1To4 = rate["classic/4"] / r1
	}
	if r1 := rate["incremental/1"]; r1 > 0 {
		rep.IncrementalSpeedup1To4 = rate["incremental/4"] / r1
	}

	for _, incremental := range []bool{false, true} {
		canon, err := runPipelineFrontEndTCP(d, cfg, 2, 2, incremental)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(canon, oracle) {
			return nil, fmt.Errorf("bench: front end tcp (incremental=%v): patterns differ from snapshot-path oracle", incremental)
		}
	}
	rep.TCPPatternsMatch = true

	canon, err := runPipelineFrontEndResume(d, cfg, 4, 4, 2, true)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(canon, oracle) {
		return nil, fmt.Errorf("bench: front end kill-resume 4->2: committed patterns differ from snapshot-path oracle")
	}
	rep.ResumePatternsMatch = true
	return rep, nil
}

// cloneSnapshots deep-copies the dataset for a consuming run (PushSnapshot
// takes ownership).
func cloneSnapshots(snaps []*model.Snapshot) []*model.Snapshot {
	out := make([]*model.Snapshot, len(snaps))
	for i, s := range snaps {
		c := s.Clone()
		c.Ingest = time.Time{}
		out[i] = c
	}
	return out
}

// runPipelineIncremental measures one churn level in both execution
// modes: the same fixed-churn dataset streamed through the clustering
// pipeline (NoEnum) from scratch and with delta maintenance.
func runPipelineIncremental(seed int64, sc Scale, p Params, moveFraction float64) (IncrementalRun, error) {
	// Step size = the workload's eps (0.06% of the extent-2000 world), so
	// moves actually make and break pairs.
	d := MakeChurnDataset(seed, sc, moveFraction, 2000*p.EpsPct/100/4)
	base := d.config(p, core.RJC, core.NoEnum)

	// measureOnce returns end-to-end snapshots/sec, ticks per second of
	// combined rangejoin+cluster operator time, and the avg cluster size.
	measureOnce := func(cfg core.Config) (float64, float64, float64, error) {
		// Start from a collected heap: back-to-back runs in one process
		// otherwise charge the previous run's garbage (GC assists) to
		// whichever mode happens to run next.
		runtime.GC()
		tokens := admit(&cfg)
		pipe, err := core.New(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		pipe.Start()
		feedAll(pipe, d, tokens)
		res := pipe.Finish()
		var joinCluster time.Duration
		busy := pipe.StageBusy()
		for i, name := range pipe.StageNames() {
			if name == "rangejoin" || name == "cluster" {
				joinCluster += busy[i]
			}
		}
		rep := res.Metrics.Report()
		stageRate := 0.0
		if joinCluster > 0 {
			stageRate = float64(sc.Ticks) / joinCluster.Seconds()
		}
		return rep.ThroughputPerSec, stageRate, rep.AvgClusterSize, nil
	}
	// measure takes the median of three runs per mode: single sub-second
	// stage timings jitter enough (scheduler, GC pauses) to distort a
	// ratio of two of them.
	measure := func(cfg core.Config) (float64, float64, float64, error) {
		const samples = 3
		var rates, stageRates [samples]float64
		var avg float64
		for i := 0; i < samples; i++ {
			r, s, a, err := measureOnce(cfg)
			if err != nil {
				return 0, 0, 0, err
			}
			rates[i], stageRates[i], avg = r, s, a
		}
		median := func(v [samples]float64) float64 {
			s := v[:]
			sort.Float64s(s)
			return s[samples/2]
		}
		return median(rates), median(stageRates), avg, nil
	}
	scratch, scratchStage, avg, err := measure(base)
	if err != nil {
		return IncrementalRun{}, err
	}
	inc := base
	inc.Incremental = true
	delta, deltaStage, _, err := measure(inc)
	if err != nil {
		return IncrementalRun{}, err
	}
	run := IncrementalRun{
		MoveFraction:                    moveFraction,
		ScratchSnapshotsPerSec:          scratch,
		IncrementalSnapshotsPerSec:      delta,
		ScratchStageSnapshotsPerSec:     scratchStage,
		IncrementalStageSnapshotsPerSec: deltaStage,
		AvgClusterSize:                  avg,
	}
	if scratch > 0 {
		run.Speedup = delta / scratch
	}
	if scratchStage > 0 {
		run.StageSpeedup = deltaStage / scratchStage
	}
	return run, nil
}

// PipelineJSON runs the pipeline benchmark on both transports plus
// checkpoint-enabled variants and writes the report as indented JSON.
func PipelineJSON(w io.Writer, seed int64, sc Scale) error {
	d := MakeDataset("planted", seed, sc)
	p := DefaultParams()
	cfg := d.config(p, core.RJC, core.FBA)

	inproc, err := runPipelineInproc(d, cfg)
	if err != nil {
		return err
	}
	tcp, err := runPipelineTCP(d, cfg, 2)
	if err != nil {
		return err
	}
	// Overhead vs interval: the default cadence plus a 4x more aggressive
	// one, both against the plain inproc wall clock; the committed pattern
	// counts must match across intervals.
	var ckptRuns []CheckpointRun
	for _, interval := range []int{32, 8} {
		run, err := runPipelineCkpt(d, cfg, interval)
		if err != nil {
			return err
		}
		if len(ckptRuns) > 0 && run.Patterns != ckptRuns[0].Patterns {
			return fmt.Errorf("bench: ckpt interval %d committed %d patterns, interval %d committed %d",
				interval, run.Patterns, ckptRuns[0].Interval, ckptRuns[0].Patterns)
		}
		ckptRuns = append(ckptRuns, run)
	}
	// Elastic rescale: scale out to double the parallelism mid-job, and
	// back in, both resuming from a checkpoint.
	var rescaleRuns []RescaleRun
	for _, pr := range [][2]int{{p.Parallelism, 2 * p.Parallelism}, {2 * p.Parallelism, p.Parallelism}} {
		run, err := runPipelineRescale(d, cfg, pr[0], pr[1])
		if err != nil {
			return err
		}
		rescaleRuns = append(rescaleRuns, run)
	}
	// Ingest-path scaling: the partitioned source layer at 1/2/4 partitions.
	var ingestRuns []IngestRun
	for _, parts := range []int{1, 2, 4} {
		run, err := runPipelineIngest(d, cfg, parts)
		if err != nil {
			return err
		}
		ingestRuns = append(ingestRuns, run)
	}
	// Partitioned front end: allocate-stage scaling at its own ~10k-object
	// scale (FrontEndScale) with hard pattern-equality checks against the
	// snapshot-path oracle (inproc, tcp, kill-resume at a different
	// parallelism).
	frontEnd, err := runPipelineFrontEnd(seed, FrontEndScale)
	if err != nil {
		return err
	}
	// Observability overhead: metrics off vs on vs on+1Hz scrape.
	obsRuns, err := runPipelineObs(d, cfg)
	if err != nil {
		return err
	}
	// Incremental vs from-scratch at three churn levels on the fixed-churn
	// workload (clustering stages only).
	var incRuns []IncrementalRun
	for _, frac := range []float64{0.1, 0.5, 1.0} {
		run, err := runPipelineIncremental(seed, sc, p, frac)
		if err != nil {
			return err
		}
		incRuns = append(incRuns, run)
	}
	report := PipelineReport{
		Dataset:       d.Name,
		Objects:       d.Objects,
		Ticks:         sc.Ticks,
		Seed:          seed,
		Parallelism:   p.Parallelism,
		ExchangeBatch: core.EffectiveExchangeBatch(cfg.ExchangeBatch),
		Runs:          []TransportRun{inproc, tcp},
		Checkpoint:    ckptRuns,
		Rescale:       rescaleRuns,
		Ingest:        ingestRuns,
		FrontEnd:      frontEnd,
		Incremental:   incRuns,
		Observability: obsRuns,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
