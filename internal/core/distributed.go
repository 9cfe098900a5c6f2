// Distributed execution of the standard ICPE topology: a coordinator
// process drives the source and collects the sink while N worker
// processes each run the stages the tcpnet plan assigns them. The
// coordinator ships its Config (as a Spec blob) to every worker, so all
// processes build the identical topology and only placement differs.
package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/ckpt"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/transport/tcpnet"
)

// Spec is the wire form of Config: the scalar knobs that determine the
// topology. Hooks, transports and collection settings are process-local
// and deliberately absent.
type Spec struct {
	M                int     `json:"m"`
	K                int     `json:"k"`
	L                int     `json:"l"`
	G                int     `json:"g"`
	Eps              float64 `json:"eps"`
	CellWidth        float64 `json:"cell_width"`
	Metric           int     `json:"metric"`
	MinPts           int     `json:"min_pts"`
	Cluster          string  `json:"cluster"`
	Enum             string  `json:"enum"`
	Nodes            int     `json:"nodes"`
	SlotsPerNode     int     `json:"slots_per_node"`
	Parallelism      int     `json:"parallelism"`
	MaxParallelism   int     `json:"max_parallelism"`
	ExchangeBatch    int     `json:"exchange_batch"`
	SourcePartitions int     `json:"source_partitions,omitempty"`
	SourceSlack      int64   `json:"source_slack,omitempty"`
	SourceSilence    int64   `json:"source_silence,omitempty"`
	Incremental      bool    `json:"incremental,omitempty"`
}

// EncodeSpec serializes the topology-determining part of cfg.
func EncodeSpec(cfg Config) ([]byte, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return json.Marshal(Spec{
		M: cfg.Constraints.M, K: cfg.Constraints.K,
		L: cfg.Constraints.L, G: cfg.Constraints.G,
		Eps:              cfg.Eps,
		CellWidth:        cfg.CellWidth,
		Metric:           int(cfg.Metric),
		MinPts:           cfg.MinPts,
		Cluster:          string(cfg.Cluster),
		Enum:             string(cfg.Enum),
		Nodes:            cfg.Nodes,
		SlotsPerNode:     cfg.SlotsPerNode,
		Parallelism:      cfg.Parallelism,
		MaxParallelism:   cfg.MaxParallelism,
		ExchangeBatch:    cfg.ExchangeBatch,
		SourcePartitions: cfg.SourcePartitions,
		SourceSlack:      int64(cfg.SourceSlack),
		SourceSilence:    int64(cfg.SourceSilence),
		Incremental:      cfg.Incremental,
	})
}

// fingerprintSpec is the semantic identity of a detection job: the fields
// that determine WHAT is computed, not how the computation is deployed.
// It is what checkpoint manifests are stamped with, so a resume accepts
// any deployment of the same job. Parallelism, exchange batching and slot
// simulation are deployment knobs — changing them cannot change results —
// and are deliberately absent. MaxParallelism IS part of the identity:
// it fixes the key→group mapping every checkpointed state blob is
// bucketed by, so restoring under a different one would scatter keys
// into the wrong buckets.
type fingerprintSpec struct {
	M              int     `json:"m"`
	K              int     `json:"k"`
	L              int     `json:"l"`
	G              int     `json:"g"`
	Eps            float64 `json:"eps"`
	CellWidth      float64 `json:"cell_width"`
	Metric         int     `json:"metric"`
	MinPts         int     `json:"min_pts"`
	Cluster        string  `json:"cluster"`
	Enum           string  `json:"enum"`
	MaxParallelism int     `json:"max_parallelism"`
	// SourcePartitions shards the external stream (and the per-partition
	// replay offsets), so it is identity, not deployment: the shard a
	// record's replay offset lives in must not move across a resume. Slack
	// and silence change which snapshots get assembled — semantics, too.
	SourcePartitions int   `json:"source_partitions,omitempty"`
	SourceSlack      int64 `json:"source_slack,omitempty"`
	SourceSilence    int64 `json:"source_silence,omitempty"`
	// Incremental changes the stateful operators' checkpoint blob formats
	// (and which operators hold state at all), so the two modes' state is
	// mutually unrestorable — identity, not deployment.
	Incremental bool `json:"incremental,omitempty"`
}

// Fingerprint serializes the semantic identity of cfg (the checkpoint
// compatibility key — see fingerprintSpec).
func Fingerprint(cfg Config) ([]byte, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return json.Marshal(fingerprintSpec{
		M: cfg.Constraints.M, K: cfg.Constraints.K,
		L: cfg.Constraints.L, G: cfg.Constraints.G,
		Eps:              cfg.Eps,
		CellWidth:        cfg.CellWidth,
		Metric:           int(cfg.Metric),
		MinPts:           cfg.MinPts,
		Cluster:          string(cfg.Cluster),
		Enum:             string(cfg.Enum),
		MaxParallelism:   cfg.MaxParallelism,
		SourcePartitions: cfg.SourcePartitions,
		SourceSlack:      int64(cfg.SourceSlack),
		SourceSilence:    int64(cfg.SourceSilence),
		Incremental:      cfg.Incremental,
	})
}

// DecodeSpec reconstructs the Config a worker must build its topology
// from.
func DecodeSpec(data []byte) (Config, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Config{}, fmt.Errorf("core: spec: %w", err)
	}
	cfg := Config{
		Constraints:      model.Constraints{M: s.M, K: s.K, L: s.L, G: s.G},
		Eps:              s.Eps,
		CellWidth:        s.CellWidth,
		Metric:           geo.Metric(s.Metric),
		MinPts:           s.MinPts,
		Cluster:          ClusterMethod(s.Cluster),
		Enum:             EnumMethod(s.Enum),
		Nodes:            s.Nodes,
		SlotsPerNode:     s.SlotsPerNode,
		Parallelism:      s.Parallelism,
		MaxParallelism:   s.MaxParallelism,
		ExchangeBatch:    s.ExchangeBatch,
		SourcePartitions: s.SourcePartitions,
		SourceSlack:      model.Tick(s.SourceSlack),
		SourceSilence:    model.Tick(s.SourceSilence),
		Incremental:      s.Incremental,
	}
	if err := cfg.fill(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// TopologyStageNames returns the stage names of cfg's standard topology,
// in pipeline order — the coordinator needs them before building its own
// pipeline to compute the placement plan.
func TopologyStageNames(cfg Config) ([]string, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g, err := Topology(&cfg, Hooks{})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(g.Stages))
	for i, st := range g.Stages {
		names[i] = st.Name
	}
	return names, nil
}

// NewDistributed builds the coordinator-side pipeline: it completes the
// worker handshake on c, wires the tcpnet transport and remote sink
// delivery into a core.Pipeline, and arranges Finish to wait for every
// worker. The returned pipeline is used exactly like an in-process one
// (Start, PushSnapshot, Finish); clustering-internal metrics
// (ClusterLatency, AvgClusterSize) are recorded on the workers and stay
// empty here.
//
// With checkpointing enabled the coordinator drives the whole protocol: it
// injects barriers on the data plane (they ride the stage-0 edges like any
// record), collects worker acks over the control plane, and commits
// manifests to its local store. On resume it ships each worker its share
// of the checkpointed operator state inside the handshake, so workers need
// no access to the checkpoint directory.
func NewDistributed(cfg Config, c *tcpnet.Coordinator) (*Pipeline, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	spec, err := EncodeSpec(cfg)
	if err != nil {
		return nil, err
	}
	stages, err := TopologyStageNames(cfg)
	if err != nil {
		return nil, err
	}
	// On resume, load the latest completed checkpoint's state blobs before
	// the handshake; the store instance is shared with the pipeline's
	// checkpoint runner so both see the same checkpoint. The blobs are
	// re-sliced onto THIS run's per-stage parallelism (which may differ
	// from the checkpoint's — elastic rescale) before they are shipped, so
	// each worker receives exactly the key groups its new subtasks' ranges
	// need, keyed by the new subtask indices.
	var restore map[string][]byte
	if cfg.Resume {
		if cfg.CheckpointStore == nil {
			if cfg.CheckpointStore, err = ckpt.NewDirStore(cfg.CheckpointDir); err != nil {
				return nil, err
			}
		}
		fp, err := Fingerprint(cfg)
		if err != nil {
			return nil, err
		}
		// Validate before the handshake so a config mismatch fails the
		// coordinator cleanly instead of stranding joined workers.
		man, err := resumeManifest(cfg.CheckpointStore, fp)
		if err != nil {
			return nil, err
		}
		if man != nil {
			target, err := topologyStages(cfg)
			if err != nil {
				return nil, err
			}
			if err := man.Validate(target, cfg.MaxParallelism); err != nil {
				return nil, err
			}
			if restore, err = restoreBlobs(cfg.CheckpointStore, man, target); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Events != nil {
		ev := cfg.Events
		c.SetDataDisconnectHook(func(stage, addr string, err error) {
			ev.Emit("worker.disconnect",
				events.F("stage", stage),
				events.F("addr", addr),
				events.F("error", err.Error()))
		})
	}
	if err := c.Run(stages, spec, restore); err != nil {
		return nil, err
	}
	cfg.Transport = c.Transport()
	cfg.Local = c.Local
	cfg.AwaitDrain = func() {
		if err := c.WaitDone(); err != nil {
			panic(fmt.Sprintf("core: distributed drain: %v", err))
		}
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// Hooks are installed before Start spawns the control readers, so no
	// frame can race the installation or hit a nil hook.
	c.OnSink(p.DeliverSink)
	c.OnSinkWatermark(p.DeliverSinkWatermark)
	c.OnCheckpointAck(p.DeliverCheckpointAck)
	c.OnSinkBarrier(p.DeliverSinkBarrier)
	if cfg.Obs != nil {
		// Worker snapshots merge into the driver's registry: one scrape of
		// the coordinator's /metrics shows the whole job, each worker's
		// series pinned by its worker="N" const label.
		reg := cfg.Obs
		c.OnMetrics(func(worker int, fams []obs.FamilySnapshot) {
			reg.ImportExternal("worker-"+strconv.Itoa(worker), fams)
		})
	}
	c.Start()
	return p, nil
}

// WorkerStats summarizes one worker's share of a distributed run.
type WorkerStats struct {
	// Stages are the pipeline's stage names (all of them, in order).
	Stages []string
	// Local[i] reports whether this worker ran Stages[i].
	Local []bool
	// Records[i] counts records processed by Stages[i] here (zero for
	// non-local stages).
	Records []int64
}

// RunWorker joins the coordinator at coordAddr, builds the standard
// topology from the shipped spec, executes the stages assigned to this
// process and blocks until they drain. The worker owning the last stage
// forwards sink records and watermarks to the coordinator.
func RunWorker(coordAddr string) (WorkerStats, error) {
	return RunWorkerOpts(coordAddr, WorkerOptions{})
}

// WorkerOptions carries the deployment-only extras of a worker process.
type WorkerOptions struct {
	// Metrics, when set, instruments the worker's local stages on this
	// registry (stamped with a worker="N" const label after the handshake
	// assigns the index) and ships periodic snapshots to the coordinator
	// over the control plane, plus one final snapshot before the done
	// frame — so the coordinator's merged scrape always ends complete.
	Metrics *obs.Registry
	// MetricsInterval is the snapshot shipping period (default 1s).
	MetricsInterval time.Duration
	// Events, when set, receives the worker's structured event log.
	Events *events.Log
}

// RunWorkerOpts is RunWorker with observability options.
func RunWorkerOpts(coordAddr string, opts WorkerOptions) (WorkerStats, error) {
	w, err := tcpnet.JoinWorker(coordAddr)
	if err != nil {
		return WorkerStats{}, err
	}
	defer w.Close()
	cfg, err := DecodeSpec(w.Spec())
	if err != nil {
		return WorkerStats{}, err
	}
	opts.Events.Emit("worker.join", events.F("worker", w.ID()), events.F("coordinator", coordAddr))
	if opts.Events != nil {
		ev, id := opts.Events, w.ID()
		w.SetDisconnectHook(func(stage, addr string, err error) {
			ev.Emit("worker.disconnect",
				events.F("worker", id),
				events.F("stage", stage),
				events.F("addr", addr),
				events.F("error", err.Error()))
		})
	}
	g, err := Topology(&cfg, Hooks{
		Sink:          w.Sink(),
		SinkWatermark: w.SinkWatermark(),
	})
	if err != nil {
		return WorkerStats{}, err
	}
	g.Transport = w.Transport()
	g.Local = w.LocalStage
	// Checkpoint plumbing: snapshots taken at aligned barriers are acked to
	// the coordinator, the sink-cut barrier is forwarded with the sink
	// stream, and handshake-shipped state is restored before any input.
	g.OnCheckpointState = w.CheckpointAck()
	g.SinkBarrier = w.SinkBarrier()
	g.Restore = w.RestoreState
	var ckstats *metrics.CheckpointStats
	if opts.Metrics != nil {
		// Worker-side capture/encode stats: the coordinator owns upload and
		// cut accounting, but the barrier-handler stall happens here.
		ckstats = &metrics.CheckpointStats{}
		g.CkptStats = ckstats
	}
	pl, err := g.Build()
	if err != nil {
		return WorkerStats{}, err
	}
	var stopShip func()
	if opts.Metrics != nil {
		reg := opts.Metrics
		reg.SetConstLabels(obs.L("worker", strconv.Itoa(w.ID())))
		registerFlowMetrics(reg, pl)
		registerCheckpointMetrics(reg, ckstats)
		interval := opts.MetricsInterval
		if interval <= 0 {
			interval = time.Second
		}
		done := make(chan struct{})
		shipped := make(chan struct{})
		go func() {
			defer close(shipped)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					_ = w.SendMetrics(reg.Snapshot())
				case <-done:
					return
				}
			}
		}()
		stopShip = func() {
			close(done)
			<-shipped
			// Final snapshot after the local stages drained, sent before the
			// done frame on the same connection: the coordinator's view is
			// complete once WaitDone returns.
			_ = w.SendMetrics(reg.Snapshot())
		}
	}
	pl.Start()
	pl.WaitLocal()
	stats := WorkerStats{
		Stages:  pl.StageNames(),
		Records: pl.StageRecords(),
	}
	stats.Local = make([]bool, len(stats.Stages))
	for i := range stats.Local {
		stats.Local[i] = w.LocalStage(i)
	}
	if stopShip != nil {
		stopShip()
	}
	opts.Events.Emit("worker.drained", events.F("worker", w.ID()))
	if err := w.Finish(); err != nil {
		return stats, err
	}
	return stats, nil
}
