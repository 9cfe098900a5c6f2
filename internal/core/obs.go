// Observability wiring: this file maps the pipeline's internal counters —
// flow's per-stage/per-edge atomics, the checkpoint runner's stats and
// replay offsets, the façade's latency trackers — onto a metric registry
// (internal/obs) via gather hooks, so the hot paths keep incrementing
// plain atomics and all exposition cost is paid at scrape time. The same
// helpers serve both processes of a distributed run: the driver registers
// its pipeline and watermark/checkpoint views here, workers register
// their local stages in RunWorker and ship snapshots to the coordinator.
package core

import (
	"strconv"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Exported metric families (the catalog is documented in ARCHITECTURE.md).
const (
	mStageRecords  = "icpe_stage_records_total"
	mStageBatches  = "icpe_stage_batches_total"
	mStageBusy     = "icpe_stage_busy_seconds_total"
	mEdgeDepth     = "icpe_edge_queue_depth"
	mEdgeCap       = "icpe_edge_queue_capacity"
	mEdgeBlocks    = "icpe_edge_send_blocks_total"
	mEdgeBytes     = "icpe_edge_bytes_total"
	mEdgeFlushes   = "icpe_edge_flushes_total"
	mEdgeFPF       = "icpe_edge_frames_per_flush"
	mSnapshots     = "icpe_source_snapshots_total"
	mPatterns      = "icpe_patterns_total"
	mSrcWM         = "icpe_source_watermark_tick"
	mSinkWM        = "icpe_sink_watermark_tick"
	mWMLag         = "icpe_watermark_lag_ticks"
	mPartRecords   = "icpe_source_partition_records_total"
	mPartTick      = "icpe_source_partition_tick"
	mAllocDeltas   = "icpe_allocate_delta_total"
	mAllocLag      = "icpe_allocate_shard_lag_ticks"
	mCkptCapture   = "icpe_checkpoint_capture_seconds_total"
	mCkptEncode    = "icpe_checkpoint_encode_seconds_total"
	mCkptUpload    = "icpe_checkpoint_upload_seconds_total"
	mCkptBytes     = "icpe_checkpoint_bytes_total"
	mCkptCuts      = "icpe_checkpoint_cuts_total"
	mLatency       = "icpe_latency_seconds"
	mCompletionHis = "icpe_completion_latency_seconds"
)

// registerFlowMetrics mirrors a flow pipeline's per-stage counters and
// per-edge queue statistics into reg: one gather hook samples the
// pipeline's atomics at scrape time, so instrumentation adds nothing to
// the per-record path. Edge gauges are (re-)registered inside the hook —
// registration is idempotent, and it keeps the stage/subtask label space
// exactly the set of edges this process actually receives on.
func registerFlowMetrics(reg *obs.Registry, fl *flow.Pipeline) {
	names := fl.StageNames()
	recs := make([]*obs.Counter, len(names))
	batches := make([]*obs.Counter, len(names))
	busy := make([]*obs.Counter, len(names))
	for i, name := range names {
		l := obs.L("stage", name)
		recs[i] = reg.Counter(mStageRecords, "Records processed per stage (batches unpacked).", l)
		batches[i] = reg.Counter(mStageBatches, "Batch carriers processed per stage.", l)
		busy[i] = reg.Counter(mStageBusy, "Cumulative operator time per stage in seconds (Process/OnWatermark wall time, summed over subtasks).", l)
	}
	reg.OnGather(func() {
		for i, v := range fl.StageRecords() {
			recs[i].Set(float64(v))
		}
		for i, v := range fl.StageBatches() {
			batches[i].Set(float64(v))
		}
		for i, v := range fl.StageBusy() {
			busy[i].Set(v.Seconds())
		}
		for _, e := range fl.EdgeStats() {
			ls := []obs.Label{obs.L("stage", e.Stage), obs.L("subtask", strconv.Itoa(e.Subtask))}
			reg.Gauge(mEdgeDepth, "Buffered messages in a subtask's input queue.", ls...).Set(float64(e.Depth))
			reg.Gauge(mEdgeCap, "Capacity of a subtask's input queue.", ls...).Set(float64(e.Capacity))
			reg.Counter(mEdgeBlocks, "Send calls that found the input queue full and blocked (backpressure).", ls...).Set(float64(e.SendBlocks))
		}
		// Outbound wire traffic per remote edge (networked transports only;
		// in-process endpoints don't implement flow.WireStats).
		for _, w := range fl.WireStats() {
			l := obs.L("stage", w.Stage)
			reg.Counter(mEdgeBytes, "Bytes written to a remote edge's connection.", l).Set(float64(w.Bytes))
			reg.Counter(mEdgeFlushes, "Write syscalls (flushes) on a remote edge's connection.", l).Set(float64(w.Flushes))
			fpf := 0.0
			if w.Flushes > 0 {
				fpf = float64(w.Frames) / float64(w.Flushes)
			}
			reg.Gauge(mEdgeFPF, "Frames encoded per write syscall on a remote edge (send coalescing factor).", l).Set(fpf)
		}
	})
}

// registerCheckpointMetrics mirrors CheckpointStats into reg. Safe with a
// nil stats (no-op hooks read zeros — families still expose, which keeps
// scrape contents stable whether or not checkpointing is on).
func registerCheckpointMetrics(reg *obs.Registry, stats *metrics.CheckpointStats) {
	capture := reg.Counter(mCkptCapture, "Cumulative operator state capture time inside barrier handlers, in seconds.")
	encode := reg.Counter(mCkptEncode, "Cumulative checkpoint blob assembly time in seconds.")
	upload := reg.Counter(mCkptUpload, "Cumulative checkpoint store persistence time in seconds.")
	bytes := reg.Counter(mCkptBytes, "Total checkpoint state bytes written.")
	cuts := reg.Counter(mCkptCuts, "Completed checkpoints.")
	reg.OnGather(func() {
		s := stats.Snapshot()
		capture.Set(s.Capture.Seconds())
		encode.Set(s.Encode.Seconds())
		upload.Set(s.Upload.Seconds())
		bytes.Set(float64(s.Bytes))
		cuts.Set(float64(s.FullCuts))
	})
}

// latencySummary exposes one metrics.Latency as a pull-style summary with
// the standard quantiles, reusing the tracker's cached sorted reservoir.
func latencySummary(reg *obs.Registry, l *metrics.Latency, which string) {
	reg.RegisterSummary(mLatency, "Pipeline latency summaries by kind.", func() obs.SummaryValue {
		return obs.SummaryValue{
			Quantiles: []obs.QuantileValue{
				{Quantile: 0.5, Value: l.Percentile(50).Seconds()},
				{Quantile: 0.95, Value: l.Percentile(95).Seconds()},
				{Quantile: 0.99, Value: l.Percentile(99).Seconds()},
			},
			Sum:   l.Sum().Seconds(),
			Count: uint64(l.Count()),
		}
	}, obs.L("kind", which))
}

// setupObs registers the driver-side metric views on cfg.Obs: stage and
// edge instrumentation for the local pipeline, stream-progress gauges
// (source/sink watermarks and their lag — the paper's "is it keeping up"
// signal), source per-partition replay offsets, checkpoint stats, and the
// latency summaries plus a completion-latency histogram. Called once from
// New after the flow pipeline is built.
func (p *Pipeline) setupObs() {
	reg := p.cfg.Obs
	if reg == nil {
		return
	}
	registerFlowMetrics(reg, p.fl)

	snaps := reg.Counter(mSnapshots, "Snapshots ingested at the source.")
	pats := reg.Counter(mPatterns, "Patterns emitted by the sink.")
	srcWM := reg.Gauge(mSrcWM, "Highest tick pushed into the source.")
	sinkWM := reg.Gauge(mSinkWM, "Merged watermark after the last stage (every tick <= this is fully processed).")
	lag := reg.Gauge(mWMLag, "Source minus sink watermark in ticks (0 until both have advanced).")
	reg.OnGather(func() {
		p.mets.mu.Lock()
		snaps.Set(float64(p.mets.Snapshots))
		pats.Set(float64(p.mets.Patterns))
		p.mets.mu.Unlock()
		src, haveSrc := p.srcTick.Load(), p.srcSeen.Load()
		sink, haveSink := p.sinkTick.Load(), p.sinkSeen.Load()
		if haveSrc {
			srcWM.Set(float64(src))
		}
		if haveSink {
			sinkWM.Set(float64(sink))
		}
		if haveSrc && haveSink && src > sink {
			lag.Set(float64(src - sink))
		} else {
			lag.Set(0)
		}
	})

	if p.allocStats != nil {
		enters := reg.Counter(mAllocDeltas, "Front-end allocate object transitions by kind.", obs.L("kind", "enter"))
		moves := reg.Counter(mAllocDeltas, "Front-end allocate object transitions by kind.", obs.L("kind", "move"))
		leaves := reg.Counter(mAllocDeltas, "Front-end allocate object transitions by kind.", obs.L("kind", "leave"))
		shards := len(p.allocStats.Flushed)
		lags := make([]*obs.Gauge, shards)
		for i := 0; i < shards; i++ {
			lags[i] = reg.Gauge(mAllocLag, "Source tick minus a front-end allocate subtask's flushed watermark (0 until both have advanced).", obs.L("shard", strconv.Itoa(i)))
		}
		reg.OnGather(func() {
			enters.Set(float64(p.allocStats.Enters.Load()))
			moves.Set(float64(p.allocStats.Moves.Load()))
			leaves.Set(float64(p.allocStats.Leaves.Load()))
			src, haveSrc := p.srcTick.Load(), p.srcSeen.Load()
			for i := range lags {
				f := p.allocStats.Flushed[i].Load()
				if !haveSrc || f == 0 || src < f-1 {
					lags[i].Set(0)
					continue
				}
				lags[i].Set(float64(src - (f - 1)))
			}
		})
	}

	if p.ck != nil {
		registerCheckpointMetrics(reg, p.ck.stats)
		if p.cfg.SourcePartitions > 0 {
			nParts := p.cfg.SourcePartitions
			partRecs := make([]*obs.Counter, nParts)
			partTicks := make([]*obs.Gauge, nParts)
			for i := 0; i < nParts; i++ {
				l := obs.L("partition", strconv.Itoa(i))
				partRecs[i] = reg.Counter(mPartRecords, "Records pushed per source partition (the checkpoint replay offset).", l)
				partTicks[i] = reg.Gauge(mPartTick, "Highest record tick seen per source partition.", l)
			}
			reg.OnGather(func() {
				recs, ticks := p.ck.partitionOffsets()
				for i := range recs {
					partRecs[i].Set(float64(recs[i]))
					partTicks[i].Set(float64(ticks[i]))
				}
			})
		}
	}

	latencySummary(reg, &p.mets.CompletionLatency, "completion")
	latencySummary(reg, &p.mets.ClusterLatency, "cluster")
	latencySummary(reg, &p.mets.PatternLatency, "pattern")
	p.obsCompletion = reg.Histogram(mCompletionHis,
		"Per-snapshot completion latency (ingest to full enumeration) in seconds.",
		obs.DurationBuckets)
}

// partitionOffsets returns copies of the per-partition replay offsets
// (records pushed, highest tick) — the source-progress numbers every
// checkpoint records, sampled live for the metrics endpoint.
func (r *ckptRunner) partitionOffsets() ([]int64, []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := make([]int64, len(r.partRecs))
	copy(recs, r.partRecs)
	ticks := make([]int64, len(r.partTicks))
	for i, t := range r.partTicks {
		ticks[i] = int64(t)
	}
	return recs, ticks
}
