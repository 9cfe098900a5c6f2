package main

import (
	"time"

	"repro/internal/model"
	"repro/internal/obs/events"
	"repro/internal/transport/tcpnet"
)

// runTracedDist is the traced run of a distributed workload. Workers build
// their own graph, so the layer numbers come from the workers' metric
// registries (they are goroutines of this process; the coordinator's
// registry re-exports worker families only as Prometheus text), the
// coordinator's event log, the process-wide wire counters,
// CheckpointStats and the driver's and sink's own samples.
func runTracedDist(w *workload, snaps []*model.Snapshot, rec *recorder, o options) (*tracedResult, error) {
	cfg := w.det
	rec.hook(&cfg, w, true)
	evl := &eventLog{}
	cfg.Events = events.New(evl)
	b0, fl0, fr0 := tcpnet.WireCounters()
	t, _, err := start(w, cfg, o.ckRoot, true)
	if err != nil {
		return nil, err
	}
	res := &tracedResult{}
	t0, cpu0 := time.Now(), cpuTime()
	rec.open.Store(true)
	res.driver = openLoop(t.feed(), snaps, rec, w.rate, false)
	rec.wait(phaseTimeout)
	rec.open.Store(false)
	res.cpu = cpuTime() - cpu0
	res.wall = time.Since(t0)
	b1, fl1, fr1 := tcpnet.WireCounters()
	if err := t.finish(); err != nil {
		return nil, err
	}
	ck := t.p.CheckpointStats()
	var records int64
	for _, s := range snaps {
		records += int64(s.Len())
	}

	L := map[string]float64{}
	recs := familySum(t.regs, "icpe_stage_records_total")
	batches := familySum(t.regs, "icpe_stage_batches_total")
	busy := familySum(t.regs, "icpe_stage_busy_seconds_total")
	blocks := familySum(t.regs, "icpe_edge_send_blocks_total")
	var allRecs, allBatches float64
	for _, s := range stageNames {
		L[s+".records"] = recs[s]
		L[s+".busy_s"] = busy[s]
		L[s+".busy_frac"] = busy[s] / (res.wall.Seconds() * float64(parallelism()))
		L[s+".send_blocks"] = blocks[s]
		// Per-subtask busy time and per-tick spans live inside the
		// workers' flow pipelines, out of reach of a public entry point.
		L[s+".crit_busy_s"], L[s+".tick_ms_p50"], L[s+".tick_ms_p99"], L[s+".wait_frac"] = 0, 0, 0, 0
		if s != "source" && s != "allocate" { // the driver feeds the first stage unbatched
			allRecs += recs[s]
			allBatches += batches[s]
		}
	}
	L["exchange.records_per_batch"] = ratio(allRecs, allBatches)
	// Operator-internal ratios are not observable from outside the workers.
	L["allocate.replication"], L["rangejoin.pairs_per_cellobj"] = 0, 0
	L["cluster.avg_cluster_size"], L["enumerate.patterns_per_partition"] = 0, 0

	bytes, flushes, frames := float64(b1-b0), float64(fl1-fl0), float64(fr1-fr0)
	L["wire.mb"] = bytes / 1e6
	L["wire.bytes_per_record"] = ratio(bytes, float64(records))
	L["wire.frames_per_flush"] = ratio(frames, flushes)

	cuts, err := cutTimes(evl.buf)
	if err != nil {
		return nil, err
	}
	n := float64(ck.DeltaCuts + ck.FullCuts)
	// Workers capture and encode state; the coordinator uploads it.
	capture := familySum(t.regs, "icpe_checkpoint_capture_seconds_total")[""]
	stateBytes := familySum(t.regs, "icpe_checkpoint_bytes_total")[""]
	L["ckpt.cuts"] = n
	L["ckpt.cut_ms_p50"], L["ckpt.cut_ms_p99"] = cuts.p(50), cuts.p(99)
	L["ckpt.capture_ms"] = ratio((capture+ck.Capture.Seconds())*1e3, n)
	L["ckpt.upload_ms"] = ratio(ms(ck.Upload), n)
	L["ckpt.bytes_per_cut"] = ratio(stateBytes, n)

	L["sink.patterns"] = float64(rec.digest.get().n)
	L["sink.commit_batches"] = float64(rec.batches)
	L["sink.commit_wait_ms_p50"], L["sink.commit_wait_ms_p99"] = rec.commitW.p(50), rec.commitW.p(99)
	res.layers = L
	res.cuts, res.commits = len(cuts), len(rec.commitW)
	return res, writeSamples(o.spanDir, w.name, o.seed, map[string]sampler{
		"tick_latency": rec.tickLatencies(), "pattern_delay": rec.delays, "commit_wait": rec.commitW,
		"ckpt_cut": cuts, "driver_lag": res.driver.lag, "driver_push": res.driver.push,
	})
}
