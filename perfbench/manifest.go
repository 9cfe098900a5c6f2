package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/metrics"
)

// metricSpec declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func e2e(name, unit string, bound float64) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: betterOf(name), Bound: &bound}
}

func betterOf(name string) string {
	if name == "max_records_per_s" {
		return "higher"
	}
	return "lower"
}

// endToEnd are the metrics a user of the system sees, from untraced runs.
// The latency tails are not among them: on a 2-vCPU box whose second core
// comes and goes, the p90 and p99 of ten runs spread by 25-60% of their
// median, wider than any bound a regression gate can use. They are
// reported with the per-layer metrics instead.
var endToEnd = []metricSpec{
	e2e("tick_latency_p50_ms", "ms", 0.25),
	e2e("pattern_delay_p50_ms", "ms", 0.25),
	e2e("max_records_per_s", "1/s", 0.25),
	e2e("cpu_us_per_record", "us", 0.15),
	e2e("state_heap_mb", "MiB", 0.25),
	e2e("setup_s", "s", 0.25),
}

func layer(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

// perLayer are the per-layer metrics of the traced run, in this
// repository's module names. A layer that is not on a workload's path
// (the source stage on convoy, wire and checkpoints off convoy-dist)
// reports 0.
var perLayer = func() []metricSpec {
	out := []metricSpec{
		layer("tick_latency_p90_ms", "ms", "lower"),
		layer("tick_latency_p99_ms", "ms", "lower"),
		layer("pattern_delay_p90_ms", "ms", "lower"),
		layer("pattern_delay_p99_ms", "ms", "lower"),
		layer("driver.gen_lag_ms_p99", "ms", "lower"),
		layer("driver.push_ms_p99", "ms", "lower"),
	}
	units := map[string]string{"records": "count", "busy_s": "s", "crit_busy_s": "s", "busy_frac": "ratio",
		"send_blocks": "count", "tick_ms_p50": "ms", "tick_ms_p99": "ms", "wait_frac": "ratio"}
	for _, s := range stageNames {
		for _, m := range stageMetrics {
			out = append(out, layer(s+"."+m, units[m], "lower"))
		}
	}
	return append(out,
		layer("allocate.replication", "ratio", "lower"),
		layer("rangejoin.pairs_per_cellobj", "ratio", "higher"),
		layer("cluster.avg_cluster_size", "count", "higher"),
		layer("enumerate.patterns_per_partition", "ratio", "higher"),
		layer("exchange.records_per_batch", "count", "higher"),
		layer("wire.mb", "MB", "lower"),
		layer("wire.bytes_per_record", "B", "lower"),
		layer("wire.frames_per_flush", "count", "higher"),
		layer("ckpt.cuts", "count", "higher"),
		layer("ckpt.cut_ms_p50", "ms", "lower"),
		layer("ckpt.cut_ms_p99", "ms", "lower"),
		layer("ckpt.capture_ms", "ms", "lower"),
		layer("ckpt.upload_ms", "ms", "lower"),
		layer("ckpt.bytes_per_cut", "B", "lower"),
		layer("sink.patterns", "count", "higher"),
		layer("sink.commit_batches", "count", "higher"),
		layer("sink.commit_wait_ms_p50", "ms", "lower"),
		layer("sink.commit_wait_ms_p99", "ms", "lower"),
		layer("ref.join_s", "s", "lower"),
		layer("ref.dbscan_s", "s", "lower"),
		layer("ref.enum_s", "s", "lower"),
		layer("ref.records_per_s", "1/s", "higher"),
		layer("parallel.speedup", "ratio", "higher"),
		layer("runtime.alloc_bytes_per_record", "B", "lower"),
		layer("runtime.gc_cpu_frac", "ratio", "lower"),
		layer("trace.overhead_pct", "%", "lower"),
		layer("trace.latency_overhead_pct", "%", "lower"),
		layer("failed_tick_frac", "ratio", "lower"),
	)
}()

// runSeconds is BENCHMARK.json's run_seconds: the --seconds each run is given.
const runSeconds = 28

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricSpec       `json:"end_to_end"`
	PerLayer   []metricSpec       `json:"per_layer"`
}

// writeManifest writes BENCHMARK.json from the workload and metric tables.
func writeManifest(path string) error {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// gcCPU is the cumulative CPU time the Go runtime estimates it spent in
// garbage collection, in seconds.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
