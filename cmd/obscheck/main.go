// Command obscheck is the CI gate behind `make obs-check`: it boots a
// small planted co-movement workload with the observability layer enabled
// (metrics registry + HTTP server + checkpointing, the full driver-side
// wiring), scrapes /metrics over real HTTP, parses the response with the
// strict text-format parser, and exits non-zero if the exposition is
// unparseable, a required metric family is missing, or the headline
// counters did not move.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/promlint"
)

// requiredFamilies is the contract of a driver-side scrape: every name
// here must appear in /metrics after a checkpointed run. Kept in sync
// with the catalog in ARCHITECTURE.md.
var requiredFamilies = []string{
	"icpe_stage_records_total",
	"icpe_stage_batches_total",
	"icpe_stage_busy_seconds_total",
	"icpe_edge_queue_depth",
	"icpe_edge_queue_capacity",
	"icpe_edge_send_blocks_total",
	"icpe_source_snapshots_total",
	"icpe_patterns_total",
	"icpe_source_watermark_tick",
	"icpe_sink_watermark_tick",
	"icpe_watermark_lag_ticks",
	"icpe_checkpoint_capture_seconds_total",
	"icpe_checkpoint_encode_seconds_total",
	"icpe_checkpoint_upload_seconds_total",
	"icpe_checkpoint_bytes_total",
	"icpe_checkpoint_cuts_total",
	"icpe_latency_seconds",
	"icpe_completion_latency_seconds",
}

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "metrics listen address")
	ticks := flag.Int("ticks", 48, "stream length in ticks")
	flag.Parse()
	if err := run(*addr, *ticks); err != nil {
		fmt.Fprintf(os.Stderr, "obs-check: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("obs-check: OK")
}

func run(addr string, ticks int) error {
	reg := obs.NewRegistry()
	srv, err := obs.NewServer(addr, reg)
	if err != nil {
		return err
	}
	defer srv.Close()

	dir, err := os.MkdirTemp("", "obscheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := core.Config{
		Constraints:        model.Constraints{M: 3, K: 4, L: 2, G: 2},
		Eps:                2.0,
		MinPts:             3,
		Metric:             geo.L1,
		Cluster:            core.RJC,
		Enum:               core.FBA,
		Parallelism:        2,
		CheckpointDir:      dir,
		CheckpointInterval: 8,
		Obs:                reg,
	}
	pipe, err := core.New(cfg)
	if err != nil {
		return err
	}
	pipe.Start()
	srv.SetReady(true)

	if err := expectStatus(srv.Addr(), "/healthz", http.StatusOK); err != nil {
		return err
	}
	if err := expectStatus(srv.Addr(), "/readyz", http.StatusOK); err != nil {
		return err
	}

	// Two planted groups of six objects each, marching in formation far
	// apart: every tick clusters both groups, so patterns must come out.
	for t := 0; t < ticks; t++ {
		s := &model.Snapshot{Tick: model.Tick(t)}
		for i := 0; i < 6; i++ {
			s.Add(model.ObjectID(i), geo.Point{X: float64(t)*0.1 + float64(i)*0.3, Y: 0})
			s.Add(model.ObjectID(100+i), geo.Point{X: 500 + float64(t)*0.1 + float64(i)*0.3, Y: 500})
		}
		pipe.PushSnapshot(s)
	}
	res := pipe.Finish()
	if res.Metrics.Report().Patterns == 0 {
		return fmt.Errorf("planted workload produced no patterns — workload broken, scrape checks would be vacuous")
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("/metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	fams, err := promlint.Parse(resp.Body)
	if err != nil {
		return fmt.Errorf("exposition does not parse: %w", err)
	}
	var missing []string
	for _, name := range requiredFamilies {
		if promlint.Find(fams, name) == nil {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("missing required families: %s", strings.Join(missing, ", "))
	}

	// The counters must have moved: a scrape full of zeros parses fine but
	// means the gather hooks are disconnected from the pipeline.
	for _, name := range []string{"icpe_stage_records_total", "icpe_source_snapshots_total", "icpe_patterns_total", "icpe_checkpoint_cuts_total"} {
		f := promlint.Find(fams, name)
		sum := 0.0
		for _, s := range f.Samples {
			sum += s.Value
		}
		if sum <= 0 {
			return fmt.Errorf("%s is zero after a %d-tick run", name, ticks)
		}
	}
	fmt.Printf("obs-check: %d families, %d required present, patterns=%d\n",
		len(fams), len(requiredFamilies), res.Metrics.Report().Patterns)
	return nil
}

func expectStatus(addr, path string, want int) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s returned %s, want %d", path, resp.Status, want)
	}
	return nil
}
