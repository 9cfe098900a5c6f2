// Command icpe runs real-time co-movement pattern detection over a CSV
// trajectory stream (as produced by cmd/datagen) and prints every pattern
// as it is found.
//
// Usage:
//
//	datagen -dataset taxi | icpe -M 10 -K 12 -L 3 -G 3 -eps 1.5 -minpts 8
//	icpe -input trace.csv -method vba -eps 2
//	icpe -listen 127.0.0.1:7077 -duration 60s   # TCP ingestion (TRJ1 frames)
//
// With -source-partitions N, ingestion runs as N parallel source
// partitions inside the dataflow (each owning a disjoint shard of object
// ids, with per-partition coverage watermarks) feeding the allocate
// subtasks that own the same key groups directly — no global snapshot is
// materialized anywhere. Any number of publishers can feed one job in
// -listen mode; checkpoints then record per-partition replay offsets, so
// a resume replays each shard from its own cut:
//
//	icpe -listen 127.0.0.1:7077 -source-partitions 4 -checkpoint-dir /tmp/ckpt
//
// Multi-process mode runs the pipeline stages as N real OS processes over
// the TCP transport — one coordinator (source + sink) plus N workers:
//
//	icpe -worker 127.0.0.1:7400 &           # start N of these
//	icpe -transport tcp -coordinator 127.0.0.1:7400 -workers 2 -input trace.csv
//
// The coordinator ships its configuration to every worker, so detection
// flags are given only on the coordinator; output is identical to a
// single-process run.
//
// With -checkpoint-dir the run takes aligned-barrier checkpoints of all
// operator state every -checkpoint-interval snapshots, and pattern output
// switches to exactly-once commits (printed once the covering checkpoint
// is durable). After a crash — or a SIGINT/SIGTERM graceful drain, which
// stops the source and takes a final checkpoint — the same command with
// -resume restores state and replays the source from the last completed
// cut:
//
//	icpe -transport tcp -coordinator 127.0.0.1:7400 -workers 2 \
//	     -input trace.csv -checkpoint-dir /tmp/ckpt -resume
//
// Keyed state is checkpointed per key group (hash(key) % -max-parallelism),
// so a resume may use a different -parallelism than the run that took the
// checkpoint — scale out under load, back in when it subsides — with
// byte-identical results. Only -max-parallelism itself must stay fixed for
// the lifetime of a checkpointed job:
//
//	icpe -parallelism 2 -checkpoint-dir /tmp/ckpt -input trace.csv   # ^C mid-stream
//	icpe -parallelism 4 -checkpoint-dir /tmp/ckpt -input trace.csv -resume
//
// Input format: "object,tick,x,y" per line, ticks non-decreasing; in listen
// mode, binary TRJ1 frames from any number of publishers.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/netsrc"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/stream"
	"repro/internal/transport/tcpnet"
)

func main() {
	input := flag.String("input", "-", "input CSV file ('-' = stdin)")
	listen := flag.String("listen", "", "TCP listen address for network ingestion (overrides -input)")
	duration := flag.Duration("duration", 30*time.Second, "how long to serve in -listen mode")
	slack := flag.Int("slack", 2, "out-of-order slack in ticks (-listen mode)")
	m := flag.Int("M", 5, "significance: minimum group size")
	k := flag.Int("K", 12, "duration: minimum total co-movement ticks")
	l := flag.Int("L", 3, "consecutiveness: minimum run length")
	g := flag.Int("G", 3, "connection: maximum gap between runs")
	eps := flag.Float64("eps", 1.5, "DBSCAN distance threshold")
	minPts := flag.Int("minpts", 5, "DBSCAN density threshold")
	cellWidth := flag.Float64("lg", 0, "grid cell width (default 4*eps)")
	method := flag.String("method", "fba", "enumeration method: ba | fba | vba")
	cluster := flag.String("cluster", "rjc", "range join engine: rjc | srj | gdc")
	parallelism := flag.Int("parallelism", 4, "subtasks per pipeline stage (may differ from the checkpointed run's on -resume)")
	sourceParts := flag.Int("source-partitions", 0, "run ingestion as this many source partitions inside the dataflow (0 = classic driver-side assembly); fixed for the lifetime of a checkpointed job")
	incremental := flag.Bool("incremental", false, "maintain cell indexes and clusters incrementally across ticks (identical results, work proportional to churn; needs -cluster rjc, composes with -source-partitions); fixed for the lifetime of a checkpointed job")
	maxParallelism := flag.Int("max-parallelism", 0, "key-group count bounding -parallelism (default 128); fixed for the lifetime of a checkpointed job")
	quiet := flag.Bool("quiet", false, "suppress per-pattern output")
	transport := flag.String("transport", "inproc", "exchange fabric: inproc | tcp (tcp needs -coordinator/-workers)")
	coordinator := flag.String("coordinator", "", "coordinator listen address for -transport tcp (e.g. 127.0.0.1:7400)")
	workers := flag.Int("workers", 2, "worker process count the coordinator waits for")
	workerJoin := flag.String("worker", "", "run as a worker: join the coordinator at this address and serve assigned stages")
	ckptDir := flag.String("checkpoint-dir", "", "enable aligned-barrier checkpointing into this directory")
	ckptInterval := flag.Int("checkpoint-interval", 32, "snapshots (with -source-partitions: ticks) between checkpoints (with -checkpoint-dir)")
	resume := flag.Bool("resume", false, "restore from the latest checkpoint in -checkpoint-dir and replay the source from the cut")
	ckptAsync := flag.Bool("checkpoint-async", false, "encode and upload snapshots on a background goroutine instead of the barrier path")
	ckptDelta := flag.Bool("checkpoint-delta", false, "incremental checkpoints: persist only key groups dirtied since the previous cut")
	ckptCompact := flag.Int("checkpoint-compact", 0, "delta-chain length that triggers background compaction into a full base (0 = store default; with -checkpoint-delta)")
	ckptPaged := flag.Bool("checkpoint-paged", false, "store checkpoint state in a paged blob file (fixed-size pages + free list)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /healthz, /readyz and pprof on this address (e.g. 127.0.0.1:9090); in tcp mode the coordinator's scrape aggregates every worker")
	eventLogPath := flag.String("event-log", "", "append structured JSON event records (checkpoints, restores, rescales, worker membership) to this file")
	flag.Parse()

	if *workerJoin != "" {
		// Workers receive their whole configuration from the coordinator.
		// They always instrument their stages and ship metric snapshots to
		// the coordinator over the control plane (so one scrape of the
		// coordinator shows the whole job); -metrics-addr additionally
		// serves the worker's own /metrics and pprof endpoints.
		fmt.Fprintf(os.Stderr, "joining coordinator at %s\n", *workerJoin)
		wopts := core.WorkerOptions{Metrics: obs.NewRegistry()}
		var wsrv *obs.Server
		if *metricsAddr != "" {
			srv, err := obs.NewServer(*metricsAddr, wopts.Metrics)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "metrics on %s\n", srv.Addr())
			srv.SetReady(true)
			wsrv = srv
		}
		if *eventLogPath != "" {
			lg, err := events.Open(*eventLogPath)
			if err != nil {
				log.Fatal(err)
			}
			wopts.Events = lg
			defer lg.Close()
		}
		stats, err := core.RunWorkerOpts(*workerJoin, wopts)
		if wsrv != nil {
			wsrv.SetReady(false)
			wsrv.Close()
		}
		if err != nil {
			log.Fatal(err)
		}
		for i, name := range stats.Stages {
			if stats.Local[i] {
				fmt.Fprintf(os.Stderr, "stage %-10s %d records\n", name, stats.Records[i])
			}
		}
		return
	}

	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}

	if *resume && *ckptDir == "" {
		log.Fatal("icpe: -resume needs -checkpoint-dir")
	}
	if *ckptDir == "" && (*ckptAsync || *ckptDelta || *ckptPaged || *ckptCompact != 0) {
		log.Fatal("icpe: -checkpoint-async/-checkpoint-delta/-checkpoint-compact/-checkpoint-paged need -checkpoint-dir")
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	cfg := core.Config{
		Constraints:      model.Constraints{M: *m, K: *k, L: *l, G: *g},
		Eps:              *eps,
		CellWidth:        *cellWidth,
		Metric:           geo.L1,
		MinPts:           *minPts,
		Cluster:          core.ClusterMethod(*cluster),
		Enum:             core.EnumMethod(*method),
		Parallelism:      *parallelism,
		MaxParallelism:   *maxParallelism,
		SourcePartitions: *sourceParts,
		Incremental:      *incremental,
	}
	if *sourceParts > 0 {
		// In partitioned mode the out-of-order slack lives in the source
		// partitions (the host-side assembler is gone).
		cfg.SourceSlack = model.Tick(*slack)
	}
	switch {
	case *ckptDir != "":
		cfg.CheckpointDir = *ckptDir
		cfg.CheckpointInterval = *ckptInterval
		cfg.Resume = *resume
		cfg.CheckpointAsync = *ckptAsync
		cfg.CheckpointDelta = *ckptDelta
		cfg.CheckpointCompact = *ckptCompact
		cfg.CheckpointPaged = *ckptPaged
		if !*quiet {
			// With checkpointing, output commits exactly once: patterns are
			// withheld until the covering checkpoint is durable, then
			// flushed, so a crash-and-resume never prints a pattern twice.
			cfg.OnCommit = func(_ uint64, pats []model.Pattern) {
				for _, p := range pats {
					fmt.Fprintf(out, "pattern %s\n", p)
				}
				out.Flush()
			}
		}
	case !*quiet:
		cfg.OnPattern = func(p model.Pattern) {
			fmt.Fprintf(out, "pattern %s\n", p)
		}
	}
	// Observability: a metrics registry served over HTTP (with pprof) and a
	// structured event log. Both are pure deployment knobs — never shipped
	// to workers, never part of the checkpoint fingerprint.
	var obsSrv *obs.Server
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		var err error
		if obsSrv, err = obs.NewServer(*metricsAddr, reg); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics on %s\n", obsSrv.Addr())
		cfg.Obs = reg
	}
	var evLog *events.Log
	if *eventLogPath != "" {
		var err error
		if evLog, err = events.Open(*eventLogPath); err != nil {
			log.Fatal(err)
		}
		cfg.Events = evLog
	}
	var pipe *core.Pipeline
	var coord *tcpnet.Coordinator
	switch *transport {
	case "inproc":
		var err error
		if pipe, err = core.New(cfg); err != nil {
			log.Fatal(err)
		}
	case "tcp":
		if *coordinator == "" {
			log.Fatal("icpe: -transport tcp needs -coordinator ADDR (and workers joining with -worker ADDR)")
		}
		if cfg.Obs != nil {
			// Distinguish the coordinator's own series from the aggregated
			// worker snapshots in the merged scrape.
			cfg.Obs.SetConstLabels(obs.L("worker", "driver"))
		}
		var err error
		if coord, err = tcpnet.NewCoordinator(*coordinator, *workers); err != nil {
			log.Fatal(err)
		}
		defer coord.Close()
		// Membership events must be wired before NewDistributed accepts the
		// worker handshakes. Emit is nil-safe when no event log is open.
		coord.OnWorkerEvent(func(event string, worker int, addr string) {
			evLog.Emit("worker."+event, events.F("worker", worker), events.F("addr", addr))
		})
		fmt.Fprintf(os.Stderr, "waiting for %d workers on %s\n", *workers, coord.Addr())
		if pipe, err = core.NewDistributed(cfg, coord); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "workers joined; streaming\n")
	default:
		log.Fatalf("icpe: unknown transport %q (want inproc or tcp)", *transport)
	}
	pipe.Start()
	if obsSrv != nil {
		obsSrv.SetReady(true)
	}

	// Graceful drain on SIGINT/SIGTERM: the source stops, the drain flushes
	// watermarks and operator state through the pipeline, and Finish takes
	// a final checkpoint when enabled — an interrupted run is resumable
	// with -resume instead of losing its accumulated candidates.
	stopCh := make(chan os.Signal, 1)
	signal.Notify(stopCh, os.Interrupt, syscall.SIGTERM)

	skipThrough := model.Tick(-1 << 62)
	var partSkip []int64 // per-source-partition record counts to skip on resume
	if pos, ok := pipe.ResumePosition(); ok {
		skipThrough = pos.LastTick
		if len(pos.Partitions) > 0 {
			partSkip = make([]int64, len(pos.Partitions))
			for i, pp := range pos.Partitions {
				partSkip[i] = pp.Records
			}
			fmt.Fprintf(os.Stderr, "resuming from checkpoint: %d records checkpointed, per-partition offsets %v\n",
				pos.Snapshots, partSkip)
		} else {
			fmt.Fprintf(os.Stderr, "resuming from checkpoint: %d snapshots checkpointed, replaying ticks > %d\n",
				pos.Snapshots, pos.LastTick)
		}
	}

	switch {
	case *listen != "" && *sourceParts > 0:
		// Partitioned ingestion: records go straight into the dataflow's
		// source partitions; after a resume, publishers replay their streams
		// and the restored partition state drops the checkpointed prefix.
		lag := model.Tick(*slack) + stream.DefaultSilenceTimeout
		if err := serveRecords(*listen, *duration, lag, pipe, stopCh); err != nil {
			log.Fatal(err)
		}
	case *listen != "":
		if err := serve(*listen, *duration, model.Tick(*slack), pipe, skipThrough, stopCh); err != nil {
			log.Fatal(err)
		}
	case *sourceParts > 0:
		if err := feedRecords(r, pipe, partSkip, stopCh); err != nil {
			log.Fatal(err)
		}
	default:
		if err := feed(r, pipe, skipThrough, stopCh); err != nil {
			log.Fatal(err)
		}
	}
	signal.Stop(stopCh)
	res := pipe.Finish()
	rep := res.Metrics.Report()
	fmt.Fprintf(out, "done: %s\n", rep)
	if res.BAOverflow {
		fmt.Fprintln(out, "warning: baseline enumerator overflowed on large partitions")
	}
	// Graceful observability shutdown, after the drain (and its final
	// checkpoint) completed: the event log has all terminal records and the
	// metrics port is released before exit, so a -resume run can bind the
	// same -metrics-addr immediately.
	if obsSrv != nil {
		obsSrv.SetReady(false)
		if err := obsSrv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "metrics server close: %v\n", err)
		}
	}
	if err := evLog.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "event log close: %v\n", err)
	}
}

// serve ingests records over TCP for the given duration (or until a
// termination signal), assembling snapshots with the last-time protocol
// before feeding the pipeline. On resume, ticks at or below skipThrough
// are dropped: they are part of the restored checkpoint, so a publisher
// replaying the stream does not double-process them.
func serve(addr string, d time.Duration, slack model.Tick, pipe *core.Pipeline,
	skipThrough model.Tick, stop <-chan os.Signal) error {
	asm := stream.NewAssembler()
	asm.Slack = slack
	if skipThrough > -1<<62 {
		asm.ResumeAt(skipThrough + 1)
	}
	handler, flush := netsrc.AssemblingHandler(asm, pipe.PushSnapshot)
	srv, err := netsrc.Serve(addr, handler)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "listening on %s for %v\n", srv.Addr(), d)
	select {
	case <-time.After(d):
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "%v: draining\n", sig)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	flush()
	return nil
}

// serveRecords ingests records over TCP into the partitioned source layer:
// the stateless RecordHandler forwards every record to PushRecord, and all
// dedup/ordering/coverage logic runs inside the dataflow's source stage.
// A background ticker emits source watermarks lagging the highest received
// tick by slack + silence — beyond the window where coverage semantics
// would wait anyway — so a source partition whose shard is empty or silent
// cannot stall snapshot release for the rest of the stream.
func serveRecords(addr string, d time.Duration, lag model.Tick, pipe *core.Pipeline, stop <-chan os.Signal) error {
	var maxTick atomic.Int64
	maxTick.Store(-1 << 62)
	srv, err := netsrc.Serve(addr, netsrc.RecordHandler(func(obj model.ObjectID, loc geo.Point, tick model.Tick) {
		for {
			cur := maxTick.Load()
			if int64(tick) <= cur || maxTick.CompareAndSwap(cur, int64(tick)) {
				break
			}
		}
		pipe.PushRecord(obj, loc, tick)
	}))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "listening on %s for %v (partitioned source)\n", srv.Addr(), d)
	done := make(chan struct{})
	var tickerWG sync.WaitGroup
	tickerWG.Add(1)
	go func() {
		defer tickerWG.Done()
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		last := model.Tick(-1 << 62)
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if wm := model.Tick(maxTick.Load()) - lag; wm > last {
					last = wm
					pipe.PushSourceWatermark(wm)
				}
			}
		}
	}()
	select {
	case <-time.After(d):
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "%v: draining\n", sig)
	}
	err = srv.Close()
	close(done)
	tickerWG.Wait()
	return err
}

// feedRecords parses the CSV stream and pushes individual records into the
// partitioned source layer. On resume, skip holds the per-partition record
// counts already covered by the checkpoint: the CSV replay is
// deterministic, so skipping exactly that many records of each shard
// resumes every partition at its own offset.
func feedRecords(r io.Reader, pipe *core.Pipeline, skip []int64, stop <-chan os.Signal) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	lastTick := model.Tick(-1 << 62)
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		obj, tick, loc, err := parseRecord(txt)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if tick < lastTick {
			return fmt.Errorf("line %d: tick %d after %d (stream must be tick-ordered)", line, tick, lastTick)
		}
		if tick > lastTick {
			if lastTick > -1<<62 {
				// Tick-ordered stream: everything <= lastTick has been fed,
				// so the source watermark keeps release live even for
				// partitions whose shard saw nothing this tick.
				pipe.PushSourceWatermark(lastTick)
			}
			lastTick = tick
			select {
			case sig := <-stop:
				fmt.Fprintf(os.Stderr, "%v: draining\n", sig)
				return nil
			default:
			}
		}
		if skip != nil {
			if part := pipe.SourcePartitionOf(obj); skip[part] > 0 {
				skip[part]--
				continue
			}
		}
		pipe.PushRecord(obj, loc, tick)
	}
	return sc.Err()
}

// parseRecord parses one "object,tick,x,y" CSV line.
func parseRecord(txt string) (model.ObjectID, model.Tick, geo.Point, error) {
	parts := strings.Split(txt, ",")
	if len(parts) != 4 {
		return 0, 0, geo.Point{}, fmt.Errorf("want object,tick,x,y")
	}
	id, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return 0, 0, geo.Point{}, fmt.Errorf("object: %v", err)
	}
	tick, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, 0, geo.Point{}, fmt.Errorf("tick: %v", err)
	}
	x, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return 0, 0, geo.Point{}, fmt.Errorf("x: %v", err)
	}
	y, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return 0, 0, geo.Point{}, fmt.Errorf("y: %v", err)
	}
	return model.ObjectID(id), model.Tick(tick), geo.Point{X: x, Y: y}, nil
}

// feed parses the CSV stream into per-tick snapshots and pushes them,
// skipping checkpointed ticks on resume and stopping early on a
// termination signal (graceful drain).
func feed(r io.Reader, pipe *core.Pipeline, skipThrough model.Tick, stop <-chan os.Signal) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *model.Snapshot
	push := func(s *model.Snapshot) {
		if s.Tick > skipThrough {
			pipe.PushSnapshot(s)
		}
	}
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		id, t, loc, err := parseRecord(txt)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if cur != nil && t < cur.Tick {
			return fmt.Errorf("line %d: tick %d after %d (stream must be tick-ordered)", line, t, cur.Tick)
		}
		if cur == nil || t > cur.Tick {
			if cur != nil {
				push(cur)
				select {
				case sig := <-stop:
					fmt.Fprintf(os.Stderr, "%v: draining\n", sig)
					return nil
				default:
				}
			}
			cur = &model.Snapshot{Tick: t}
		}
		cur.Add(id, loc)
	}
	if cur != nil {
		push(cur)
	}
	return sc.Err()
}
