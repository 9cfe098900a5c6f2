package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/ops/msg"
)

// Layer names: the pipeline stages in this repository's module names.
var stageNames = []string{"source", "allocate", "rangejoin", "cluster", "enumerate"}

// stageMetrics are reported for every stage.
var stageMetrics = []string{"records", "busy_s", "crit_busy_s", "busy_frac", "send_blocks", "tick_ms_p50", "tick_ms_p99", "wait_frac"}

const (
	kindProcess = iota
	kindWatermark
	kindClose
)

// coalesceGap merges back-to-back calls of one kind for one tick into a
// single span (busy time is kept exact), so a traced run holds a few spans
// per subtask and tick instead of one per record.
const coalesceGap = int64(50 * time.Microsecond)

// span is one or more consecutive operator calls on one subtask, in
// nanoseconds since the traced phase began.
type span struct {
	start, end, busy int64
	tick             int64
	kind             uint8
}

// subtaskTrace is written only by its subtask's goroutine and read after
// the pipeline drained.
type subtaskTrace struct {
	spans []span
	// Boundary counts: cell-object copies (rangejoin input), join pairs
	// (cluster input), partitions (enumerate input).
	cellObjs, pairs, partitions int64
}

func (s *subtaskTrace) record(kind uint8, tick, start, end int64) {
	if n := len(s.spans); n > 0 {
		last := &s.spans[n-1]
		if last.kind == kind && last.tick == tick && start-last.end < coalesceGap {
			last.end = end
			last.busy += end - start
			return
		}
	}
	s.spans = append(s.spans, span{start: start, end: end, busy: end - start, tick: tick, kind: kind})
}

// tracer records spans for every stage of a traced run.
type tracer struct {
	t0     time.Time
	base   model.Tick
	stages [][]*subtaskTrace // by stage index, then subtask
	names  []string
	// driverWM[i] is when the driver began submitting tick base+i's
	// watermark: the moment the tick left the driver.
	driverWM []int64

	mu           sync.Mutex
	clusterSizes float64
	clusterTicks int64
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) onCluster(_ model.Tick, cs *model.ClusterSnapshot) {
	if len(cs.Clusters) == 0 {
		return
	}
	tr.mu.Lock()
	tr.clusterSizes += cs.AverageClusterSize()
	tr.clusterTicks++
	tr.mu.Unlock()
}

// tracedOp decorates one subtask's operator with span recording.
type tracedOp struct {
	op flow.Operator
	tr *tracer
	st *subtaskTrace
}

func tickOf(data any) int64 {
	switch d := data.(type) {
	case *model.Snapshot:
		return int64(d.Tick)
	case msg.Rec:
		return int64(d.Tick)
	case msg.Cell:
		return int64(d.Tick)
	case msg.CellDelta:
		return int64(d.Tick)
	case msg.Meta:
		return int64(d.Tick)
	case msg.Pairs:
		return int64(d.Tick)
	case msg.PairDelta:
		return int64(d.Tick)
	case enum.Partition:
		return int64(d.Tick)
	}
	return -1
}

func (o *tracedOp) count(data any) {
	switch d := data.(type) {
	case msg.Cell:
		o.st.cellObjs += int64(len(d.Task.Data) + len(d.Task.Queries))
	case msg.CellDelta:
		o.st.cellObjs += int64(len(d.Delta.DataAdd) + len(d.Delta.QueryAdd) + len(d.Delta.DataDel) + len(d.Delta.QueryDel))
	case msg.Pairs:
		o.st.pairs += int64(len(d.Pairs))
	case msg.PairDelta:
		o.st.pairs += int64(len(d.Add) + len(d.Del))
	case enum.Partition:
		o.st.partitions++
	}
}

func (o *tracedOp) Process(data any, out *flow.Collector) {
	s := o.tr.now()
	o.op.Process(data, out)
	o.st.record(kindProcess, tickOf(data), s, o.tr.now())
	o.count(data)
}

func (o *tracedOp) OnWatermark(wm model.Tick, out *flow.Collector) {
	s := o.tr.now()
	o.op.OnWatermark(wm, out)
	o.st.record(kindWatermark, int64(wm), s, o.tr.now())
}

func (o *tracedOp) Close(out *flow.Collector) {
	s := o.tr.now()
	o.op.Close(out)
	o.st.record(kindClose, -1, s, o.tr.now())
}

// tracedResult is what a traced run yields besides its recorder.
type tracedResult struct {
	layers map[string]float64
	// Sample counts behind the checkpoint and commit-wait percentiles.
	cuts, commits int
	driver        driverStats
	wall          time.Duration
	cpu           time.Duration
}

// runTraced builds the standard graph with core.Topology, wraps every
// stage's operator factory in the span decorator, and drives the built
// flow pipeline with the routing keys core uses. Traced runs never
// checkpoint, so hiding the operators' checkpoint interfaces is harmless.
func runTraced(w *workload, snaps []*model.Snapshot, rec *recorder, spanDir string, seed int64) (*tracedResult, error) {
	cfg, _, err := deployment(w, w.det, "")
	if err != nil {
		return nil, err
	}
	filled, err := filledConfig(cfg)
	if err != nil {
		return nil, err
	}
	tr := &tracer{base: snaps[0].Tick, driverWM: make([]int64, len(snaps))}
	g, err := core.Topology(&filled, core.Hooks{
		OnCluster: tr.onCluster,
		Sink: func(d any) {
			if p, ok := d.(model.Pattern); ok {
				rec.onPattern(p)
			}
		},
		SinkWatermark: rec.onSinkWatermark,
	})
	if err != nil {
		return nil, err
	}
	for i := range g.Stages {
		subs := make([]*subtaskTrace, g.Stages[i].Parallelism)
		tr.stages = append(tr.stages, subs)
		tr.names = append(tr.names, g.Stages[i].Name)
		mk := g.Stages[i].Operator
		g.Stages[i].Operator = func(subtask int) flow.Operator {
			st := &subtaskTrace{}
			subs[subtask] = st
			return &tracedOp{op: mk(subtask), tr: tr, st: st}
		}
	}
	pl, err := g.Build()
	if err != nil {
		return nil, err
	}
	markWM := func(t model.Tick) {
		if i := int(t - tr.base); i >= 0 && i < len(tr.driverWM) {
			tr.driverWM[i] = tr.now()
		}
	}
	f := feed{
		snapshot: func(s *model.Snapshot) {
			key := uint64(s.Tick)
			if filled.Incremental {
				key = 0 // core routes every snapshot to the one stateful allocate subtask
			}
			pl.Submit(key, s)
			markWM(s.Tick)
			pl.SubmitWatermark(s.Tick)
		},
		record: func(o model.ObjectID, l geo.Point, t model.Tick) {
			pl.Submit(uint64(o), msg.Rec{Object: o, Loc: l, Tick: t, Ingest: time.Now()})
		},
		watermark: func(t model.Tick) {
			markWM(t)
			pl.SubmitWatermark(t)
		},
	}
	tr.t0 = time.Now()
	pl.Start()
	res := &tracedResult{}
	cpu0 := cpuTime()
	rec.open.Store(true)
	res.driver = openLoop(f, snaps, rec, w.rate, w.records > 0)
	rec.wait(phaseTimeout)
	rec.open.Store(false)
	res.cpu = cpuTime() - cpu0
	res.wall = time.Since(tr.t0)
	pl.Drain()
	var records int64
	for _, s := range snaps {
		records += int64(s.Len())
	}

	L := map[string]float64{}
	recs, busy, batches := pl.StageRecords(), pl.StageBusy(), pl.StageBatches()
	blocks := map[string]int64{}
	for _, e := range pl.EdgeStats() {
		blocks[e.Stage] += e.SendBlocks
	}
	var allRecs, allBatches int64
	prev := tr.driverWM
	for i, name := range tr.names {
		var crit time.Duration
		for _, b := range pl.StageSubtaskBusy(i) {
			crit = max(crit, b)
		}
		L[name+".records"] = float64(recs[i])
		L[name+".busy_s"] = busy[i].Seconds()
		L[name+".crit_busy_s"] = crit.Seconds()
		L[name+".busy_frac"] = busy[i].Seconds() / (res.wall.Seconds() * float64(len(tr.stages[i])))
		L[name+".send_blocks"] = float64(blocks[name])
		fin := tr.stageFinish(i)
		p50, p99, wait := tr.tickSplit(i, prev, fin)
		L[name+".tick_ms_p50"], L[name+".tick_ms_p99"], L[name+".wait_frac"] = p50, p99, wait
		prev = fin
		if i > 0 { // the first stage's input comes unbatched from the driver
			allRecs += recs[i]
			allBatches += batches[i]
		}
	}
	for _, name := range stageNames {
		if _, ok := L[name+".records"]; !ok { // stage not on this workload's path
			for _, m := range stageMetrics {
				L[name+"."+m] = 0
			}
		}
	}
	var cellObjs, pairs, partitions int64
	for _, subs := range tr.stages {
		for _, st := range subs {
			cellObjs += st.cellObjs
			pairs += st.pairs
			partitions += st.partitions
		}
	}
	L["allocate.replication"] = ratio(float64(cellObjs), float64(records))
	L["rangejoin.pairs_per_cellobj"] = ratio(float64(pairs), float64(cellObjs))
	L["cluster.avg_cluster_size"] = ratio(tr.clusterSizes, float64(tr.clusterTicks))
	patterns := float64(rec.digest.get().n)
	L["enumerate.patterns_per_partition"] = ratio(patterns, float64(partitions))
	L["exchange.records_per_batch"] = ratio(float64(allRecs), float64(allBatches))
	L["sink.patterns"] = patterns
	// No wire, checkpoints or commit hold on an in-process traced run.
	for _, k := range []string{"wire.mb", "wire.bytes_per_record", "wire.frames_per_flush",
		"ckpt.cuts", "ckpt.cut_ms_p50", "ckpt.cut_ms_p99", "ckpt.capture_ms", "ckpt.upload_ms", "ckpt.bytes_per_cut",
		"sink.commit_batches", "sink.commit_wait_ms_p50", "sink.commit_wait_ms_p99"} {
		L[k] = 0
	}
	res.layers = L
	return res, tr.writeSpans(spanDir, w.name, seed)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stageFinish returns, per tick index, when the slowest subtask of stage
// i returned from the first OnWatermark covering the tick (0 = never).
func (tr *tracer) stageFinish(i int) []int64 {
	fin := make([]int64, len(tr.driverWM))
	for _, st := range tr.stages[i] {
		next := 0
		for _, sp := range st.spans {
			if sp.kind != kindWatermark {
				continue
			}
			for ; next < len(fin) && int64(tr.base)+int64(next) <= sp.tick; next++ {
				fin[next] = max(fin[next], sp.end)
			}
		}
	}
	return fin
}

// busyIn is the operator time st spent inside [a, b), prorating spans that
// straddle an edge.
func (st *subtaskTrace) busyIn(a, b int64) int64 {
	j := sort.Search(len(st.spans), func(j int) bool { return st.spans[j].end > a })
	var busy int64
	for ; j < len(st.spans) && st.spans[j].start < b; j++ {
		sp := st.spans[j]
		lo, hi := max(sp.start, a), min(sp.end, b)
		if hi <= lo || sp.end == sp.start {
			continue
		}
		busy += sp.busy * (hi - lo) / (sp.end - sp.start)
	}
	return busy
}

// tickSplit returns stage i's per-tick time (from the previous stage
// finishing a tick to this stage finishing it) at p50 and p99, and the
// share of that time the critical subtask spent outside operator calls.
func (tr *tracer) tickSplit(i int, prev, fin []int64) (p50, p99, wait float64) {
	var xs []float64
	var total, idle int64
	// Subtask lookup by finishing span is linear; index the ends once.
	crit := map[int64]*subtaskTrace{}
	for _, st := range tr.stages[i] {
		for _, sp := range st.spans {
			if sp.kind == kindWatermark {
				crit[sp.end] = st
			}
		}
	}
	for k := range fin {
		if fin[k] == 0 || prev[k] == 0 {
			continue
		}
		d := max(fin[k]-prev[k], 0)
		xs = append(xs, float64(d)/1e6)
		st := crit[fin[k]]
		if st == nil || d == 0 {
			continue
		}
		total += d
		idle += d - min(st.busyIn(prev[k], fin[k]), d)
	}
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return percentile(xs, 50), percentile(xs, 99), ratio(float64(idle), float64(total))
}

// writeCSV writes one trace file into dir once the run is over.
func writeCSV(dir, file, header string, rows func(w *bufio.Writer)) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, header)
	rows(bw)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the run's spans, and when the driver let each tick go.
func (tr *tracer) writeSpans(dir, name string, seed int64) error {
	kinds := []string{"process", "watermark", "close"}
	return writeCSV(dir, fmt.Sprintf("%s-seed%d.spans.csv", name, seed), "stage,subtask,kind,tick,start_ns,end_ns,busy_ns", func(bw *bufio.Writer) {
		for i, subs := range tr.stages {
			for s, st := range subs {
				for _, sp := range st.spans {
					fmt.Fprintf(bw, "%s,%d,%s,%d,%d,%d,%d\n", tr.names[i], s, kinds[sp.kind], sp.tick, sp.start, sp.end, sp.busy)
				}
			}
		}
		for k, t := range tr.driverWM {
			fmt.Fprintf(bw, "driver,0,watermark,%d,%d,%d,0\n", int64(tr.base)+int64(k), t, t)
		}
	})
}

// writeSamples writes a traced run's driver, tick and sink samples in
// milliseconds, one row per sample.
func writeSamples(dir, name string, seed int64, sets map[string]sampler) error {
	kinds := make([]string, 0, len(sets))
	for k := range sets {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return writeCSV(dir, fmt.Sprintf("%s-seed%d.samples.csv", name, seed), "kind,index,ms", func(bw *bufio.Writer) {
		for _, k := range kinds {
			for i, v := range sets[k] {
				fmt.Fprintf(bw, "%s,%d,%g\n", k, i, v)
			}
		}
	})
}

// familySum adds up one metric family across registries, by stage label
// ("" for unlabelled series).
func familySum(regs []*obs.Registry, family string) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range regs {
		for _, fam := range reg.Snapshot() {
			if fam.Name != family {
				continue
			}
			for _, s := range fam.Series {
				stage := ""
				for _, l := range s.Labels {
					if l.Name == "stage" {
						stage = l.Value
					}
				}
				out[stage] += s.Value
			}
		}
	}
	return out
}

// cutTimes pairs checkpoint.begin and checkpoint.complete events by id and
// returns each completed cut's duration in milliseconds.
func cutTimes(log []byte) (sampler, error) {
	begin := map[uint64]time.Time{}
	var out sampler
	sc := bufio.NewScanner(bytes.NewReader(log))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var ev struct {
			TS    time.Time `json:"ts"`
			Event string    `json:"event"`
			ID    uint64    `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("event log: %w", err)
		}
		switch ev.Event {
		case "checkpoint.begin":
			begin[ev.ID] = ev.TS
		case "checkpoint.complete":
			if b, ok := begin[ev.ID]; ok {
				out.add(ev.TS.Sub(b))
			}
		}
	}
	return out, sc.Err()
}
