// Command perfbench is the repository's benchmark: it runs one named
// workload against the real ICPE pipeline through its public entry points,
// checks every run's patterns against a sequential reference, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload convoy --seed 1 --seconds 28 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured untraced; --trace 1
// adds a traced run and prints the per-layer metrics. --write-manifest
// writes BENCHMARK.json from the tables in this package and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/model"
)

// phaseTimeout bounds how long a phase waits for its last tick; a tick
// still missing then counts as failed.
const phaseTimeout = 60 * time.Second

// runDeadline stops a run that hangs, so the benchmark always exits.
const runDeadline = 170 * time.Second

// openLoopReps is how many times the open-loop phase replays the stream;
// --seconds covers all of them.
const openLoopReps = 5

// capacityReps is how many closed-loop passes the capacity phase makes.
const capacityReps = 3

// setupReps is how many times a run constructs and starts a pipeline to
// take the median set-up time.
const setupReps = 21

func parallelism() int { return runtime.NumCPU() }

type options struct {
	seed    int64
	seconds float64
	trace   bool
	spanDir string
	ckRoot  string
}

// output is the final line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: convoy, depot or convoy-dist")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", runSeconds, "open-loop phase length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run, print per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span files and checkpoints")
	manifest := flag.String("write-manifest", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()
	if *manifest != "" {
		if err := writeManifest(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runDeadline)
		os.Exit(3)
	})
	ckRoot := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(ckRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: filepath.Join(*out, "trace"), ckRoot: ckRoot}
	res, err := run(w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	specs := endToEnd
	if opts.trace {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := res.metrics[s.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", s.Name)
			os.Exit(1)
		}
		o.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	printHeader(w, opts, res)
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !o.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: patterns differ from the sequential reference or ticks never completed")
		os.Exit(1)
	}
}

// result is everything one run measured.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	mismatch  bool
	ticks     int
	records   int64
	refPats   int
	// Sample counts behind the percentiles.
	tickSamples, patternSamples, cutSamples, commitSamples int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// check scores one phase against the reference: ticks that never
// completed fail, and once any phase's patterns differ, every tick of the
// run fails.
func check(r *recorder, ref *reference, res *result) {
	res.attempted += int64(r.n)
	if r.digest.get() != ref.digest {
		res.mismatch = true
	}
	res.failed += int64(r.n - r.done())
	if res.mismatch {
		res.failed = res.attempted
	}
}

func run(w *workload, o options) (*result, error) {
	ticks := int(w.rate * o.seconds / openLoopReps)
	if ticks < 20 {
		return nil, fmt.Errorf("%v s at %v ticks/s is too short a run", o.seconds, w.rate)
	}
	snaps := w.gen(o.seed, ticks)
	res := &result{metrics: map[string]float64{}, ticks: ticks}
	for _, s := range snaps {
		res.records += int64(s.Len())
	}
	ref, err := runReference(snaps, w.det)
	if err != nil {
		return nil, err
	}
	res.refPats = len(ref.pats)
	M := res.metrics
	if !o.trace {
		if M["setup_s"], err = setupTime(w, o); err != nil {
			return nil, err
		}
	}
	if M["max_records_per_s"], err = capacityPhase(w, snaps, ref, o, res); err != nil {
		return nil, err
	}
	ol, err := openLoopPhase(w, snaps, ref, o, res)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		return res, nil
	}

	// Traced run: per-layer metrics.
	trRec := newRecorder(snaps)
	var tres *tracedResult
	if w.dist {
		tres, err = runTracedDist(w, snaps, trRec, o)
	} else {
		tres, err = runTraced(w, snaps, trRec, o.spanDir, o.seed)
	}
	if err != nil {
		return nil, err
	}
	check(trRec, ref, res)
	res.cutSamples, res.commitSamples = tres.cuts, tres.commits
	for k, v := range tres.layers {
		M[k] = v
	}
	M["driver.gen_lag_ms_p99"] = tres.driver.lag.p(99)
	M["driver.push_ms_p99"] = tres.driver.push.p(99)
	M["ref.join_s"] = ref.join.Seconds()
	M["ref.dbscan_s"] = ref.dbscan.Seconds()
	M["ref.enum_s"] = ref.enum.Seconds()
	M["ref.records_per_s"] = float64(res.records) / (ref.join + ref.dbscan + ref.enum).Seconds()
	M["parallel.speedup"] = M["max_records_per_s"] / M["ref.records_per_s"]
	M["runtime.alloc_bytes_per_record"] = float64(ol.alloc) / float64(openLoopReps*res.records)
	M["runtime.gc_cpu_frac"] = ratio(ol.gc, ol.cpu.Seconds())
	trCPU := float64(tres.cpu.Microseconds()) / float64(res.records)
	M["trace.overhead_pct"] = 100 * (trCPU/M["cpu_us_per_record"] - 1)
	M["trace.latency_overhead_pct"] = 100 * (trRec.tickLatencies().p(50)/M["tick_latency_p50_ms"] - 1)
	M["failed_tick_frac"] = ratio(float64(res.failed), float64(res.attempted))
	return res, nil
}

// setupTime is the median time from the constructor call until the
// pipeline accepts input, over setupReps empty pipelines.
func setupTime(w *workload, o options) (float64, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t, d, err := start(w, w.det, o.ckRoot, false)
		if err != nil {
			return 0, err
		}
		setups = append(setups, d.Seconds())
		if err := t.finish(); err != nil {
			return 0, err
		}
	}
	return median(setups), nil
}

// capacityPhase pushes the stream closed-loop, with a bounded number of
// ticks in flight, capacityReps times into fresh pipelines, and returns
// the median window completion rate in records per second. One pass lasts
// about two seconds, as long as a spell of the host's CPU contention.
func capacityPhase(w *workload, snaps []*model.Snapshot, ref *reference, o options, res *result) (float64, error) {
	var rates []float64
	for rep := 0; rep < capacityReps; rep++ {
		rec := newRecorder(snaps)
		cfg := w.det
		rec.hook(&cfg, w, false)
		t, _, err := start(w, cfg, o.ckRoot, false)
		if err != nil {
			return 0, err
		}
		closedLoop(t.feed(), snaps, rec, w.records > 0)
		rec.wait(phaseTimeout)
		if err := t.finish(); err != nil {
			return 0, err
		}
		check(rec, ref, res)
		rates = append(rates, windowRates(snaps, rec)...)
	}
	return median(rates), nil
}

// openLoopStats are the open-loop phase's process-level costs, summed
// over its repetitions.
type openLoopStats struct {
	cpu   time.Duration
	gc    float64 // seconds
	alloc uint64  // bytes
}

// openLoopPhase pushes the stream on the workload's fixed schedule,
// untraced, openLoopReps times over, each time into a fresh pipeline:
// every end-to-end latency comes from here. Percentiles pool the ticks and
// patterns of all repetitions. The host takes a core away now and then,
// stalling every tick due meanwhile; pooled over five replays, a spell
// must outlast 1% of the whole phase, not of one replay, to set the p99.
func openLoopPhase(w *workload, snaps []*model.Snapshot, ref *reference, o options, res *result) (openLoopStats, error) {
	var st openLoopStats
	var lat, delays sampler
	var heap []float64
	for rep := 0; rep < openLoopReps; rep++ {
		rec := newRecorder(snaps)
		cfg := w.det
		rec.hook(&cfg, w, false)
		heap0 := liveHeap()
		t, _, err := start(w, cfg, o.ckRoot, false)
		if err != nil {
			return st, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		gc0, cpu0 := gcCPU(), cpuTime()
		rec.open.Store(true)
		openLoop(t.feed(), snaps, rec, w.rate, w.records > 0)
		rec.wait(phaseTimeout)
		rec.open.Store(false)
		st.cpu += cpuTime() - cpu0
		st.gc += gcCPU() - gc0
		runtime.ReadMemStats(&ms1)
		st.alloc += ms1.TotalAlloc - ms0.TotalAlloc
		heap1 := liveHeap()
		if err := t.finish(); err != nil {
			return st, err
		}
		check(rec, ref, res)
		lat = append(lat, rec.tickLatencies()...)
		delays = append(delays, rec.delays...)
		heap = append(heap, (float64(heap1)-float64(heap0))/(1<<20))
	}
	res.tickSamples, res.patternSamples = len(lat), len(delays)
	M := res.metrics
	for _, q := range []int{50, 90, 99} {
		M[fmt.Sprintf("tick_latency_p%d_ms", q)] = lat.p(float64(q))
		M[fmt.Sprintf("pattern_delay_p%d_ms", q)] = delays.p(float64(q))
	}
	M["cpu_us_per_record"] = float64(st.cpu.Microseconds()) / float64(openLoopReps*res.records)
	M["state_heap_mb"] = median(heap)
	return st, nil
}

func printHeader(w *workload, o options, r *result) {
	commit := gitCommit()
	fmt.Printf("# perfbench workload=%s seed=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s parallelism=%d\n",
		w.name, o.seed, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, parallelism())
	fmt.Printf("# offered rate %.0f ticks/s (%.0f records/s): %s\n", w.rate, w.rate*float64(r.records)/float64(r.ticks), w.why)
	fmt.Printf("# inputs: ticks=%d records=%d reference_patterns=%d\n", r.ticks, r.records, r.refPats)
	fmt.Printf("# samples pooled over %d open-loop repetitions: tick_latency=%d pattern_delay=%d; traced run: ckpt_cuts=%d commit_wait=%d\n", openLoopReps,
		r.tickSamples, r.patternSamples, r.cutSamples, r.commitSamples)
	fmt.Printf("# failed_tick_frac=%g (failed %d of %d ticks pushed)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-36s %g\n", k, r.metrics[k])
	}
}

// gitCommit reads the checked-out commit from .git without running git;
// benchmark checkouts without a .git report "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}
