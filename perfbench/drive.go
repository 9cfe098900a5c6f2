package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport/tcpnet"
)

// feed is the input side of a pipeline under test: the public push entry
// points, or the benchmark's own flow driver in a traced run.
type feed struct {
	snapshot  func(*model.Snapshot)
	record    func(model.ObjectID, geo.Point, model.Tick)
	watermark func(model.Tick)
}

// recorder owns the callbacks of one phase: tick completions, pattern
// deliveries and (in the capacity phase) admission tokens.
type recorder struct {
	base model.Tick // tick of the first snapshot
	n    int
	// due[i] is when tick base+i's last record (or its snapshot) was due;
	// written before the tick is pushed and only read afterwards.
	due []time.Time

	mu        sync.Mutex
	completed []time.Time
	nDone     int
	allDone   chan struct{}
	delays    sampler
	arrivals  map[uint64][]time.Time // traced commit runs: OnPattern instants
	commitW   sampler
	batches   int

	digest syncDigest
	// open gates pattern-delay samples: deliveries after the last tick
	// completed belong to the end-of-stream flush, which an unbounded
	// stream never has.
	open   atomic.Bool
	tokens chan struct{} // closed-loop admission (nil in the open loop)
}

func newRecorder(snaps []*model.Snapshot) *recorder {
	return &recorder{
		base:      snaps[0].Tick,
		n:         len(snaps),
		due:       make([]time.Time, len(snaps)),
		completed: make([]time.Time, len(snaps)),
		allDone:   make(chan struct{}),
		delays:    make(sampler, 0, 1<<16),
	}
}

func (r *recorder) onTick(t model.Tick) {
	now := time.Now()
	i := int(t - r.base)
	if i < 0 || i >= r.n {
		return
	}
	r.mu.Lock()
	fresh := r.completed[i].IsZero()
	if fresh {
		r.completed[i] = now
		r.nDone++
		if r.nDone == r.n {
			close(r.allDone)
		}
	}
	r.mu.Unlock()
	if fresh && r.tokens != nil {
		<-r.tokens
	}
}

// onSinkWatermark marks every tick up to wm complete (traced flow runs,
// where the sink watermark is the completion signal).
func (r *recorder) onSinkWatermark(wm model.Tick) {
	r.mu.Lock()
	last := r.base + model.Tick(r.nDone) - 1
	r.mu.Unlock()
	for t := last + 1; t <= wm && t < r.base+model.Tick(r.n); t++ {
		r.onTick(t)
	}
}

// deliver records one pattern reaching the user at now.
func (r *recorder) deliver(p model.Pattern, now time.Time) {
	r.digest.add(p)
	if !r.open.Load() || len(p.Times) == 0 {
		return
	}
	i := int(p.Times[len(p.Times)-1] - r.base)
	if i < 0 || i >= r.n {
		return
	}
	r.mu.Lock()
	r.delays.add(now.Sub(r.due[i]))
	r.mu.Unlock()
}

func (r *recorder) onPattern(p model.Pattern) { r.deliver(p, time.Now()) }

// onArrival notes a pattern reaching the sink ahead of its commit.
func (r *recorder) onArrival(p model.Pattern) {
	now := time.Now()
	h := patternHash(p)
	r.mu.Lock()
	r.arrivals[h] = append(r.arrivals[h], now)
	r.mu.Unlock()
}

func (r *recorder) onCommit(id uint64, pats []model.Pattern) {
	now := time.Now()
	r.mu.Lock()
	r.batches++
	if r.arrivals != nil && r.open.Load() {
		for _, p := range pats {
			h := patternHash(p)
			if ts := r.arrivals[h]; len(ts) > 0 {
				r.commitW.add(now.Sub(ts[0]))
				r.arrivals[h] = ts[1:]
			}
		}
	}
	r.mu.Unlock()
	for _, p := range pats {
		r.deliver(p, now)
	}
}

// tickLatencies returns completion minus due time per completed tick.
func (r *recorder) tickLatencies() sampler {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(sampler, 0, r.n)
	for i, c := range r.completed {
		if !c.IsZero() {
			out.add(c.Sub(r.due[i]))
		}
	}
	return out
}

func (r *recorder) done() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nDone
}

// wait blocks until every tick completed or the timeout passed.
func (r *recorder) wait(timeout time.Duration) bool {
	select {
	case <-r.allDone:
		return true
	case <-time.After(timeout):
		return false
	}
}

// hook installs the recorder's callbacks on a pipeline config.
func (r *recorder) hook(cfg *core.Config, w *workload, traced bool) {
	cfg.OnTickComplete = r.onTick
	if w.dist {
		cfg.OnCommit = r.onCommit
		if traced {
			r.arrivals = make(map[uint64][]time.Time)
			cfg.OnPattern = r.onArrival
		}
		return
	}
	cfg.OnPattern = r.onPattern
}

// target is one constructed pipeline: in-process, or a coordinator plus
// worker goroutines over loopback TCP.
type target struct {
	p       *core.Pipeline
	coord   *tcpnet.Coordinator
	workers sync.WaitGroup
	werrs   chan error
	regs    []*obs.Registry // worker registries (traced distributed runs)
	ckDir   string
}

// deployment completes cfg with the workload's deployment options.
func deployment(w *workload, cfg core.Config, ckRoot string) (core.Config, string, error) {
	cfg.Parallelism = parallelism()
	cfg.SourcePartitions = w.records
	if !w.dist {
		return cfg, "", nil
	}
	dir, err := os.MkdirTemp(ckRoot, "ckpt-")
	if err != nil {
		return cfg, "", fmt.Errorf("checkpoint dir: %w", err)
	}
	cfg.CheckpointInterval = w.ckptEvery
	cfg.CheckpointDir = dir
	return cfg, dir, nil
}

// start constructs and starts the pipeline; the returned duration runs
// from the constructor call until the pipeline accepts input (including
// the worker handshake on distributed workloads).
func start(w *workload, cfg core.Config, ckRoot string, workerObs bool) (*target, time.Duration, error) {
	cfg, dir, err := deployment(w, cfg, ckRoot)
	if err != nil {
		return nil, 0, err
	}
	t := &target{ckDir: dir}
	t0 := time.Now()
	if !w.dist {
		if t.p, err = core.New(cfg); err != nil {
			return nil, 0, err
		}
		t.p.Start()
		return t, time.Since(t0), nil
	}
	if t.coord, err = tcpnet.NewCoordinator("127.0.0.1:0", distWorkers); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	t.werrs = make(chan error, distWorkers)
	for i := 0; i < distWorkers; i++ {
		var opts core.WorkerOptions
		if workerObs {
			opts.Metrics = obs.NewRegistry()
			t.regs = append(t.regs, opts.Metrics)
		}
		t.workers.Add(1)
		go func() {
			defer t.workers.Done()
			if _, err := core.RunWorkerOpts(t.coord.Addr(), opts); err != nil {
				t.werrs <- err
			}
		}()
	}
	if t.p, err = core.NewDistributed(cfg, t.coord); err != nil {
		t.coord.Close()
		t.workers.Wait()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	t.p.Start()
	return t, time.Since(t0), nil
}

func (t *target) feed() feed {
	return feed{snapshot: t.p.PushSnapshot, record: t.p.PushRecord, watermark: t.p.PushSourceWatermark}
}

// finish drains the pipeline and releases everything start acquired.
func (t *target) finish() error {
	t.p.Finish()
	var err error
	if t.coord != nil {
		t.workers.Wait()
		close(t.werrs)
		for e := range t.werrs {
			if err == nil {
				err = fmt.Errorf("worker: %w", e)
			}
		}
		if cerr := t.coord.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("coordinator close: %w", cerr)
		}
	}
	if t.ckDir != "" {
		if rerr := os.RemoveAll(t.ckDir); err == nil && rerr != nil {
			err = rerr
		}
	}
	return err
}

// driverStats are the generator's own measurements.
type driverStats struct {
	lag  sampler // oversleep per wake-up
	push sampler // time inside Push* per snapshot, or per burst of records
}

// openLoop pushes the stream on a fixed schedule of rate ticks per second
// from one goroutine (this one). A snapshot is due at start + i/rate; the
// records of a tick are spread evenly over its interval and the tick's
// watermark follows its last record. Pushing never waits for results, so
// a stall shows as latency of the ticks due meanwhile.
func openLoop(f feed, snaps []*model.Snapshot, r *recorder, rate float64, records bool) driverStats {
	period := float64(time.Second) / rate
	t0 := time.Now().Add(20 * time.Millisecond)
	dueAt := func(i, j, n int) time.Time {
		return t0.Add(time.Duration((float64(i) + float64(j)/float64(n)) * period))
	}
	for i, s := range snaps {
		n := s.Len()
		if records && n > 0 {
			r.due[i] = dueAt(i, n-1, n)
		} else {
			r.due[i] = dueAt(i, 0, 1)
		}
	}
	ds := driverStats{lag: make(sampler, 0, len(snaps)), push: make(sampler, 0, len(snaps))}
	sleepUntil := func(due time.Time) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			ds.lag.add(time.Since(due))
		}
	}
	if !records {
		for i, s := range snaps {
			sleepUntil(r.due[i])
			s.Ingest = r.due[i]
			p0 := time.Now()
			f.snapshot(s)
			ds.push.add(time.Since(p0))
		}
		return ds
	}
	i, j := 0, 0
	for i < len(snaps) {
		sleepUntil(dueAt(i, j, max(snaps[i].Len(), 1)))
		now := time.Now()
		p0 := now
		for i < len(snaps) {
			s := snaps[i]
			n := s.Len()
			if j < n && dueAt(i, j, n).After(now) {
				break
			}
			if j < n {
				f.record(s.Objects[j], s.Locs[j], s.Tick)
				j++
			}
			if j >= n {
				f.watermark(s.Tick)
				i, j = i+1, 0
			}
		}
		ds.push.add(time.Since(p0))
	}
	return ds
}

// closedLoop pushes the stream as fast as the pipeline completes it, with
// at most inflight ticks pushed but not completed.
func closedLoop(f feed, snaps []*model.Snapshot, r *recorder, records bool) {
	const inflight = 16
	r.tokens = make(chan struct{}, inflight)
	for _, s := range snaps {
		r.tokens <- struct{}{}
		if !records {
			f.snapshot(s)
			continue
		}
		for j, o := range s.Objects {
			f.record(o, s.Locs[j], s.Tick)
		}
		f.watermark(s.Tick)
	}
}

// windowRates are the completion rates, in records per second, of ten
// equal windows of a closed-loop pass after the first (warm-up) one.
func windowRates(snaps []*model.Snapshot, r *recorder) []float64 {
	const windows = 10
	w := len(snaps) / windows
	var rates []float64
	for k := 1; k < windows; k++ {
		a, b := k*w-1, (k+1)*w-1
		var recs int
		for _, s := range snaps[a+1 : b+1] {
			recs += s.Len()
		}
		if d := r.completed[b].Sub(r.completed[a]); d > 0 {
			rates = append(rates, float64(recs)/d.Seconds())
		}
	}
	return rates
}

// eventLog collects the pipeline's structured events in memory.
type eventLog struct {
	mu  sync.Mutex
	buf []byte
}

func (e *eventLog) Write(p []byte) (int, error) {
	e.mu.Lock()
	e.buf = append(e.buf, p...)
	e.mu.Unlock()
	return len(p), nil
}
