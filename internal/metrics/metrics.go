// Package metrics provides the two performance measures of the paper's
// evaluation (Section 7): per-snapshot latency (the time from a snapshot's
// ingestion to the emission of its results) and throughput (snapshots
// processed per second), plus cluster-size statistics for Figures 12-13.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyReservoir is the fixed sample capacity of Latency: on unbounded
// streams the count and mean stay exact while quantiles come from a
// uniform reservoir of this many samples (Vitter's algorithm R), so memory
// is constant no matter how long the run.
const LatencyReservoir = 4096

// Latency accumulates duration samples with bounded memory: an exact
// count and sum, plus a fixed-size uniform reservoir for percentile
// estimates. Below LatencyReservoir samples the reservoir holds every
// observation and percentiles are exact. Safe for concurrent use.
type Latency struct {
	mu    sync.Mutex
	count int64
	sum   time.Duration
	res   []time.Duration
	rng   uint64 // xorshift64 state; deterministic per instance

	// sorted caches the ascending view of res between observations, so a
	// scrape reading several quantiles sorts at most once and an idle
	// metrics endpoint polling at 1Hz pays O(n log n) only after new
	// samples — not per quantile per scrape. Invalidated by Observe.
	sorted    []time.Duration
	sortValid bool
}

// Observe records one sample.
func (l *Latency) Observe(d time.Duration) {
	l.mu.Lock()
	l.count++
	l.sum += d
	if len(l.res) < LatencyReservoir {
		l.res = append(l.res, d)
	} else if j := l.next() % uint64(l.count); j < LatencyReservoir {
		// Algorithm R: sample i (1-based) replaces a random slot with
		// probability K/i, keeping every prefix uniformly represented.
		l.res[j] = d
	}
	l.sortValid = false
	l.mu.Unlock()
}

// next advances the xorshift64 state (seeded on first use; deterministic,
// and contention-free because callers hold l.mu).
func (l *Latency) next() uint64 {
	if l.rng == 0 {
		l.rng = 0x9e3779b97f4a7c15
	}
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return l.rng
}

// Count returns the number of samples observed (exact).
func (l *Latency) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.count)
}

// Mean returns the average latency (exact; 0 with no samples).
func (l *Latency) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Sum returns the cumulative observed time (exact).
func (l *Latency) Sum() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sum
}

// Percentile returns the p-th percentile (0 < p <= 100), estimated from
// the reservoir once the stream exceeds its capacity. Repeated calls
// without intervening Observes reuse the cached sorted view (no copy, no
// sort), keeping scrape cost flat.
func (l *Latency) Percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.res) == 0 {
		return 0
	}
	if !l.sortValid {
		l.sorted = append(l.sorted[:0], l.res...)
		sort.Slice(l.sorted, func(i, j int) bool { return l.sorted[i] < l.sorted[j] })
		l.sortValid = true
	}
	s := l.sorted
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Throughput measures completed units per second over a wall-clock span.
type Throughput struct {
	mu    sync.Mutex
	count int64
	start time.Time
	end   time.Time
}

// Start marks the beginning of the measured span.
func (t *Throughput) Start(now time.Time) {
	t.mu.Lock()
	t.start = now
	t.mu.Unlock()
}

// Add records completed units.
func (t *Throughput) Add(n int64, now time.Time) {
	t.mu.Lock()
	t.count += n
	t.end = now
	t.mu.Unlock()
}

// PerSecond returns units per second across the span.
func (t *Throughput) PerSecond() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 || !t.end.After(t.start) {
		return 0
	}
	return float64(t.count) / t.end.Sub(t.start).Seconds()
}

// Count returns the number of completed units.
func (t *Throughput) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Mean accumulates float samples (average cluster size, etc.).
type Mean struct {
	mu    sync.Mutex
	sum   float64
	count int64
}

// Observe records one sample.
func (m *Mean) Observe(v float64) {
	m.mu.Lock()
	m.sum += v
	m.count++
	m.mu.Unlock()
}

// Value returns the mean (0 with no samples).
func (m *Mean) Value() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// CheckpointStats aggregates checkpoint-path observability counters: how
// long operators spend capturing and encoding state inside the barrier
// handler, how long the store upload takes, how many bytes each cut
// persists, and how many cuts completed. One instance is shared by the
// flow runtime (capture/encode) and the checkpoint coordinator (upload,
// cuts). All methods are atomic and nil-receiver safe, so call sites need
// no wiring guards.
type CheckpointStats struct {
	captureNs int64
	encodeNs  int64
	uploadNs  int64
	bytes     int64
	fullCuts  int64
}

// AddCapture records time spent capturing operator state inside the
// barrier handler (the hot-path stall).
func (s *CheckpointStats) AddCapture(d time.Duration) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.captureNs, int64(d))
}

// AddEncode records time spent assembling one subtask's state blob and the
// blob's size in bytes.
func (s *CheckpointStats) AddEncode(d time.Duration, bytes int) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.encodeNs, int64(d))
	atomic.AddInt64(&s.bytes, int64(bytes))
}

// AddUpload records time spent persisting state to the checkpoint store.
func (s *CheckpointStats) AddUpload(d time.Duration) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.uploadNs, int64(d))
}

// CountCut records one completed checkpoint.
func (s *CheckpointStats) CountCut() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.fullCuts, 1)
}

// CheckpointSnapshot is a point-in-time copy of CheckpointStats.
type CheckpointSnapshot struct {
	// Capture is cumulative hot-path stall: operator state capture inside
	// the barrier handler, summed over subtask cuts.
	Capture time.Duration
	// Encode is cumulative blob assembly time.
	Encode time.Duration
	// Upload is cumulative store persistence time.
	Upload time.Duration
	// Bytes is the total state bytes written across all cuts.
	Bytes int64
	// FullCuts counts completed checkpoints. DeltaCuts is always 0: every
	// cut is a full-state snapshot. It stays so reports that sum the two
	// keep compiling.
	DeltaCuts, FullCuts int64
}

// Snapshot returns a consistent-enough copy for reporting (individual
// fields are read atomically).
func (s *CheckpointStats) Snapshot() CheckpointSnapshot {
	if s == nil {
		return CheckpointSnapshot{}
	}
	return CheckpointSnapshot{
		Capture:  time.Duration(atomic.LoadInt64(&s.captureNs)),
		Encode:   time.Duration(atomic.LoadInt64(&s.encodeNs)),
		Upload:   time.Duration(atomic.LoadInt64(&s.uploadNs)),
		Bytes:    atomic.LoadInt64(&s.bytes),
		FullCuts: atomic.LoadInt64(&s.fullCuts),
	}
}

// Report is one experiment measurement row.
type Report struct {
	// LatencyMean is the average per-snapshot detection latency.
	LatencyMean time.Duration
	// LatencyP95 is the 95th-percentile latency.
	LatencyP95 time.Duration
	// ThroughputPerSec is snapshots processed per second.
	ThroughputPerSec float64
	// AvgClusterSize is the mean DBSCAN cluster cardinality.
	AvgClusterSize float64
	// Snapshots is the number of snapshots measured.
	Snapshots int64
	// Patterns is the number of patterns reported.
	Patterns int64
}

func (r Report) String() string {
	return fmt.Sprintf("latency=%.3fms p95=%.3fms throughput=%.1f/s avgCluster=%.1f snapshots=%d patterns=%d",
		float64(r.LatencyMean.Microseconds())/1000,
		float64(r.LatencyP95.Microseconds())/1000,
		r.ThroughputPerSec, r.AvgClusterSize, r.Snapshots, r.Patterns)
}
