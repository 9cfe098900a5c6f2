// Package bench regenerates the paper's evaluation (Section 7): every
// figure and table has a runner that sweeps the same parameter, runs the
// same competitor set, and prints the same series — latency (ms),
// throughput (snapshots/s), and average cluster size where the paper shows
// it.
//
// Scale: the paper streams 24-190 M GPS points through an 11-node cluster;
// this harness defaults to scaled-down synthetic datasets (internal/datagen
// documents each substitution) sized to finish on one machine. Absolute
// numbers therefore differ from the paper; compare shapes instead (who
// wins, by what factor, where curves cross).
//
// Parameter mapping: eps and lg are expressed as percentages of the
// dataset's maximal coordinate extent, exactly as in Table 3. The temporal
// constraints are the paper's defaults divided by 10 (K=18, L=3, G=3 vs
// 180/30/30) because the streams are ~10x shorter than the originals;
// sweeps scale the paper's ranges the same way.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geo"
	"repro/internal/model"
)

// Scale sizes the generated datasets.
type Scale struct {
	Objects int
	Ticks   int
}

// SmallScale keeps `go test -bench` runs short.
var SmallScale = Scale{Objects: 400, Ticks: 150}

// FullScale is the cmd/bench default.
var FullScale = Scale{Objects: 1500, Ticks: 600}

// Params carries the experiment defaults (Table 3, temporal values /10).
type Params struct {
	EpsPct float64 // eps as % of extent (bold default 0.06%)
	LgPct  float64 // lg as % of extent (bold default 1.6%)
	M      int
	K      int
	L      int
	G      int
	MinPts int
	// Parallelism per pipeline stage.
	Parallelism int
	// Nodes caps execution slots (0 = uncapped).
	Nodes int
}

// DefaultParams returns the bold Table 3 defaults, scaled: temporal
// values /10 (shorter streams) and M = 5 (the paper's M = 15 targets its
// clusters of 25-60 objects; the scaled workloads cluster 10-20).
func DefaultParams() Params {
	return Params{
		EpsPct:      0.06,
		LgPct:       1.6,
		M:           5,
		K:           18,
		L:           3,
		G:           3,
		MinPts:      10,
		Parallelism: 4,
	}
}

// Dataset is one generated workload.
type Dataset struct {
	Name      string
	Snapshots []*model.Snapshot
	// Extent is the maximal coordinate span, the reference for eps/lg
	// percentages.
	Extent    float64
	Objects   int
	Locations int
}

// MakeDataset generates one of the three paper datasets (scaled) or the
// planted workload. Names: "geolife", "taxi", "brinkhoff", "planted".
func MakeDataset(name string, seed int64, sc Scale) Dataset {
	var sim datagen.Simulator
	switch name {
	case "geolife":
		sim = datagen.NewHub(datagen.DefaultGeoLife(seed, sc.Objects))
	case "taxi":
		sim = datagen.NewHub(datagen.DefaultTaxi(seed, sc.Objects))
	case "brinkhoff":
		sim = datagen.NewBrinkhoff(datagen.DefaultBrinkhoff(seed, sc.Objects))
	case "planted":
		cfg := datagen.DefaultPlanted(seed)
		cfg.NumGroups = sc.Objects / 40
		if cfg.NumGroups < 2 {
			cfg.NumGroups = 2
		}
		cfg.GroupSize = 20
		cfg.NumNoise = sc.Objects - cfg.NumGroups*cfg.GroupSize
		if cfg.NumNoise < 0 {
			cfg.NumNoise = 0
		}
		cfg.RunLen = 40
		cfg.GapLen = 3
		sim = datagen.NewPlanted(cfg)
	case "churn":
		// Default churn shape: 10% of objects move per tick by ~eps.
		sim = datagen.NewChurn(datagen.DefaultChurn(seed, sc.Objects, 0.1, 1.2))
	default:
		panic("bench: unknown dataset " + name)
	}
	return fromSim(name, sim, sc.Ticks)
}

// fromSim materializes a simulator into a Dataset.
func fromSim(name string, sim datagen.Simulator, ticks int) Dataset {
	snaps := datagen.Snapshots(sim, ticks)
	ext := sim.Extent()
	span := ext.MaxX - ext.MinX
	if dy := ext.MaxY - ext.MinY; dy > span {
		span = dy
	}
	locs := 0
	for _, s := range snaps {
		locs += s.Len()
	}
	return Dataset{
		Name:      name,
		Snapshots: snaps,
		Extent:    span,
		Objects:   sim.Objects(),
		Locations: locs,
	}
}

// MakeChurnDataset generates the fixed-churn workload with explicit
// move-fraction and step-size knobs (datagen.Churn): the control dataset
// for the incremental execution mode, whose cost scales with how much of
// the population moves per tick.
func MakeChurnDataset(seed int64, sc Scale, moveFraction, stepSize float64) Dataset {
	sim := datagen.NewChurn(datagen.DefaultChurn(seed, sc.Objects, moveFraction, stepSize))
	return fromSim("churn", sim, sc.Ticks)
}

// config assembles a core.Config for a dataset and parameter set.
func (d Dataset) config(p Params, cl core.ClusterMethod, en core.EnumMethod) core.Config {
	return core.Config{
		Constraints:  model.Constraints{M: p.M, K: p.K, L: p.L, G: p.G},
		Eps:          d.Extent * p.EpsPct / 100,
		CellWidth:    d.Extent * p.LgPct / 100,
		Metric:       geo.L1,
		MinPts:       p.MinPts,
		Cluster:      cl,
		Enum:         en,
		Nodes:        p.Nodes,
		SlotsPerNode: 2,
		Parallelism:  p.Parallelism,
	}
}

// Row is one measured point of a series.
type Row struct {
	X          string
	LatencyMS  float64
	Throughput float64
	ClusterMS  float64 // clustering share of latency (stacked bars)
	// ReportMS is the mean delay from a pattern's first witness tick to
	// its emission — the responsiveness where FBA beats VBA.
	ReportMS   float64
	AvgCluster float64
	Patterns   int64
	Failed     bool // BA overflow etc.
}

// Series is one competitor's curve.
type Series struct {
	Label string
	Rows  []Row
}

// runOnce streams a dataset through a pipeline configuration with bounded
// in-flight admission: at most maxInFlight snapshots are unfinished at any
// moment, so latency measures processing depth rather than unbounded
// source backlog (the paper's streams arrive at sensor rate; an unthrottled
// replay would only measure queueing).
func runOnce(d Dataset, cfg core.Config) (Row, error) {
	// The admission window is constant across all experiments so latency
	// comparisons (including the node sweep) measure processing speed, not
	// configuration-dependent queue depth.
	const maxInFlight = 32
	tokens := make(chan struct{}, maxInFlight)
	cfg.OnTickComplete = func(model.Tick) { <-tokens }
	pipe, err := core.New(cfg)
	if err != nil {
		return Row{}, err
	}
	pipe.Start()
	for _, s := range d.Snapshots {
		tokens <- struct{}{}
		// Reset ingest stamps: datasets are reused across runs.
		c := s.Clone()
		c.Ingest = time.Time{}
		pipe.PushSnapshot(c)
	}
	res := pipe.Finish()
	rep := res.Metrics.Report()
	return Row{
		LatencyMS:  ms(rep.LatencyMean),
		Throughput: rep.ThroughputPerSec,
		ClusterMS:  ms(res.Metrics.ClusterLatency.Mean()),
		ReportMS:   ms(res.Metrics.PatternLatency.Mean()),
		AvgCluster: rep.AvgClusterSize,
		Patterns:   rep.Patterns,
		Failed:     res.BAOverflow,
	}, nil
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// PrintSeries renders experiment output as aligned columns.
func PrintSeries(w io.Writer, title string, xName string, series []Series) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for _, s := range series {
		fmt.Fprintf(w, "%-24s %10s %12s %12s %11s %10s %10s %9s\n",
			s.Label+" ("+xName+")", "x", "latency_ms", "cluster_ms", "report_ms", "tput/s", "avgclust", "patterns")
		for _, r := range s.Rows {
			status := ""
			if r.Failed {
				status = "  [OVERFLOW]"
			}
			fmt.Fprintf(w, "%-24s %10s %12.3f %12.3f %11.3f %10.1f %10.1f %9d%s\n",
				"", r.X, r.LatencyMS, r.ClusterMS, r.ReportMS, r.Throughput, r.AvgCluster, r.Patterns, status)
		}
	}
}

// RunOne runs a single configuration and returns its measured row
// (exported for ad-hoc tools and tests).
func RunOne(d Dataset, p Params, cl core.ClusterMethod, en core.EnumMethod) Row {
	row, err := runOnce(d, d.config(p, cl, en))
	if err != nil {
		panic(err)
	}
	return row
}
