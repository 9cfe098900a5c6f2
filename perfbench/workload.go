package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dbscan"
	"repro/internal/enum"
	"repro/internal/geo"
	"repro/internal/join"
	"repro/internal/model"
)

// workload is one named input set plus the deployment it runs on. The
// benchmark sets only deployment options (parallelism, source partitions,
// checkpoint cadence) and workload semantics (constraints, eps, cell
// width, MinPts); every mode switch stays at the pipeline's default.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// rate is the open-loop offered load in ticks per second: about a third
	// of the capacity measured on a 2-core box. The box's speed swings by a
	// third from second to second (vCPU contention); at half capacity the
	// slow spells pushed the system near saturation and the latency tails
	// did not repeat from run to run.
	rate float64
	// records feeds PushRecord + PushSourceWatermark through this many
	// source partitions instead of PushSnapshot (0 = snapshot feed).
	records int
	// dist runs a coordinator plus distWorkers workers over loopback TCP,
	// with aligned checkpoints every ckptEvery ticks and OnCommit delivery.
	dist      bool
	ckptEvery int
	// gen makes the tick-ordered input stream from the seed.
	gen func(seed int64, ticks int) []*model.Snapshot
	// det is the detection semantics (constraints, eps, cell width, MinPts).
	det core.Config
}

// distWorkers is the worker count of distributed workloads: two, but
// never more workers than cores.
var distWorkers = min(2, runtime.NumCPU())

// convoyInputs is the full-churn planted workload: groups of 6 co-moving
// objects among independently wandering noise, every object moving every
// tick. Co-movement runs (45-75 ticks) outlast the FBA window (Eta = 30
// ticks at K/L/G = 18/3/3), so each pattern is emitted as its window
// closes; runs near the window length would split pattern delays into two
// modes with the median sitting on the edge between them. The world is
// sparse enough that two groups rarely travel together: a merged pair of
// 12 co-moving objects emits thousands of subset patterns at once.
func convoyInputs(objects int) func(int64, int) []*model.Snapshot {
	return func(seed int64, ticks int) []*model.Snapshot {
		const group = 6
		groups := objects / 2 / group
		g := datagen.NewPlanted(datagen.PlantedConfig{
			Seed:      seed,
			NumGroups: groups,
			GroupSize: group,
			NumNoise:  objects - groups*group,
			Extent:    8000,
			Eps:       10,
			RunLen:    60,
			GapLen:    4,
			Speed:     8,
		})
		return take(g.Next, ticks)
	}
}

// depotInputs is the low-churn workload: ~1000 objects dwell in hubs of
// ~20, spread too wide to form clusters, and 10% of them take a small
// step each tick. Beside the hubs, in a region of their own, 25 planted
// groups of 6 drift slowly and give the stream a steady trickle of
// patterns; a random cluster among the dwellers would instead emit
// patterns with a seed-dependent delay.
func depotInputs(seed int64, ticks int) []*model.Snapshot {
	const dwellers, groups, group, extent, margin = 1050, 25, 6, 8000, 20
	c := datagen.DefaultChurn(seed, dwellers, 0.1, 0.5)
	c.Extent, c.NumHubs, c.HubRadius = extent, dwellers/20, 300
	hubs := datagen.NewChurn(c)
	convoys := datagen.NewPlanted(datagen.PlantedConfig{
		Seed: seed + 1, NumGroups: groups, GroupSize: group,
		Extent: extent, Eps: 10, RunLen: 60, GapLen: 4, Speed: 2,
	})
	// The generator clamps walkers to the world's edge, so the members of
	// a hub placed across an edge pile up on one line and grow into one
	// huge cluster. Dwellers that start near or beyond an edge are left
	// out; a walk this slow never carries the rest there.
	var keep map[model.ObjectID]bool
	return take(func() *model.Snapshot {
		h := hubs.Next()
		if keep == nil {
			keep = map[model.ObjectID]bool{}
			for i, o := range h.Objects {
				l := h.Locs[i]
				keep[o] = l.X >= margin && l.Y >= margin && l.X <= extent-margin && l.Y <= extent-margin
			}
		}
		s := &model.Snapshot{Tick: h.Tick}
		for i, o := range h.Objects {
			if keep[o] {
				s.Add(o, h.Locs[i])
			}
		}
		p := convoys.Next()
		for i, o := range p.Objects {
			s.Add(o+dwellers, geo.Point{X: p.Locs[i].X + 2*extent, Y: p.Locs[i].Y})
		}
		return s
	}, ticks)
}

func take(next func() *model.Snapshot, n int) []*model.Snapshot {
	out := make([]*model.Snapshot, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

var convoyDet = core.Config{
	Constraints: model.Constraints{M: 5, K: 18, L: 3, G: 3},
	Eps:         10,
	CellWidth:   40,
	MinPts:      4,
}

// depotDet needs six objects within eps for a core point: every planted
// group of 6 clusters, while the loosely spread hubs form no clusters
// whose patterns would straddle the enumeration window and split the
// pattern delays into two modes.
var depotDet = func() core.Config {
	c := convoyDet
	c.MinPts = 6
	return c
}()

var workloads = []workload{
	{
		name: "convoy",
		why:  "full churn: 1000 objects, all moving every tick, fed by snapshot at 180 ticks/s (a third of capacity); allocate, rangejoin, cluster and enumerate on the path, no source, wire or ckpt",
		rate: 180,
		gen:  convoyInputs(1000),
		det:  convoyDet,
	},
	{
		name:    "depot",
		why:     "low churn: ~1200 objects, ~15% moving per tick, fed record by record into 2 source partitions at 180 ticks/s (a third of capacity): source and allocate carry the load",
		rate:    180,
		records: 2,
		gen:     depotInputs,
		det:     depotDet,
	},
	{
		name:      "convoy-dist",
		why:       "convoy's inputs and schedule over loopback TCP (2 workers), checkpoints every 16 ticks, exactly-once OnCommit: the only workload with wire, ckpt and commit hold on the path",
		rate:      180,
		dist:      true,
		ckptEvery: 16,
		gen:       convoyInputs(1000),
		det:       convoyDet,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// reference is the sequential oracle for one input stream: the pattern
// digest every pipeline run must reproduce, plus the single-threaded cost
// of each phase.
type reference struct {
	digest  digest
	pats    []model.Pattern // sorted canonically
	join    time.Duration
	dbscan  time.Duration
	enum    time.Duration
	records int64
}

// runReference clusters each snapshot with the RJC range join and DBSCAN,
// enumerates with the enumerator the pipeline defaults to, and times the
// three phases separately.
func runReference(snaps []*model.Snapshot, det core.Config) (*reference, error) {
	filled, err := filledConfig(det)
	if err != nil {
		return nil, err
	}
	mk, err := enumerator(filled.Enum)
	if err != nil {
		return nil, err
	}
	eng := join.NewRJC(join.Params{Eps: filled.Eps, CellWidth: filled.CellWidth, Metric: filled.Metric})
	ref := &reference{}
	history := make([]*model.ClusterSnapshot, len(snaps))
	var pairs [][2]int32
	for i, s := range snaps {
		pairs = pairs[:0]
		t0 := time.Now()
		eng.Join(s, func(a, b int32) { pairs = append(pairs, [2]int32{a, b}) })
		t1 := time.Now()
		history[i] = dbscan.ToClusterSnapshot(s, dbscan.FromPairs(s.Len(), pairs, filled.MinPts))
		ref.join += t1.Sub(t0)
		ref.dbscan += time.Since(t1)
	}
	t0 := time.Now()
	pats := enum.NewDriver(filled.Constraints, mk).Run(history)
	ref.enum = time.Since(t0)
	for _, p := range pats {
		ref.digest.add(p)
	}
	ref.pats = pats
	return ref, nil
}

// filledConfig resolves every default the pipeline would apply to cfg,
// through the same spec round trip distributed workers use.
func filledConfig(cfg core.Config) (core.Config, error) {
	spec, err := core.EncodeSpec(cfg)
	if err != nil {
		return core.Config{}, err
	}
	return core.DecodeSpec(spec)
}

func enumerator(m core.EnumMethod) (enum.NewFunc, error) {
	switch m {
	case core.FBA:
		return enum.NewFBA, nil
	case core.VBA:
		return enum.NewVBA, nil
	case core.BA:
		return enum.NewBA, nil
	}
	return nil, fmt.Errorf("no sequential enumerator for %q", m)
}
