package bench

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/datagen"
)

// Sweep ranges: the paper's Table 3 with temporal values scaled /10 to
// match the shorter streams.
var (
	EpsSweep = []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	LgSweep  = []float64{0.2, 0.4, 0.8, 1.6, 3.2, 6.4}
	OrSweep  = []float64{0.10, 0.20, 0.40, 0.60, 0.80, 1.00}
	NSweep   = []int{1, 2, 4, 6, 8, 10}
	MSweep   = []int{5, 10, 15, 20, 25}
	KSweep   = []int{12, 15, 18, 21, 24}
	LSweep   = []int{1, 2, 3, 4, 5}
	GSweep   = []int{1, 2, 3, 4, 5}
)

// Table2 prints the dataset statistics table for the generated workloads.
func Table2(w io.Writer, seed int64, sc Scale) {
	fmt.Fprintf(w, "\n== Table 2: datasets (generated; see internal/datagen for substitutions) ==\n")
	fmt.Fprintf(w, "%-12s %14s %14s %12s\n", "dataset", "#trajectories", "#locations", "#snapshots")
	for _, name := range []string{"geolife", "taxi", "brinkhoff"} {
		d := MakeDataset(name, seed, sc)
		fmt.Fprintf(w, "%-12s %14d %14d %12d\n", d.Name, d.Objects, d.Locations, len(d.Snapshots))
	}
}

// Table3 prints the parameter grid (defaults in brackets).
func Table3(w io.Writer) {
	fmt.Fprintf(w, "\n== Table 3: parameter ranges (temporal values = paper/10; defaults bracketed) ==\n")
	fmt.Fprintf(w, "%-24s %v  default [%.2f%%]\n", "grid cell width lg (%)", LgSweep, DefaultParams().LgPct)
	fmt.Fprintf(w, "%-24s %v  default [%.2f%%]\n", "distance threshold eps", EpsSweep, DefaultParams().EpsPct)
	fmt.Fprintf(w, "%-24s %v  default [%d]\n", "min objects M", MSweep, DefaultParams().M)
	fmt.Fprintf(w, "%-24s %v  default [%d]\n", "min duration K", KSweep, DefaultParams().K)
	fmt.Fprintf(w, "%-24s %v  default [%d]\n", "min local duration L", LSweep, DefaultParams().L)
	fmt.Fprintf(w, "%-24s %v  default [%d]\n", "max gap G", GSweep, DefaultParams().G)
	fmt.Fprintf(w, "%-24s %v  default [100%%]\n", "ratio of objects Or", OrSweep)
	fmt.Fprintf(w, "%-24s %v  default [uncapped]\n", "machine number N", NSweep)
	fmt.Fprintf(w, "%-24s %d (fixed, as in the paper)\n", "minPts", DefaultParams().MinPts)
}

// clusterEngines are the Figure 10/11 competitors.
var clusterEngines = []core.ClusterMethod{core.SRJ, core.GDC, core.RJC}

// Fig10 measures clustering latency and throughput vs eps on all three
// datasets, for SRJ, GDC and RJC (enumeration disabled, as the paper
// isolates clustering).
func Fig10(w io.Writer, seed int64, sc Scale) {
	for _, name := range []string{"geolife", "taxi", "brinkhoff"} {
		d := MakeDataset(name, seed, sc)
		var series []Series
		for _, eng := range clusterEngines {
			s := Series{Label: string(eng)}
			for _, eps := range EpsSweep {
				p := DefaultParams()
				p.EpsPct = eps
				row, err := runOnce(d, d.config(p, eng, core.NoEnum))
				if err != nil {
					panic(err)
				}
				row.X = fmt.Sprintf("%.2f%%", eps)
				s.Rows = append(s.Rows, row)
			}
			series = append(series, s)
		}
		PrintSeries(w, "Fig 10: clustering vs eps — "+name, "eps", series)
	}
}

// Fig11 measures clustering latency and throughput vs grid width lg.
func Fig11(w io.Writer, seed int64, sc Scale) {
	for _, name := range []string{"geolife", "taxi", "brinkhoff"} {
		d := MakeDataset(name, seed, sc)
		var series []Series
		for _, eng := range clusterEngines {
			s := Series{Label: string(eng)}
			for _, lg := range LgSweep {
				p := DefaultParams()
				p.LgPct = lg
				row, err := runOnce(d, d.config(p, eng, core.NoEnum))
				if err != nil {
					panic(err)
				}
				row.X = fmt.Sprintf("%.2f%%", lg)
				s.Rows = append(s.Rows, row)
			}
			series = append(series, s)
		}
		PrintSeries(w, "Fig 11: clustering vs lg — "+name, "lg", series)
	}
}

// detectionMethods are the Figure 12 competitors (B, F, V).
var detectionMethods = []core.EnumMethod{core.BA, core.FBA, core.VBA}

// Fig12 measures full pattern-detection latency (stacked cluster+enum),
// throughput, and average cluster size vs the object ratio Or, on the
// taxi-like and brinkhoff-like workloads. The exponential baseline
// overflows on large ratios, reproducing the paper's "B cannot run"
// observation.
func Fig12(w io.Writer, seed int64, sc Scale) {
	for _, name := range []string{"taxi", "brinkhoff"} {
		d := MakeDataset(name, seed, sc)
		var series []Series
		for _, en := range detectionMethods {
			s := Series{Label: string(en)}
			for _, or := range OrSweep {
				sub := d
				sub.Snapshots = datagen.SubsampleObjects(d.Snapshots, d.Objects, or)
				p := DefaultParams()
				row, err := runOnce(sub, sub.config(p, core.RJC, en))
				if err != nil {
					panic(err)
				}
				row.X = fmt.Sprintf("%.0f%%", or*100)
				s.Rows = append(s.Rows, row)
			}
			series = append(series, s)
		}
		PrintSeries(w, "Fig 12: detection vs Or — "+name, "Or", series)
	}
}

// Fig13 measures detection latency/throughput vs eps for FBA and VBA.
func Fig13(w io.Writer, seed int64, sc Scale) {
	for _, name := range []string{"taxi", "brinkhoff"} {
		d := MakeDataset(name, seed, sc)
		var series []Series
		for _, en := range []core.EnumMethod{core.FBA, core.VBA} {
			s := Series{Label: string(en)}
			for _, eps := range EpsSweep {
				p := DefaultParams()
				p.EpsPct = eps
				row, err := runOnce(d, d.config(p, core.RJC, en))
				if err != nil {
					panic(err)
				}
				row.X = fmt.Sprintf("%.2f%%", eps)
				s.Rows = append(s.Rows, row)
			}
			series = append(series, s)
		}
		PrintSeries(w, "Fig 13: detection vs eps — "+name, "eps", series)
	}
}

// Fig14 measures detection latency/throughput vs the simulated node count.
// Each node contributes two execution slots; the simulation pins
// GOMAXPROCS to the total slot count so the parallel speedup is real CPU
// scaling, not semaphore arbitration.
func Fig14(w io.Writer, seed int64, sc Scale) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, name := range []string{"taxi", "brinkhoff"} {
		d := MakeDataset(name, seed, sc)
		var series []Series
		for _, en := range []core.EnumMethod{core.FBA, core.VBA} {
			s := Series{Label: string(en)}
			for _, n := range NSweep {
				slots := 2 * n
				if slots > old {
					slots = old // cannot simulate more cores than exist
				}
				runtime.GOMAXPROCS(slots)
				p := DefaultParams()
				p.Parallelism = 2 * n // subtasks spread across node slots
				row, err := runOnce(d, d.config(p, core.RJC, en))
				runtime.GOMAXPROCS(old)
				if err != nil {
					panic(err)
				}
				row.X = fmt.Sprintf("%d", n)
				s.Rows = append(s.Rows, row)
			}
			series = append(series, s)
		}
		PrintSeries(w, "Fig 14: detection vs N — "+name, "N", series)
	}
}

// Fig15 measures enumeration performance vs each of the four constraints,
// FBA against VBA, on the brinkhoff-like workload (as in the paper).
func Fig15(w io.Writer, seed int64, sc Scale) {
	d := MakeDataset("brinkhoff", seed, sc)
	sweep := func(title, xn string, xs []int, apply func(*Params, int)) {
		var series []Series
		for _, en := range []core.EnumMethod{core.FBA, core.VBA} {
			s := Series{Label: string(en)}
			for _, x := range xs {
				p := DefaultParams()
				apply(&p, x)
				if p.L > p.K {
					p.L = p.K
				}
				row, err := runOnce(d, d.config(p, core.RJC, en))
				if err != nil {
					panic(err)
				}
				row.X = fmt.Sprintf("%d", x)
				s.Rows = append(s.Rows, row)
			}
			series = append(series, s)
		}
		PrintSeries(w, title, xn, series)
	}
	sweep("Fig 15(a,b): enumeration vs M — brinkhoff", "M", MSweep, func(p *Params, x int) { p.M = x })
	sweep("Fig 15(c,d): enumeration vs K — brinkhoff", "K", KSweep, func(p *Params, x int) { p.K = x })
	sweep("Fig 15(e,f): enumeration vs L — brinkhoff", "L", LSweep, func(p *Params, x int) { p.L = x })
	sweep("Fig 15(g,h): enumeration vs G — brinkhoff", "G", GSweep, func(p *Params, x int) { p.G = x })
}

// All runs every experiment, including the lemma ablation.
func All(w io.Writer, seed int64, sc Scale) {
	Table2(w, seed, sc)
	Table3(w)
	Fig10(w, seed, sc)
	Fig11(w, seed, sc)
	Fig12(w, seed, sc)
	Fig13(w, seed, sc)
	Fig14(w, seed, sc)
	Fig15(w, seed, sc)
	Ablation(w, seed, sc)
}
