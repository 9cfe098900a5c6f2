package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/join"
)

// Ablation measures each optimization lemma's contribution to the range
// join (a design-choice study: the paper motivates both lemmas but does
// not isolate them). It clusters every snapshot of each
// dataset with the four RJC variants and reports per-snapshot time and the
// raw pair emissions (duplicates produced before filtering).
func Ablation(w io.Writer, seed int64, sc Scale) {
	fmt.Fprintf(w, "\n== Ablation: Lemma 1 (upper-half replication) x Lemma 2 (interleaved build+probe) ==\n")
	fmt.Fprintf(w, "%-10s %-22s %12s %14s %14s\n",
		"dataset", "variant", "ms/snapshot", "raw_pairs", "unique_pairs")
	for _, name := range []string{"geolife", "taxi", "brinkhoff"} {
		d := MakeDataset(name, seed, sc)
		p := DefaultParams()
		eps := d.Extent * p.EpsPct / 100
		lg := d.Extent * p.LgPct / 100
		jp := join.Params{Eps: eps, CellWidth: lg, Metric: geo.L1}
		for _, v := range []struct {
			l1, l2 bool
		}{{true, true}, {false, true}, {true, false}, {false, false}} {
			eng := join.NewAblation(jp, v.l1, v.l2)
			cl := &cluster.Clusterer{Engine: eng, MinPts: p.MinPts}
			unique := 0
			start := time.Now()
			for _, s := range d.Snapshots {
				cs := cl.Cluster(s)
				for _, c := range cs.Clusters {
					unique += len(c)
				}
			}
			elapsed := time.Since(start)
			perSnap := float64(elapsed.Microseconds()) / 1000 / float64(len(d.Snapshots))
			fmt.Fprintf(w, "%-10s %-22s %12.3f %14d %14d\n",
				d.Name, eng.Name(), perSnap, eng.Raw(), unique)
		}
	}
}
