// Command bench regenerates the paper's evaluation figures and tables.
//
// Usage:
//
//	bench [-exp all|table2|table3|fig10|fig11|fig12|fig13|fig14|fig15|ablation|pipeline]
//	      [-objects N] [-ticks N] [-seed S] [-json FILE]
//
// Output is printed as aligned series (one per competitor) with latency,
// throughput and average cluster size, mirroring the paper's plots.
//
// The pipeline experiment measures per-stage throughput and keyed-exchange
// records/sec on the in-process vs the multi-process TCP transport; with
// -json it writes the machine-readable report (see `make bench-json`,
// which produces BENCH_pipeline.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

// writeJSON runs fn against -json FILE when set, stdout otherwise.
func writeJSON(path string, w io.Writer, fn func(io.Writer) error) error {
	if path == "" {
		return fn(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func main() {
	exp := flag.String("exp", "all", "experiment: all, table2, table3, fig10..fig15, ablation, pipeline (comma-separated)")
	objects := flag.Int("objects", bench.FullScale.Objects, "number of moving objects")
	ticks := flag.Int("ticks", bench.FullScale.Ticks, "stream length in ticks")
	seed := flag.Int64("seed", 42, "workload seed")
	jsonPath := flag.String("json", "", "write the pipeline experiment's JSON report to this file (default stdout)")
	flag.Parse()

	sc := bench.Scale{Objects: *objects, Ticks: *ticks}
	w := os.Stdout
	for _, e := range strings.Split(*exp, ",") {
		switch strings.TrimSpace(e) {
		case "all":
			bench.All(w, *seed, sc)
		case "table2":
			bench.Table2(w, *seed, sc)
		case "table3":
			bench.Table3(w)
		case "fig10":
			bench.Fig10(w, *seed, sc)
		case "fig11":
			bench.Fig11(w, *seed, sc)
		case "fig12":
			bench.Fig12(w, *seed, sc)
		case "fig13":
			bench.Fig13(w, *seed, sc)
		case "fig14":
			bench.Fig14(w, *seed, sc)
		case "fig15":
			bench.Fig15(w, *seed, sc)
		case "ablation":
			bench.Ablation(w, *seed, sc)
		case "pipeline":
			if err := writeJSON(*jsonPath, w, func(out io.Writer) error {
				return bench.PipelineJSON(out, *seed, sc)
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", e)
			os.Exit(2)
		}
	}
}
