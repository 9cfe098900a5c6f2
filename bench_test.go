package icpe

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 7). Each iteration regenerates the experiment at reduced scale;
// run `go test -bench=. -benchmem` for the quick pass or `go run
// ./cmd/bench` for the full sweeps.

import (
	"io"
	"testing"

	"repro/internal/bench"
)

// benchScale keeps testing.B iterations short; cmd/bench uses FullScale.
var benchScale = bench.SmallScale

func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard, 42, benchScale)
	}
}

func BenchmarkFig10ClusteringVsEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(io.Discard, 42, benchScale)
	}
}

func BenchmarkFig11ClusteringVsCellWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig11(io.Discard, 42, benchScale)
	}
}

func BenchmarkFig12DetectionVsObjectRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig12(io.Discard, 42, benchScale)
	}
}

func BenchmarkFig13DetectionVsEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig13(io.Discard, 42, benchScale)
	}
}

func BenchmarkFig14DetectionVsNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig14(io.Discard, 42, benchScale)
	}
}

func BenchmarkFig15EnumerationVsConstraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig15(io.Discard, 42, benchScale)
	}
}

func BenchmarkAblationLemmas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Ablation(io.Discard, 42, benchScale)
	}
}
