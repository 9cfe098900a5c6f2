GO ?= go

.PHONY: all build test test-race vet fmt-check bench bench-json fuzz obs-check ci

all: build test vet

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-source) execution order every
# run, so accidental inter-test state dependencies surface in CI instead
# of in the field.
test:
	$(GO) test -shuffle=on ./...

# test-race runs the concurrency-heavy packages (the flow runtime with its
# subtask goroutines, barrier alignment and key-group snapshot paths, the
# multi-process TCP transport, and the partitioned ingestion front fed by
# concurrent publishers — including the sharded allocate stage whose
# property tests drive concurrent pipelines) under the race detector, plus the delta-maintenance
# packages (stateful rangejoin/clusterop and the structures behind them)
# whose equivalence tests drive full concurrent pipelines.
test-race:
	$(GO) test -race ./internal/flow/... ./internal/transport/... ./internal/stream/... ./internal/ops/sourceop/... ./internal/ops/allocate/... ./internal/netsrc/... ./internal/core/... ./internal/dbscan/... ./internal/join/... ./internal/ops/rangejoin/... ./internal/ops/clusterop/... ./internal/ckpt/... ./internal/obs/...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed in:"; echo "$$out"; exit 1; \
	fi

# BenchmarkExchange compares batched vs record-at-a-time keyed exchange
# (the batched rows should show >= 1.5x the unbatched rec/s);
# BenchmarkCodecLookup covers the atomic-snapshot codec registry on the
# frame hot path, and BenchmarkWireEncode the pooled message encoder
# (TestWireEncodeAllocs asserts its 0 allocs/op). BenchmarkFBA runs FBA
# enumeration over a convoy-like cluster history (TestFBAProcessAllocs
# asserts steady-state windows allocate nothing).
bench:
	$(GO) test ./internal/flow -run '^$$' -bench 'BenchmarkExchange|BenchmarkCodecLookup' -benchtime=1s
	$(GO) test ./internal/ops/msg -run '^$$' -bench BenchmarkWireEncode -benchtime=1s
	$(GO) test ./internal/enum -run '^$$' -bench BenchmarkFBA -benchtime=1s

# bench-json writes BENCH_pipeline.json: per-stage throughput and total
# keyed-exchange records/sec for the in-process vs multi-process TCP
# transports on a seeded planted workload (the perf trajectory's anchor),
# plus checkpoint-enabled variants reporting overhead vs interval, plus an
# incremental section comparing from-scratch vs delta-maintenance
# snapshots/sec (wall-clock and combined rangejoin+cluster stage time) at
# 10%/50%/100% churn, plus a front_end section measuring allocate-stage
# scaling at parallelism 1/2/4 on a ~10k-object record stream with hard
# pattern-equality checks against the snapshot-path oracle.
bench-json:
	$(GO) run ./cmd/bench -exp pipeline -objects 300 -ticks 200 -json BENCH_pipeline.json

# fuzz runs each codec fuzz target briefly (the committed seed corpus
# already runs on every `make test`): the ops/msg wire codecs, the
# key-group state codec the checkpoint files are built from, and the TRJ1
# trajectory decoder behind netsrc.
fuzz:
	$(GO) test ./internal/ops/msg -fuzz FuzzDecodePayload -fuzztime 30s
	$(GO) test ./internal/ops/msg -fuzz FuzzDecodeMessage -fuzztime 30s
	$(GO) test ./internal/ops/msg -fuzz FuzzWireBatchRoundTrip -fuzztime 30s
	$(GO) test ./internal/ops/msg -fuzz FuzzPairsRoundTrip -fuzztime 30s
	$(GO) test ./internal/ops/msg -fuzz FuzzRecRoundTrip -fuzztime 30s
	$(GO) test ./internal/ops/msg -fuzz FuzzCellDeltaRoundTrip -fuzztime 30s
	$(GO) test ./internal/ops/msg -fuzz FuzzPairDeltaRoundTrip -fuzztime 30s
	$(GO) test ./internal/flow -fuzz FuzzDecodeGroupStates -fuzztime 30s
	$(GO) test ./internal/trajio -fuzz FuzzBinReader -fuzztime 30s

# obs-check boots the observability-instrumented pipeline, scrapes its
# /metrics endpoint over real HTTP, strict-parses the Prometheus text
# exposition, and fails on a parse error, a missing required family, or
# counters that did not move.
obs-check:
	$(GO) run ./cmd/obscheck

ci: build vet fmt-check test obs-check
