// Package topology declares a streaming pipeline as data: an ordered list
// of stage specs joined by keyed exchanges. A Graph is validated and then
// compiled onto the flow runtime, keeping three concerns separate:
//
//   - internal/ops: operator logic (what each stage computes);
//   - internal/topology: wiring (which stages exist, their parallelism,
//     and how their exchanges batch and buffer);
//   - internal/flow: execution (subtasks, transports, watermarks, slots).
//
// Because a Graph is plain data, alternative deployments — different
// parallelism per stage, batched vs record-at-a-time edges, a different
// Transport — are configuration changes, not code changes. The standard
// ICPE pipeline is declared this way in internal/core; new workloads
// (convoy mining, evolving groups) declare their own graphs against the
// same operator packages.
package topology

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Stage declares one operator stage of a pipeline.
type Stage struct {
	// Name labels the stage; must be non-empty and unique within the graph.
	Name string
	// Parallelism is the subtask count (>= 1).
	Parallelism int
	// Operator constructs the per-subtask operator instance.
	Operator func(subtask int) flow.Operator
}

// Exchange declares the keyed edge between two adjacent stages. Records
// are hash-routed by the key the upstream operator emits with; Exchange
// only configures how the edge moves them.
type Exchange struct {
	// Batch coalesces up to this many records per flow.Batch carrier on
	// the upstream side of the edge; <= 1 ships record-at-a-time. Batches
	// are sealed when full and on every watermark, so event-time semantics
	// are unchanged.
	Batch int
	// Buffer is the per-subtask input queue capacity downstream
	// (0 = flow default).
	Buffer int
}

// Graph is a declarative pipeline: stages executed in order, wired by
// keyed exchanges, terminated by a sink.
type Graph struct {
	// Name labels the pipeline in diagnostics.
	Name string
	// Stages execute in order; records flow from Stages[i] to Stages[i+1].
	Stages []Stage
	// Exchanges[i] configures the edge from Stages[i] to Stages[i+1]. It
	// may be nil or shorter than len(Stages)-1; missing entries use
	// defaults (unbatched, default buffer).
	Exchanges []Exchange
	// MaxParallelism is the graph's key-group count (0 = flow default):
	// every keyed exchange routes by hash(key) % MaxParallelism and keyed
	// state is checkpointed per key group, so stage parallelism can change
	// between a checkpoint and its resume while MaxParallelism cannot —
	// it is part of the job's identity, not its deployment. Every stage's
	// Parallelism must be ≤ MaxParallelism.
	MaxParallelism int
	// Slots caps concurrently executing operators across the whole graph
	// (nodes x slots-per-node); 0 = unbounded.
	Slots int
	// Sink receives records emitted by the last stage (serialized).
	Sink func(any)
	// SinkWatermark receives the merged low-water mark behind the last
	// stage.
	SinkWatermark func(model.Tick)
	// Transport supplies the exchange fabric (nil = in-process channels).
	Transport flow.Transport
	// Local restricts which stages execute in this process (nil = all);
	// distributed deployments pair it with a multi-process Transport so
	// each worker builds the same graph but runs only its share.
	Local func(stage int) bool
	// OnCheckpointState forwards subtask state snapshots taken at aligned
	// checkpoint barriers (see flow.Config.OnCheckpointState); the driver
	// routes them to the ckpt coordinator, workers to the control plane.
	OnCheckpointState func(id uint64, stage, subtask int, state []byte, err error)
	// SinkBarrier observes each checkpoint barrier's arrival behind the
	// last stage (the output-commit cut).
	SinkBarrier func(id uint64)
	// Restore supplies checkpointed subtask state on resume.
	Restore func(stage, subtask int) []byte
	// CkptStats, when non-nil, accrues checkpoint capture/encode counters
	// (see flow.Config.Stats).
	CkptStats *metrics.CheckpointStats
}

// Validate checks the graph for structural errors: it must have at least
// one stage, stage names must be non-empty and unique, every stage needs a
// positive parallelism no greater than the graph's max parallelism and an
// operator factory, and exchange specs must be well-formed and attached to
// an existing edge.
func (g *Graph) Validate() error {
	if len(g.Stages) == 0 {
		return fmt.Errorf("topology %q: no stages", g.Name)
	}
	if g.MaxParallelism < 0 {
		return fmt.Errorf("topology %q: negative max parallelism %d", g.Name, g.MaxParallelism)
	}
	maxPar := g.MaxParallelism
	if maxPar == 0 {
		maxPar = flow.DefaultMaxParallelism
	}
	seen := make(map[string]struct{}, len(g.Stages))
	for i, st := range g.Stages {
		if st.Name == "" {
			return fmt.Errorf("topology %q: stage %d has no name", g.Name, i)
		}
		if _, dup := seen[st.Name]; dup {
			return fmt.Errorf("topology %q: duplicate stage name %q", g.Name, st.Name)
		}
		seen[st.Name] = struct{}{}
		if st.Parallelism < 1 {
			return fmt.Errorf("topology %q: stage %q parallelism %d", g.Name, st.Name, st.Parallelism)
		}
		if st.Parallelism > maxPar {
			return fmt.Errorf("topology %q: stage %q parallelism %d exceeds max parallelism %d",
				g.Name, st.Name, st.Parallelism, maxPar)
		}
		if st.Operator == nil {
			return fmt.Errorf("topology %q: stage %q has no operator", g.Name, st.Name)
		}
	}
	if len(g.Exchanges) > len(g.Stages)-1 {
		return fmt.Errorf("topology %q: %d exchanges for %d edges",
			g.Name, len(g.Exchanges), len(g.Stages)-1)
	}
	for i, ex := range g.Exchanges {
		if ex.Batch < 0 {
			return fmt.Errorf("topology %q: exchange %s->%s batch %d",
				g.Name, g.Stages[i].Name, g.Stages[i+1].Name, ex.Batch)
		}
		if ex.Buffer < 0 {
			return fmt.Errorf("topology %q: exchange %s->%s buffer %d",
				g.Name, g.Stages[i].Name, g.Stages[i+1].Name, ex.Buffer)
		}
	}
	if g.Slots < 0 {
		return fmt.Errorf("topology %q: negative slots %d", g.Name, g.Slots)
	}
	return nil
}

// Build validates the graph and compiles it onto the flow runtime. The
// returned pipeline is not yet started.
func (g *Graph) Build() (*flow.Pipeline, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	specs := make([]flow.StageSpec, len(g.Stages))
	for i, st := range g.Stages {
		specs[i] = flow.StageSpec{
			Name:        st.Name,
			Parallelism: st.Parallelism,
			Make:        st.Operator,
		}
	}
	for i, ex := range g.Exchanges {
		specs[i].OutBatch = ex.Batch
		specs[i+1].BufSize = ex.Buffer
	}
	return flow.NewPipeline(flow.Config{
		MaxParallelism:    g.MaxParallelism,
		Slots:             g.Slots,
		Sink:              g.Sink,
		SinkWatermark:     g.SinkWatermark,
		Transport:         g.Transport,
		Local:             g.Local,
		OnCheckpointState: g.OnCheckpointState,
		SinkBarrier:       g.SinkBarrier,
		Restore:           g.Restore,
		Stats:             g.CkptStats,
	}, specs...), nil
}
