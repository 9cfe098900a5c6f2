// Package ckpt is the checkpoint/recovery subsystem: aligned-barrier
// checkpointing in the style the paper inherits from Flink (Chandy-Lamport
// with pipeline-injected barriers), adapted to the flow runtime.
//
// # Checkpoint protocol
//
// The driver assigns a monotonically increasing id to each checkpoint and
// injects a barrier message for that id at the pipeline source, between two
// snapshots of the trajectory stream. Barriers travel the same edges as
// records (FIFO per edge), so the set of records ahead of a barrier is
// exactly the stream prefix the checkpoint covers. Each subtask aligns the
// barrier across its input senders — input from senders whose barrier
// already arrived is buffered until the rest catch up — takes a state
// snapshot at the aligned point, acknowledges it to the Coordinator, and
// forwards the barrier downstream. A checkpoint is therefore a consistent
// cut: every acknowledged state reflects precisely the records derived from
// the source prefix, no more, no less.
//
// The Coordinator collects one ack per subtask (the alignment and snapshot
// mechanics live in internal/flow; operators implement Snapshotter). When
// every subtask has acked, the state blobs and a Manifest recording the
// replayable source position are committed to a Store; the manifest write
// is the checkpoint's atomic commit point. On recovery the driver loads the
// latest committed manifest, restores each subtask's state before it
// processes any input, and re-feeds the source from the recorded position.
//
// # Output commit
//
// Completion also gates exactly-once output: the driver withholds sink
// output emitted after the previous cut until the covering checkpoint is
// durable (see core.Config.OnCommit), so a crash never publishes output
// that a resumed run would derive again.
//
// # Checkpoint policy
//
// There is one policy: every cut is a full-state snapshot taken
// synchronously at the aligned barrier. Each subtask captures and encodes
// its state inside the barrier handler and acks before forwarding the
// barrier; the store persists one framed state file plus an atomically
// renamed manifest per checkpoint and keeps the most recent ones by id.
// Restoring a checkpoint therefore reads exactly one state file, and
// rescaling re-slices its key-group frames.
package ckpt

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Snapshotter is implemented by operators with keyed state that must
// survive a crash. SnapshotState serializes the operator's complete state
// at an aligned barrier; RestoreState reconstructs it in a freshly built
// operator before any post-cut input is processed. An operator whose state
// is empty should return a nil/empty blob; restore is skipped for empty
// blobs. Stateless operators implement both as no-ops, which documents that
// their omission from a checkpoint is deliberate rather than an oversight.
//
// A plain Snapshotter's state is subtask-scoped: it restores only into a
// topology with the same parallelism. Operators whose state should survive
// a rescale implement GroupSnapshotter instead.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// GroupSnapshotter is the rescalable form of Snapshotter: keyed state is
// emitted as one blob per key group — group(key) is the pipeline's
// key→group mapping, identical to the exchange routing — and restore
// merges any number of group blobs into a freshly built operator. Because
// key groups are parallelism-independent, a checkpoint taken at
// parallelism p restores at any parallelism p' ≤ MaxParallelism: each new
// subtask receives exactly the groups in its range, re-sliced from the old
// subtask blobs (see Reshard). Groups with no state are omitted from the
// returned map; RestoreGroup is called once per non-empty group blob,
// before any input is processed.
type GroupSnapshotter interface {
	SnapshotGroups(group func(key uint64) int) (map[int][]byte, error)
	RestoreGroup(data []byte) error
}

// SourcePosition is the replayable source offset of a checkpoint cut: the
// barrier for the checkpoint was injected immediately after this many
// snapshots, the last of which carried LastTick. Resume re-feeds the stream
// starting at the first snapshot with tick > LastTick.
//
// Jobs with a partitioned source layer instead record one PartitionPosition
// per source partition: the cut falls at a different offset in every shard
// (partitions consume at independent rates), so resume replays each shard
// from its own offset. Snapshots then counts source records and LastTick is
// the highest tick fed to any partition.
type SourcePosition struct {
	// Snapshots is the number of source units (snapshots, or records with a
	// partitioned source) fed before the cut.
	Snapshots int64 `json:"snapshots"`
	// LastTick is the tick of the last snapshot inside the cut (partitioned
	// source: the highest record tick fed before the cut).
	LastTick model.Tick `json:"last_tick"`
	// Partitions, when the job runs a partitioned source layer, is each
	// source partition's replay offset at the cut, indexed by partition.
	Partitions []PartitionPosition `json:"partitions,omitempty"`
}

// PartitionPosition is one source partition's replay offset: how many of
// the shard's records were fed before the cut, and the highest tick among
// them. A driver replaying a deterministic stream skips the first Records
// records of each shard; non-deterministic feeds (multiple network
// publishers) replay everything and rely on the restored source-partition
// state to drop records the checkpoint already absorbed.
type PartitionPosition struct {
	// Records is the number of the shard's records fed before the cut.
	Records int64 `json:"records"`
	// LastTick is the highest tick fed to this partition before the cut
	// (model.NoLastTime for a partition that never received a record).
	LastTick model.Tick `json:"last_tick"`
}

// StageInfo describes one pipeline stage inside a manifest, so recovery can
// verify the restored topology is compatible with the checkpointed one.
type StageInfo struct {
	Name        string `json:"name"`
	Parallelism int    `json:"parallelism"`
	// Ranges[s] is the half-open key-group range [start, end) whose state
	// subtask s's blob covers (filled from the job's MaxParallelism when
	// the manifest is committed). Reshard cross-checks every decoded group
	// frame against it, so a blob that disagrees with its manifest fails
	// the resume instead of restoring keys into the wrong buckets.
	Ranges [][2]int `json:"ranges,omitempty"`
}

// Manifest is the commit record of one completed checkpoint. Its presence
// in the Store marks the checkpoint complete; state blobs without a
// manifest belong to an in-flight or aborted checkpoint and are ignored.
type Manifest struct {
	// ID is the checkpoint id (monotonically increasing within a job).
	ID uint64 `json:"id"`
	// Source is the replayable source position of the cut.
	Source SourcePosition `json:"source"`
	// MaxParallelism is the key-group count the state blobs are bucketed
	// by. A resuming job must use the same value (the key→group mapping is
	// the state's address space), but may use any per-stage parallelism up
	// to it. 0 marks a legacy manifest whose blobs are subtask-scoped.
	MaxParallelism int `json:"max_parallelism,omitempty"`
	// Stages records the topology the states were taken from.
	Stages []StageInfo `json:"stages"`
	// Spec is the application's configuration fingerprint (opaque to this
	// package; internal/core stores its encoded fingerprint). Resume
	// validates it so checkpointed state is never restored into a job with
	// different semantics (e.g. another enumeration method). Deployment
	// knobs like parallelism are deliberately absent from it.
	Spec []byte `json:"spec,omitempty"`
}

// Validate checks a manifest against the topology a resuming job built:
// same stages in the same order, same max parallelism (the state's
// address space), and every new parallelism within it. The per-stage
// parallelism itself may differ — that is the rescale path; Reshard
// re-slices the blobs. Legacy manifests (MaxParallelism 0) require the
// exact parallelism that took them.
func (m *Manifest) Validate(stages []StageInfo, maxParallelism int) error {
	if len(m.Stages) != len(stages) {
		return fmt.Errorf("ckpt: manifest has %d stages, topology has %d",
			len(m.Stages), len(stages))
	}
	if m.MaxParallelism != 0 && m.MaxParallelism != maxParallelism {
		return fmt.Errorf("ckpt: manifest max parallelism %d, topology uses %d (the key→group mapping would change)",
			m.MaxParallelism, maxParallelism)
	}
	for i, st := range stages {
		old := m.Stages[i]
		if old.Name != st.Name {
			return fmt.Errorf("ckpt: manifest stage %d is %q, topology built %q",
				i, old.Name, st.Name)
		}
		if st.Parallelism < 1 {
			return fmt.Errorf("ckpt: stage %q parallelism %d", st.Name, st.Parallelism)
		}
		if m.MaxParallelism == 0 {
			if old.Parallelism != st.Parallelism {
				return fmt.Errorf("ckpt: legacy manifest stage %q has parallelism %d, topology built %d (rescale needs key-group state)",
					st.Name, old.Parallelism, st.Parallelism)
			}
			continue
		}
		if st.Parallelism > m.MaxParallelism {
			return fmt.Errorf("ckpt: stage %q parallelism %d exceeds checkpoint max parallelism %d",
				st.Name, st.Parallelism, m.MaxParallelism)
		}
	}
	return nil
}

// Store persists checkpoint state. Implementations must make Commit atomic:
// a manifest is either fully readable afterwards or absent, never torn.
// Put may be called concurrently for different (stage, subtask) pairs of
// one checkpoint.
type Store interface {
	// Put writes one subtask's state blob for an in-flight checkpoint.
	Put(id uint64, stage string, subtask int, state []byte) error
	// Commit atomically publishes the manifest, completing the checkpoint,
	// and may garbage-collect older checkpoints.
	Commit(m Manifest) error
	// Latest returns the most recent committed manifest, or nil when the
	// store holds no completed checkpoint.
	Latest() (*Manifest, error)
	// State reads one subtask's blob from a committed checkpoint.
	State(id uint64, stage string, subtask int) ([]byte, error)
}

// Coordinator tracks in-flight checkpoints for one job: the driver calls
// Begin when it injects a barrier, subtask acks arrive via Ack (locally
// from the flow runtime, or forwarded over the tcpnet control plane), and
// when every subtask of every stage has acked, the manifest is committed
// and OnComplete fires. A failed snapshot aborts the checkpoint: the run
// continues and the next interval tries again, exactly like Flink's
// tolerable checkpoint failures.
type Coordinator struct {
	store  Store
	stages []StageInfo
	expect int

	// OnComplete, when set before the first Begin, observes every committed
	// manifest (the driver uses it to release withheld sink output). Called
	// from the goroutine delivering the final ack.
	OnComplete func(Manifest)
	// Spec, when set before the first Begin, is stamped into every
	// committed manifest (see Manifest.Spec).
	Spec []byte
	// MaxParallelism, when set before the first Begin, is stamped into
	// every committed manifest along with the per-blob key-group ranges it
	// implies (see Manifest.MaxParallelism). 0 writes legacy subtask-scoped
	// manifests.
	MaxParallelism int
	// Stats, when non-nil, accrues checkpoint observability counters
	// (state upload time, completed cuts).
	Stats *metrics.CheckpointStats
	// Logf reports aborted checkpoints (default log-free: silent).
	Logf func(format string, args ...any)

	mu       sync.Mutex
	inflight map[uint64]*inflight
	lastDone uint64
	haveDone bool
}

type inflight struct {
	src    SourcePosition
	seen   map[[2]int]struct{} // (stage, subtask) pairs received (dedup)
	stored int                 // acks whose state write has completed
	failed bool
}

// NewCoordinator builds a coordinator for one job's topology.
func NewCoordinator(store Store, stages []StageInfo) (*Coordinator, error) {
	if store == nil {
		return nil, fmt.Errorf("ckpt: nil store")
	}
	expect := 0
	for _, st := range stages {
		if st.Name == "" || st.Parallelism < 1 {
			return nil, fmt.Errorf("ckpt: bad stage %+v", st)
		}
		expect += st.Parallelism
	}
	if expect == 0 {
		return nil, fmt.Errorf("ckpt: no stages")
	}
	return &Coordinator{
		store:    store,
		stages:   stages,
		expect:   expect,
		inflight: make(map[uint64]*inflight),
	}, nil
}

// Stages returns the topology the coordinator expects acks for.
func (c *Coordinator) Stages() []StageInfo { return c.stages }

// Begin opens checkpoint id at the given source position. The driver calls
// it immediately before injecting the barrier, so acks can never race an
// unknown id.
func (c *Coordinator) Begin(id uint64, src SourcePosition) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.inflight[id]; dup {
		return fmt.Errorf("ckpt: checkpoint %d already in flight", id)
	}
	if c.haveDone && id <= c.lastDone {
		return fmt.Errorf("ckpt: checkpoint id %d not after last completed %d", id, c.lastDone)
	}
	c.inflight[id] = &inflight{src: src, seen: make(map[[2]int]struct{}, c.expect)}
	return nil
}

// Ack records one subtask's snapshot for checkpoint id. stage indexes the
// coordinator's stage list; snapErr is the subtask's snapshot failure, if
// any (which aborts the checkpoint). Acks for unknown ids (aborted, or
// from before a driver restart) are dropped.
func (c *Coordinator) Ack(id uint64, stage, subtask int, state []byte, snapErr error) {
	c.mu.Lock()
	fl := c.inflight[id]
	if fl == nil {
		c.mu.Unlock()
		return
	}
	if stage < 0 || stage >= len(c.stages) ||
		subtask < 0 || subtask >= c.stages[stage].Parallelism {
		c.abortLocked(id, fl, fmt.Errorf("ack for unknown subtask %d/%d", stage, subtask))
		c.mu.Unlock()
		return
	}
	// Completion needs one ack per distinct subtask: a duplicated control
	// frame must not let a checkpoint commit with another subtask's state
	// missing.
	if _, dup := fl.seen[[2]int{stage, subtask}]; dup {
		c.mu.Unlock()
		return
	}
	fl.seen[[2]int{stage, subtask}] = struct{}{}
	name := c.stages[stage].Name
	if snapErr != nil {
		c.abortLocked(id, fl, fmt.Errorf("stage %s subtask %d: %w", name, subtask, snapErr))
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	// The blob write happens outside the lock: stores may hit disk.
	t0 := time.Now()
	err := c.store.Put(id, name, subtask, state)
	c.Stats.AddUpload(time.Since(t0))
	if err != nil {
		c.mu.Lock()
		c.abortLocked(id, fl, err)
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	if c.inflight[id] != fl { // aborted meanwhile
		c.mu.Unlock()
		return
	}
	// Count completion only AFTER this ack's state write finished: a
	// not-yet-written blob must never be committable, so the final ack's
	// commit cannot race an earlier ack's in-flight Put.
	fl.stored++
	if fl.stored < c.expect || fl.failed {
		c.mu.Unlock()
		return
	}
	delete(c.inflight, id)
	if c.haveDone && id < c.lastDone {
		// A newer checkpoint is already durable (acks are asynchronous, so
		// completion order can invert): this one is superseded — recovery
		// always resumes from the latest cut — and committing it would only
		// risk shadowing newer state. Drop it.
		newer := c.lastDone
		c.mu.Unlock()
		c.logf("ckpt: checkpoint %d superseded by %d, dropped", id, newer)
		return
	}
	m := Manifest{
		ID: id, Source: fl.src, Spec: c.Spec,
		MaxParallelism: c.MaxParallelism,
		Stages:         manifestStages(c.stages, c.MaxParallelism),
	}
	done := c.OnComplete
	c.mu.Unlock()
	t1 := time.Now()
	err = c.store.Commit(m)
	c.Stats.AddUpload(time.Since(t1))
	if err != nil {
		c.logf("ckpt: checkpoint %d commit: %v", id, err)
		return
	}
	c.Stats.CountCut()
	c.mu.Lock()
	if !c.haveDone || id > c.lastDone {
		c.lastDone, c.haveDone = id, true
	}
	c.mu.Unlock()
	if done != nil {
		done(m)
	}
}

// Completed returns the highest checkpoint id committed by this
// coordinator instance (ok is false before the first completion).
func (c *Coordinator) Completed() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastDone, c.haveDone
}

// abortLocked drops an in-flight checkpoint; later acks for it are ignored.
func (c *Coordinator) abortLocked(id uint64, fl *inflight, err error) {
	fl.failed = true
	delete(c.inflight, id)
	c.logf("ckpt: checkpoint %d aborted: %v", id, err)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// BulkStateReader is an optional Store extension: stores whose blobs live
// in one container per checkpoint (DirStore's framed state file) expose a
// single-read bulk load so restoring S stages x P subtasks does not
// re-read and re-scan the container S*P times.
type BulkStateReader interface {
	// States returns every subtask blob of a committed checkpoint, keyed
	// by StateKey.
	States(id uint64) (map[string][]byte, error)
}

// readStates loads every subtask blob of one committed checkpoint, keyed
// by StateKey, using the store's bulk reader when it has one.
func readStates(store Store, id uint64, stages []StageInfo) (map[string][]byte, error) {
	if bulk, ok := store.(BulkStateReader); ok {
		return bulk.States(id)
	}
	out := make(map[string][]byte)
	for _, st := range stages {
		for sub := 0; sub < st.Parallelism; sub++ {
			blob, err := store.State(id, st.Name, sub)
			if err != nil {
				return nil, err
			}
			out[StateKey(st.Name, sub)] = blob
		}
	}
	return out, nil
}

// AllStates loads every subtask's state of a committed checkpoint, keyed
// by StateKey. Every non-empty blob must carry a format tag this build
// restores (StateGroups or StateRaw); anything else — such as the
// incremental-delta blobs older releases wrote — fails the load with the
// checkpoint id, so a resume refuses the directory at construction
// instead of starting subtasks from partial state.
func AllStates(store Store, m *Manifest) (map[string][]byte, error) {
	states, err := readStates(store, m.ID, m.Stages)
	if err != nil {
		return nil, err
	}
	for key, blob := range states {
		if len(blob) == 0 {
			delete(states, key)
			continue
		}
		if tag := blob[0]; tag != flow.StateGroups && tag != flow.StateRaw {
			return nil, fmt.Errorf("ckpt: checkpoint %d state %s has unknown format %d (not a full-state checkpoint)", m.ID, key, tag)
		}
	}
	return states, nil
}

// manifestStages annotates stage descriptors with the key-group range each
// subtask blob covers (nil ranges for legacy subtask-scoped manifests).
func manifestStages(stages []StageInfo, maxParallelism int) []StageInfo {
	if maxParallelism <= 0 {
		return stages
	}
	out := make([]StageInfo, len(stages))
	for i, st := range stages {
		st.Ranges = make([][2]int, st.Parallelism)
		for s := 0; s < st.Parallelism; s++ {
			start, end := flow.KeyGroupRange(maxParallelism, st.Parallelism, s)
			st.Ranges[s] = [2]int{start, end}
		}
		out[i] = st
	}
	return out
}

// Reshard re-slices a checkpoint's subtask state blobs onto a new
// per-stage parallelism. target lists the resuming topology's stages
// (same names and order as the manifest; validate with Manifest.Validate
// first). Stages whose parallelism is unchanged pass their blobs through
// untouched; a changed parallelism requires every non-empty blob of that
// stage to be key-group framed — the per-group frames from all old
// subtasks are re-bucketed so the blob for new subtask s holds exactly
// the groups in KeyGroupRange(max, newParallelism, s). The result is
// keyed by StateKey over the NEW subtask indices; empty blobs are
// omitted.
func Reshard(states map[string][]byte, m *Manifest, target []StageInfo) (map[string][]byte, error) {
	out := make(map[string][]byte, len(states))
	for i, old := range m.Stages {
		nt := target[i]
		if nt.Parallelism == old.Parallelism {
			for s := 0; s < old.Parallelism; s++ {
				if blob := states[StateKey(old.Name, s)]; len(blob) > 0 {
					out[StateKey(old.Name, s)] = blob
				}
			}
			continue
		}
		if m.MaxParallelism <= 0 {
			return nil, fmt.Errorf("ckpt: stage %q cannot rescale %d -> %d: legacy subtask-scoped checkpoint",
				old.Name, old.Parallelism, nt.Parallelism)
		}
		perSub := make(map[int]map[int][]byte) // new subtask -> group -> blob
		for s := 0; s < old.Parallelism; s++ {
			blob := states[StateKey(old.Name, s)]
			if len(blob) == 0 {
				continue
			}
			groups, err := flow.DecodeGroupStates(blob)
			if err != nil {
				return nil, fmt.Errorf("ckpt: stage %q subtask %d cannot rescale %d -> %d: %w",
					old.Name, s, old.Parallelism, nt.Parallelism, err)
			}
			for _, g := range groups {
				if g.Group < 0 || g.Group >= m.MaxParallelism {
					return nil, fmt.Errorf("ckpt: stage %q subtask %d: key group %d outside [0, %d)",
						old.Name, s, g.Group, m.MaxParallelism)
				}
				// The manifest records the range each blob covers; a frame
				// outside it means the blob and the manifest disagree
				// (corruption, or a drifted range assignment) — refuse
				// rather than restore keys into the wrong buckets.
				if s < len(old.Ranges) {
					if r := old.Ranges[s]; g.Group < r[0] || g.Group >= r[1] {
						return nil, fmt.Errorf("ckpt: stage %q subtask %d: key group %d outside its manifest range [%d, %d)",
							old.Name, s, g.Group, r[0], r[1])
					}
				}
				ns := flow.SubtaskForGroup(g.Group, m.MaxParallelism, nt.Parallelism)
				if perSub[ns] == nil {
					perSub[ns] = make(map[int][]byte)
				}
				perSub[ns][g.Group] = g.Data
			}
		}
		for ns, groups := range perSub {
			if blob := flow.EncodeGroupStates(groups); len(blob) > 0 {
				out[StateKey(old.Name, ns)] = blob
			}
		}
	}
	return out, nil
}

// RestoreFunc builds the (stage, subtask) -> state lookup a resuming
// pipeline installs (flow.Config.Restore), re-sliced onto the resuming
// topology's per-stage parallelism in target (which may differ from the
// manifest's — the elastic-rescale path). All blobs are loaded up front
// (one container read on bulk-capable stores), so an unreadable or
// un-reshardable checkpoint fails the resume at construction instead of
// silently starting a subtask empty.
func RestoreFunc(store Store, m *Manifest, target []StageInfo) (func(stage, subtask int) []byte, error) {
	states, err := AllStates(store, m)
	if err != nil {
		return nil, err
	}
	if states, err = Reshard(states, m, target); err != nil {
		return nil, err
	}
	return func(stage, subtask int) []byte {
		if stage < 0 || stage >= len(target) {
			return nil
		}
		return states[StateKey(target[stage].Name, subtask)]
	}, nil
}
