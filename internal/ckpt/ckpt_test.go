package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/flow"
)

func testStages() []StageInfo {
	return []StageInfo{
		{Name: "allocate", Parallelism: 2},
		{Name: "cluster", Parallelism: 3},
	}
}

// ackAll delivers one successful ack per subtask for checkpoint id, each
// a raw-format blob naming its checkpoint and subtask.
func ackAll(c *Coordinator, id uint64) {
	for si, st := range c.Stages() {
		for sub := 0; sub < st.Parallelism; sub++ {
			c.Ack(id, si, sub, flow.EncodeRawState([]byte(fmt.Sprintf("%d/%d/%d", id, si, sub))), nil)
		}
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if m, err := store.Latest(); err != nil || m != nil {
		t.Fatalf("empty store Latest = %v, %v", m, err)
	}
	if err := store.Put(1, "cluster", 0, []byte("state")); err != nil {
		t.Fatal(err)
	}
	// Uncommitted blobs are invisible.
	if m, err := store.Latest(); err != nil || m != nil {
		t.Fatalf("uncommitted Latest = %v, %v", m, err)
	}
	man := Manifest{ID: 1, Source: SourcePosition{Snapshots: 10, LastTick: 9}, Stages: testStages()}
	if err := store.Commit(man); err != nil {
		t.Fatal(err)
	}
	got, err := store.Latest()
	if err != nil || got == nil {
		t.Fatalf("Latest after commit = %v, %v", got, err)
	}
	if got.ID != 1 || !reflect.DeepEqual(got.Source, man.Source) || len(got.Stages) != 2 {
		t.Fatalf("manifest round trip: %+v", got)
	}
	blob, err := store.State(1, "cluster", 0)
	if err != nil || string(blob) != "state" {
		t.Fatalf("State = %q, %v", blob, err)
	}
	if _, err := store.State(1, "cluster", 1); err == nil {
		t.Fatal("missing blob read succeeded")
	}
}

func TestDirStoreRetention(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 4; id++ {
		if err := store.Put(id, "s", 0, []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(Manifest{ID: id, Stages: []StageInfo{{Name: "s", Parallelism: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := store.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 4 {
		t.Fatalf("retained %v, want [3 4]", ids)
	}
	m, err := store.Latest()
	if err != nil || m == nil || m.ID != 4 {
		t.Fatalf("Latest = %+v, %v", m, err)
	}
}

func TestDirStoreDropsAbandonedAttempts(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint 1 commits, 2 is abandoned (blobs, no manifest), 3 commits.
	stages := []StageInfo{{Name: "s", Parallelism: 1}}
	if err := store.Put(1, "s", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(Manifest{ID: 1, Stages: stages}); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(2, "s", 0, []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(3, "s", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(Manifest{ID: 3, Stages: stages}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), "chk-2")); !os.IsNotExist(err) {
		t.Fatalf("abandoned chk-2 survived gc: %v", err)
	}
	m, err := store.Latest()
	if err != nil || m == nil || m.ID != 3 {
		t.Fatalf("Latest = %+v, %v", m, err)
	}
}

func TestCoordinatorCompletes(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(store, testStages())
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		done []Manifest
	)
	coord.OnComplete = func(m Manifest) {
		mu.Lock()
		done = append(done, m)
		mu.Unlock()
	}
	if err := coord.Begin(1, SourcePosition{Snapshots: 5, LastTick: 4}); err != nil {
		t.Fatal(err)
	}
	ackAll(coord, 1)
	if len(done) != 1 || done[0].ID != 1 || done[0].Source.Snapshots != 5 {
		t.Fatalf("OnComplete saw %+v", done)
	}
	if id, ok := coord.Completed(); !ok || id != 1 {
		t.Fatalf("Completed = %d, %v", id, ok)
	}
	// The committed states are readable via the manifest.
	restore, err := RestoreFunc(store, &done[0], done[0].Stages)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(restore(1, 2)); got != string(flow.EncodeRawState([]byte("1/1/2"))) {
		t.Fatalf("restore = %q", got)
	}
	// Duplicate Begin is rejected; acks for unknown ids are dropped.
	if err := coord.Begin(1, SourcePosition{}); err == nil {
		t.Fatal("duplicate Begin accepted")
	}
	coord.Ack(99, 0, 0, nil, nil) // must not panic or commit
	if id, _ := coord.Completed(); id != 1 {
		t.Fatalf("unknown ack changed completion to %d", id)
	}
}

func TestCoordinatorAbortsOnSnapshotError(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(store, testStages())
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	coord.OnComplete = func(Manifest) { completed++ }
	if err := coord.Begin(7, SourcePosition{}); err != nil {
		t.Fatal(err)
	}
	coord.Ack(7, 0, 0, nil, errors.New("serialization failed"))
	ackAll(coord, 7) // stragglers after the abort
	if completed != 0 {
		t.Fatal("aborted checkpoint completed")
	}
	if _, ok := coord.Completed(); ok {
		t.Fatal("aborted checkpoint recorded as done")
	}
	// The next checkpoint is unaffected.
	if err := coord.Begin(8, SourcePosition{Snapshots: 1}); err != nil {
		t.Fatal(err)
	}
	ackAll(coord, 8)
	if completed != 1 {
		t.Fatalf("checkpoint 8 completions = %d", completed)
	}
	m, err := store.Latest()
	if err != nil || m == nil || m.ID != 8 {
		t.Fatalf("Latest = %+v, %v", m, err)
	}
}

// A duplicated ack frame (or one for a nonexistent subtask) must not let
// a checkpoint commit with another subtask's state missing.
func TestDuplicateAndBogusAcks(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(store, []StageInfo{{Name: "s", Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Begin(1, SourcePosition{}); err != nil {
		t.Fatal(err)
	}
	coord.Ack(1, 0, 0, []byte("a"), nil)
	coord.Ack(1, 0, 0, []byte("a"), nil) // duplicate: must not count twice
	if _, ok := coord.Completed(); ok {
		t.Fatal("checkpoint committed from duplicated acks")
	}
	coord.Ack(1, 0, 1, []byte("b"), nil)
	if id, ok := coord.Completed(); !ok || id != 1 {
		t.Fatalf("Completed = %d, %v after full acks", id, ok)
	}
	// Out-of-range subtask aborts the checkpoint instead of counting.
	if err := coord.Begin(2, SourcePosition{}); err != nil {
		t.Fatal(err)
	}
	coord.Ack(2, 0, 5, nil, nil)
	coord.Ack(2, 0, 0, nil, nil)
	coord.Ack(2, 0, 1, nil, nil)
	if id, _ := coord.Completed(); id != 1 {
		t.Fatalf("aborted checkpoint 2 committed (completed=%d)", id)
	}
}

// Acks are asynchronous, so a newer checkpoint can finish before an older
// one. The older checkpoint must then be dropped (not committed), and
// retention must keep the highest ids — a regression test for the gc
// deleting the newest cut when completion order inverted.
func TestOutOfOrderCompletion(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stages := []StageInfo{{Name: "s", Parallelism: 2}}
	coord, err := NewCoordinator(store, stages)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 4; id++ {
		if err := coord.Begin(id, SourcePosition{Snapshots: int64(id) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints 1, 2, 4 complete; 3's second ack arrives last.
	for _, id := range []uint64{1, 2, 4} {
		coord.Ack(id, 0, 0, []byte{byte(id)}, nil)
		coord.Ack(id, 0, 1, []byte{byte(id)}, nil)
	}
	coord.Ack(3, 0, 0, []byte{3}, nil)
	coord.Ack(3, 0, 1, []byte{3}, nil) // completes after 4: superseded
	man, err := store.Latest()
	if err != nil || man == nil {
		t.Fatalf("Latest = %v, %v", man, err)
	}
	if man.ID != 4 {
		t.Fatalf("Latest = checkpoint %d, want 4 (newest cut must survive)", man.ID)
	}
	if blob, err := store.State(4, "s", 0); err != nil || len(blob) != 1 || blob[0] != 4 {
		t.Fatalf("checkpoint 4 state = %v, %v", blob, err)
	}
	if id, ok := coord.Completed(); !ok || id != 4 {
		t.Fatalf("Completed = %d, %v", id, ok)
	}
}

func TestManifestValidate(t *testing.T) {
	// Legacy manifest (no max parallelism): exact parallelism required.
	m := Manifest{Stages: testStages()}
	if err := m.Validate(testStages(), 0); err != nil {
		t.Fatal(err)
	}
	other := testStages()
	other[1].Parallelism = 4
	if err := m.Validate(other, 0); err == nil {
		t.Fatal("legacy parallelism mismatch accepted")
	}
	if err := m.Validate(other[:1], 0); err == nil {
		t.Fatal("stage count mismatch accepted")
	}

	// Key-group manifest: parallelism may change within max parallelism.
	km := Manifest{MaxParallelism: 8, Stages: testStages()}
	if err := km.Validate(other, 8); err != nil {
		t.Fatalf("rescale within max parallelism rejected: %v", err)
	}
	if err := km.Validate(testStages(), 16); err == nil {
		t.Fatal("max parallelism mismatch accepted")
	}
	big := testStages()
	big[0].Parallelism = 9
	if err := km.Validate(big, 8); err == nil {
		t.Fatal("parallelism beyond max parallelism accepted")
	}
	renamed := testStages()
	renamed[0].Name = "other"
	if err := km.Validate(renamed, 8); err == nil {
		t.Fatal("renamed stage accepted")
	}
}

// A manifest committed by a coordinator with MaxParallelism set records
// the key-group ranges each subtask blob covers: contiguous, disjoint,
// covering [0, max).
func TestManifestRecordsKeyGroupRanges(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(store, testStages())
	if err != nil {
		t.Fatal(err)
	}
	coord.MaxParallelism = 8
	if err := coord.Begin(1, SourcePosition{}); err != nil {
		t.Fatal(err)
	}
	ackAll(coord, 1)
	man, err := store.Latest()
	if err != nil || man == nil {
		t.Fatalf("Latest = %v, %v", man, err)
	}
	if man.MaxParallelism != 8 {
		t.Fatalf("manifest max parallelism = %d, want 8", man.MaxParallelism)
	}
	for _, st := range man.Stages {
		if len(st.Ranges) != st.Parallelism {
			t.Fatalf("stage %s has %d ranges for %d subtasks", st.Name, len(st.Ranges), st.Parallelism)
		}
		next := 0
		for s, r := range st.Ranges {
			if r[0] != next || r[1] < r[0] {
				t.Fatalf("stage %s subtask %d range %v not contiguous from %d", st.Name, s, r, next)
			}
			next = r[1]
		}
		if next != 8 {
			t.Fatalf("stage %s ranges cover [0, %d), want [0, 8)", st.Name, next)
		}
	}
}

// Reshard re-slices key-group framed blobs across a parallelism change;
// every group must land on exactly the new subtask owning its range, and
// subtask-scoped (raw) state must refuse to rescale.
func TestReshard(t *testing.T) {
	const max = 16
	old := []StageInfo{{Name: "s", Parallelism: 2}}
	m := &Manifest{ID: 1, MaxParallelism: max, Stages: manifestStages(old, max)}

	// One blob per old subtask, one frame per owned group.
	states := map[string][]byte{}
	for sub := 0; sub < 2; sub++ {
		groups := map[int][]byte{}
		start, end := flow.KeyGroupRange(max, 2, sub)
		for g := start; g < end; g++ {
			groups[g] = []byte{byte(g)}
		}
		states[StateKey("s", sub)] = flow.EncodeGroupStates(groups)
	}
	for _, newPar := range []int{1, 3, 4, 5, 16} {
		target := []StageInfo{{Name: "s", Parallelism: newPar}}
		out, err := Reshard(states, m, target)
		if err != nil {
			t.Fatalf("reshard 2 -> %d: %v", newPar, err)
		}
		seen := map[int]bool{}
		for sub := 0; sub < newPar; sub++ {
			blob := out[StateKey("s", sub)]
			if len(blob) == 0 {
				continue
			}
			groups, err := flow.DecodeGroupStates(blob)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range groups {
				if flow.SubtaskForGroup(g.Group, max, newPar) != sub {
					t.Fatalf("group %d landed on subtask %d at parallelism %d", g.Group, sub, newPar)
				}
				if seen[g.Group] {
					t.Fatalf("group %d duplicated at parallelism %d", g.Group, newPar)
				}
				if len(g.Data) != 1 || g.Data[0] != byte(g.Group) {
					t.Fatalf("group %d data corrupted: %v", g.Group, g.Data)
				}
				seen[g.Group] = true
			}
		}
		if len(seen) != max {
			t.Fatalf("reshard 2 -> %d kept %d of %d groups", newPar, len(seen), max)
		}
	}

	// Unchanged parallelism passes blobs through untouched.
	same, err := Reshard(states, m, old)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range states {
		if string(same[k]) != string(v) {
			t.Fatalf("pass-through changed blob %s", k)
		}
	}

	// Raw subtask-scoped state cannot rescale.
	raw := map[string][]byte{StateKey("s", 0): flow.EncodeRawState([]byte("opaque"))}
	if _, err := Reshard(raw, m, []StageInfo{{Name: "s", Parallelism: 4}}); err == nil {
		t.Fatal("raw state reshard accepted")
	}

	// A blob whose frames fall outside the range the manifest records for
	// it is corrupt and must fail the reshard.
	stray := map[string][]byte{
		// Subtask 1's range at parallelism 2 is [8, 16); group 0 is not in it.
		StateKey("s", 1): flow.EncodeGroupStates(map[int][]byte{0: {0xAA}}),
	}
	if _, err := Reshard(stray, m, []StageInfo{{Name: "s", Parallelism: 4}}); err == nil {
		t.Fatal("blob outside its manifest range accepted")
	}
}

// An orphaned chk directory — a crash between the STATE.bin write and the
// manifest rename — must be garbage-collected by a later commit instead of
// leaking forever.
func TestDirStoreSweepsOrphansOnCommit(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stages := []StageInfo{{Name: "s", Parallelism: 1}}
	// Fabricate the crash artifact AFTER the store is open, so the
	// open-time sweep cannot have removed it: chk-3 has state but no
	// manifest and its id will fall below the retention horizon.
	orphan := filepath.Join(dir, "chk-3")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "STATE.bin"), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	for id := uint64(4); id <= 5; id++ {
		if err := store.Put(id, "s", 0, []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(Manifest{ID: id, Stages: stages}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned chk-3 survived commit gc: %v", err)
	}
	// The retained, committed checkpoints are untouched.
	ids, err := store.list()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 5 {
		t.Fatalf("retained %v, want [4 5]", ids)
	}
}
