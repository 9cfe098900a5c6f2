package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/geo"
	"repro/internal/model"
)

// commitLog collects OnCommit batches.
type commitLog struct {
	mu   sync.Mutex
	pats []model.Pattern
	ids  []uint64
}

func (c *commitLog) hook() func(uint64, []model.Pattern) {
	return func(id uint64, pats []model.Pattern) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.ids = append(c.ids, id)
		c.pats = append(c.pats, pats...)
	}
}

func (c *commitLog) patterns() []model.Pattern {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]model.Pattern(nil), c.pats...)
}

// waitCheckpoint polls until the store's latest completed checkpoint is at
// least id and the runner has released every cut it covers.
func waitCheckpoint(t *testing.T, p *Pipeline, id uint64) *ckpt.Manifest {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		man, err := p.ck.store.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if man != nil && man.ID >= id {
			p.ck.mu.Lock()
			clean := len(p.ck.cuts) == 0 || p.ck.cuts[0].id > man.ID
			p.ck.mu.Unlock()
			if clean {
				return man
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("checkpoint never completed")
	return nil
}

// A run killed mid-stream (the pipeline is abandoned without drain — no
// end-of-stream flush can leak output, exactly like a SIGKILL) and resumed
// from its checkpoint directory must produce, across the committed output
// of both runs, the same patterns as an uninterrupted run.
func TestCheckpointCrashResumeMatchesUninterrupted(t *testing.T) {
	const (
		interval  = 10
		crashAt   = 47 // pushes before the simulated crash
		ckptAtCut = 4  // last checkpoint that can complete: 40 snapshots
	)
	for _, method := range []EnumMethod{FBA, VBA} {
		// Reference: uninterrupted, committed output only.
		_, snaps, cfg := plantedWorkload(1234, 120)
		cfg.Enum = method
		cfg.CheckpointInterval = interval
		cfg.CheckpointDir = t.TempDir()
		var ref commitLog
		cfg.OnCommit = ref.hook()
		if _, err := RunSnapshots(cfg, snaps); err != nil {
			t.Fatal(err)
		}
		if len(ref.patterns()) == 0 {
			t.Fatalf("%s: reference run found no patterns; weak test", method)
		}

		// Crashy run: same workload, fresh checkpoint dir.
		dir := t.TempDir()
		_, snaps2, cfg2 := plantedWorkload(1234, 120)
		cfg2.Enum = method
		cfg2.CheckpointInterval = interval
		cfg2.CheckpointDir = dir
		var crashed commitLog
		cfg2.OnCommit = crashed.hook()
		crashy, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		crashy.Start()
		for _, s := range snaps2[:crashAt] {
			crashy.PushSnapshot(s)
		}
		man := waitCheckpoint(t, crashy, ckptAtCut)
		if man.Source.Snapshots != interval*ckptAtCut {
			t.Fatalf("%s: checkpoint %d covers %d snapshots, want %d",
				method, man.ID, man.Source.Snapshots, interval*ckptAtCut)
		}
		// Crash: abandon the pipeline. Its subtask goroutines die with the
		// test process; nothing further is committed from it.

		// Resume from the same directory.
		_, snaps3, cfg3 := plantedWorkload(1234, 120)
		cfg3.Enum = method
		cfg3.CheckpointInterval = interval
		cfg3.CheckpointDir = dir
		cfg3.Resume = true
		var resumed commitLog
		cfg3.OnCommit = resumed.hook()
		rp, err := New(cfg3)
		if err != nil {
			t.Fatal(err)
		}
		pos, ok := rp.ResumePosition()
		if !ok {
			t.Fatalf("%s: resume position missing", method)
		}
		if pos.Snapshots != interval*ckptAtCut || pos.LastTick != snaps3[interval*ckptAtCut-1].Tick {
			t.Fatalf("%s: resume position %+v", method, pos)
		}
		rp.Start()
		for _, s := range snaps3 {
			if s.Tick > pos.LastTick {
				rp.PushSnapshot(s)
			}
		}
		rp.Finish()

		got := append(crashed.patterns(), resumed.patterns()...)
		want := ref.patterns()
		if !bytes.Equal(patternsCSV(t, got), patternsCSV(t, want)) {
			t.Fatalf("%s: crash+resume output differs: %d patterns, want %d",
				method, len(got), len(want))
		}
		if len(crashed.patterns()) == 0 || len(resumed.patterns()) == 0 {
			t.Logf("%s: warning: one side empty (crashed=%d resumed=%d); cut placement weak",
				method, len(crashed.patterns()), len(resumed.patterns()))
		}
	}
}

// Elastic rescale-from-checkpoint: a run checkpointed at one parallelism
// and crashed mid-stream resumes at a DIFFERENT parallelism — scale out
// 2->4 and back in 4->2 — with the key-group state re-sliced across the
// new subtask count. The combined committed output must match an
// uninterrupted run byte for byte.
func TestRescaleCrashResumeMatchesUninterrupted(t *testing.T) {
	const (
		interval  = 10
		crashAt   = 47 // pushes before the simulated crash
		ckptAtCut = 4  // last checkpoint that can complete: 40 snapshots
	)
	for _, scale := range [][2]int{{2, 4}, {4, 2}} {
		from, to := scale[0], scale[1]
		// Reference: uninterrupted, committed output only (parallelism is a
		// deployment knob — any value yields identical patterns).
		_, snaps, cfg := plantedWorkload(1234, 120)
		cfg.Enum = FBA
		cfg.CheckpointInterval = interval
		cfg.CheckpointDir = t.TempDir()
		var ref commitLog
		cfg.OnCommit = ref.hook()
		if _, err := RunSnapshots(cfg, snaps); err != nil {
			t.Fatal(err)
		}
		if len(ref.patterns()) == 0 {
			t.Fatalf("%d->%d: reference run found no patterns; weak test", from, to)
		}

		// Crashy run at the old parallelism.
		dir := t.TempDir()
		_, snaps2, cfg2 := plantedWorkload(1234, 120)
		cfg2.Enum = FBA
		cfg2.Parallelism = from
		cfg2.CheckpointInterval = interval
		cfg2.CheckpointDir = dir
		var crashed commitLog
		cfg2.OnCommit = crashed.hook()
		crashy, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		crashy.Start()
		for _, s := range snaps2[:crashAt] {
			crashy.PushSnapshot(s)
		}
		man := waitCheckpoint(t, crashy, ckptAtCut)
		if man.MaxParallelism == 0 {
			t.Fatalf("%d->%d: manifest not key-group scoped: %+v", from, to, man)
		}
		// Crash: abandon the pipeline (no drain, no end-of-stream flush).

		// Resume the same stream at the NEW parallelism.
		_, snaps3, cfg3 := plantedWorkload(1234, 120)
		cfg3.Enum = FBA
		cfg3.Parallelism = to
		cfg3.CheckpointInterval = interval
		cfg3.CheckpointDir = dir
		cfg3.Resume = true
		var resumed commitLog
		cfg3.OnCommit = resumed.hook()
		rp, err := New(cfg3)
		if err != nil {
			t.Fatalf("%d->%d: resume at new parallelism: %v", from, to, err)
		}
		pos, ok := rp.ResumePosition()
		if !ok || pos.Snapshots != interval*ckptAtCut {
			t.Fatalf("%d->%d: resume position %+v, %v", from, to, pos, ok)
		}
		rp.Start()
		for _, s := range snaps3 {
			if s.Tick > pos.LastTick {
				rp.PushSnapshot(s)
			}
		}
		rp.Finish()

		got := append(crashed.patterns(), resumed.patterns()...)
		if !bytes.Equal(patternsCSV(t, got), patternsCSV(t, ref.patterns())) {
			t.Fatalf("%d->%d: rescaled crash+resume output differs: %d patterns, want %d",
				from, to, len(got), len(ref.patterns()))
		}
		if len(crashed.patterns()) == 0 || len(resumed.patterns()) == 0 {
			t.Logf("%d->%d: warning: one side empty (crashed=%d resumed=%d)",
				from, to, len(crashed.patterns()), len(resumed.patterns()))
		}
	}
}

// Rescale over the tcpnet transport: the coordinator loads the
// checkpoint, reshards every key-group blob onto the new subtask count,
// and ships each worker exactly its share in the handshake. The first
// half of the stream runs (and checkpoints) on real TCP workers at one
// parallelism; the second half resumes at another. A graceful stop's
// enumerator flush emits prefix-scoped patterns an uninterrupted run
// never sees, so the oracle is a same-parallelism stop-and-resume — the
// flush semantics cancel out, and any difference is the rescale's fault.
// (The strict byte-identical-to-uninterrupted tcpnet check lives in
// cmd/icpe's SIGKILL-based TestRescaleKillWorkerAndResume, where no drain
// ever runs.)
func TestDistributedRescaleResume(t *testing.T) {
	run := func(fromPar, toPar int) []model.Pattern {
		dir := t.TempDir()
		_, snaps, cfg := plantedWorkload(1234, 120)
		half := len(snaps) / 2
		cfg.Enum = FBA
		cfg.Parallelism = fromPar
		cfg.CheckpointInterval = 10
		cfg.CheckpointDir = dir
		var log commitLog
		cfg.OnCommit = log.hook()
		runDistributed(t, cfg, snaps[:half], 2)

		// The final graceful checkpoint covers exactly the prefix, so the
		// resumed run replays the ticks beyond it.
		_, snaps2, cfg2 := plantedWorkload(1234, 120)
		cfg2.Enum = FBA
		cfg2.Parallelism = toPar
		cfg2.CheckpointInterval = 10
		cfg2.CheckpointDir = dir
		cfg2.Resume = true
		cfg2.OnCommit = log.hook()
		runDistributed(t, cfg2, snaps2[half:], 2)
		return log.patterns()
	}
	base := run(3, 3) // same-parallelism stop-and-resume oracle
	if len(base) == 0 {
		t.Fatal("no patterns; weak test")
	}
	for _, scale := range [][2]int{{2, 4}, {4, 2}} {
		got := run(scale[0], scale[1])
		if !bytes.Equal(patternsCSV(t, got), patternsCSV(t, base)) {
			t.Fatalf("%d->%d: distributed rescale output differs from same-parallelism resume: %d patterns, want %d",
				scale[0], scale[1], len(got), len(base))
		}
	}
}

// Distributed checkpointing: acks travel the tcpnet control plane from
// real worker nodes, the sink-barrier cut arrives interleaved with the
// forwarded sink stream, and committed output matches the in-process run.
func TestDistributedCheckpointing(t *testing.T) {
	_, snaps, cfg := plantedWorkload(1234, 120)
	cfg.Enum = FBA
	cfg.CollectPatterns = true
	inproc, err := RunSnapshots(cfg, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(inproc.Patterns) == 0 {
		t.Fatal("no patterns; weak test")
	}

	dir := t.TempDir()
	_, snaps2, cfg2 := plantedWorkload(1234, 120)
	cfg2.Enum = FBA
	cfg2.CheckpointInterval = 25
	cfg2.CheckpointDir = dir
	var commits commitLog
	cfg2.OnCommit = commits.hook()
	runDistributed(t, cfg2, snaps2, 2)

	if !bytes.Equal(patternsCSV(t, commits.patterns()), patternsCSV(t, inproc.Patterns)) {
		t.Fatalf("distributed committed output differs: %d patterns, want %d",
			len(commits.patterns()), len(inproc.Patterns))
	}
	store, err := ckpt.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Latest()
	if err != nil || man == nil {
		t.Fatalf("no completed checkpoint after distributed run: %v", err)
	}
	// 120 snapshots at interval 25 -> checkpoints 1..4 plus the final
	// barrier at Finish (id 5, covering all 120).
	if man.ID < 4 || man.Source.Snapshots != 120 {
		t.Fatalf("latest manifest = %+v", man)
	}
	// The manifest's states are readable (e.g. an enumerate subtask's).
	for _, st := range man.Stages {
		if st.Name != "enumerate" {
			continue
		}
		nonEmpty := false
		for sub := 0; sub < st.Parallelism; sub++ {
			blob, err := store.State(man.ID, st.Name, sub)
			if err != nil {
				t.Fatalf("state %s/%d: %v", st.Name, sub, err)
			}
			if len(blob) > 0 {
				nonEmpty = true
			}
		}
		if !nonEmpty {
			t.Error("every enumerate subtask snapshotted empty state")
		}
	}
}

// Resume with an empty checkpoint directory starts fresh.
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	_, snaps, cfg := plantedWorkload(55, 60)
	cfg.Enum = FBA
	cfg.CheckpointInterval = 16
	cfg.CheckpointDir = t.TempDir()
	cfg.Resume = true
	cfg.CollectPatterns = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.ResumePosition(); ok {
		t.Fatal("resume position reported without a checkpoint")
	}
	p.Start()
	for _, s := range snaps {
		p.PushSnapshot(s)
	}
	res := p.Finish()
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns; weak test")
	}
}

// Resuming with a different detection configuration must fail up front:
// the manifest carries the spec fingerprint of the run that wrote it.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	_, snaps, cfg := plantedWorkload(9, 40)
	cfg.Enum = VBA
	cfg.CheckpointInterval = 10
	cfg.CheckpointDir = dir
	if _, err := RunSnapshots(cfg, snaps); err != nil {
		t.Fatal(err)
	}
	_, _, cfg2 := plantedWorkload(9, 40)
	cfg2.Enum = FBA // different method than the checkpointed run
	cfg2.CheckpointInterval = 10
	cfg2.CheckpointDir = dir
	cfg2.Resume = true
	if _, err := New(cfg2); err == nil {
		t.Fatal("resume with a different enum method accepted")
	}
	// The matching configuration still resumes.
	_, _, cfg3 := plantedWorkload(9, 40)
	cfg3.Enum = VBA
	cfg3.CheckpointInterval = 10
	cfg3.CheckpointDir = dir
	cfg3.Resume = true
	p, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.ResumePosition(); !ok {
		t.Fatal("matching resume lost its position")
	}
}

// The checkpoint config is validated.
func TestCheckpointConfigValidation(t *testing.T) {
	_, _, cfg := plantedWorkload(1, 10)
	cfg.CheckpointInterval = 4
	if _, err := New(cfg); err == nil {
		t.Error("checkpointing without a dir or store accepted")
	}
	_, _, cfg = plantedWorkload(1, 10)
	cfg.Resume = true
	if _, err := New(cfg); err == nil {
		t.Error("Resume without checkpointing accepted")
	}
	_, _, cfg = plantedWorkload(1, 10)
	cfg.OnCommit = func(uint64, []model.Pattern) {}
	if _, err := New(cfg); err == nil {
		t.Error("OnCommit without checkpointing accepted")
	}
	// A checkpointed job wider than the default max parallelism must pin
	// MaxParallelism explicitly — a derived default would follow
	// Parallelism into the fingerprint and break the rescale it bounds.
	_, _, cfg = plantedWorkload(1, 10)
	cfg.Parallelism = 200
	cfg.CheckpointInterval = 4
	cfg.CheckpointDir = t.TempDir()
	if _, err := New(cfg); err == nil {
		t.Error("checkpointed parallelism 200 without explicit MaxParallelism accepted")
	}
	cfg.MaxParallelism = 256
	if _, err := New(cfg); err != nil {
		t.Errorf("explicit MaxParallelism 256 rejected: %v", err)
	}
}

// An uninterrupted checkpointed run must match a checkpoint-free run: the
// barrier machinery may not change results, only add recoverability.
func TestCheckpointingDoesNotChangeOutput(t *testing.T) {
	_, snaps, cfg := plantedWorkload(21, 100)
	cfg.Enum = FBA
	cfg.CollectPatterns = true
	plain, err := RunSnapshots(cfg, snaps)
	if err != nil {
		t.Fatal(err)
	}
	_, snaps2, cfg2 := plantedWorkload(21, 100)
	cfg2.Enum = FBA
	cfg2.CollectPatterns = true
	cfg2.CheckpointInterval = 7
	cfg2.CheckpointDir = t.TempDir()
	ck, err := RunSnapshots(cfg2, snaps2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Patterns) == 0 {
		t.Fatal("no patterns; weak test")
	}
	if !bytes.Equal(patternsCSV(t, ck.Patterns), patternsCSV(t, plain.Patterns)) {
		t.Fatalf("checkpointed run differs: %d patterns, want %d", len(ck.Patterns), len(plain.Patterns))
	}
}

// latestManifest reads the newest completed checkpoint in dir.
func latestManifest(t *testing.T, dir string) *ckpt.Manifest {
	t.Helper()
	store, err := ckpt.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Latest()
	if err != nil || man == nil {
		t.Fatalf("no completed checkpoint in %s: %v", dir, err)
	}
	return man
}

// A run without Resume into a directory that already holds an earlier
// job's checkpoints numbers its cuts after them: retention keeps the
// highest ids, so the fresh run's cuts must survive it, and a following
// resume must restart from the fresh run's last cut rather than the
// earlier job's — in-process and distributed.
func TestFreshRunIntoUsedCheckpointDir(t *testing.T) {
	for _, mode := range []string{"inproc", "distributed"} {
		t.Run(mode, func(t *testing.T) {
			run := func(cfg Config, snaps []*model.Snapshot) {
				t.Helper()
				if mode == "distributed" {
					runDistributed(t, cfg, snaps, 2)
					return
				}
				if _, err := RunSnapshots(cfg, snaps); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			_, snaps, cfg := plantedWorkload(77, 120)
			cfg.Enum = FBA
			cfg.CheckpointInterval = 10
			cfg.CheckpointDir = dir
			run(cfg, snaps)
			long := latestManifest(t, dir)

			const short = 35
			run(cfg, snaps[:short])
			man := latestManifest(t, dir)
			if man.ID <= long.ID || man.Source.Snapshots != short ||
				man.Source.LastTick != snaps[short-1].Tick {
				t.Fatalf("after the short run the latest checkpoint is %d at %+v; want an id after %d covering %d snapshots",
					man.ID, man.Source, long.ID, short)
			}

			// The resume restarts at the short run's cut: its final cut
			// covers the short prefix plus what the resume pushed.
			const more = 25
			cfg.Resume = true
			run(cfg, snaps[short:short+more])
			man = latestManifest(t, dir)
			if man.Source.Snapshots != short+more || man.Source.LastTick != snaps[short+more-1].Tick {
				t.Fatalf("after the resume the latest checkpoint is %d at %+v; want %d snapshots up to tick %d",
					man.ID, man.Source, short+more, snaps[short+more-1].Tick)
			}
		})
	}
}

// The configuration fingerprint stamped into every manifest is pinned:
// a change to it would make every existing checkpoint directory refuse to
// resume. The literals are the fingerprints existing checkpoint
// directories carry.
func TestFingerprintUnchanged(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{
			Config{Constraints: model.Constraints{M: 5, K: 18, L: 3, G: 3}, Eps: 10, CellWidth: 40,
				Metric: geo.L1, MinPts: 4, Parallelism: 2, Enum: FBA,
				CheckpointInterval: 16, CheckpointDir: "unused"},
			`{"m":5,"k":18,"l":3,"g":3,"eps":10,"cell_width":40,"metric":0,"min_pts":4,"cluster":"rjc","enum":"fba","max_parallelism":128}`,
		},
		{
			Config{Constraints: model.Constraints{M: 3, K: 4, L: 2, G: 2}, Eps: 2.5, MinPts: 3, Enum: BA,
				SourcePartitions: 2, CheckpointInterval: 8, CheckpointDir: "unused"},
			`{"m":3,"k":4,"l":2,"g":2,"eps":2.5,"cell_width":10,"metric":0,"min_pts":3,"cluster":"rjc","enum":"ba","max_parallelism":128,"source_partitions":2,"source_silence":64}`,
		},
	} {
		fp, err := Fingerprint(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if string(fp) != tc.want {
			t.Errorf("fingerprint of %v = %s\nwant %s", tc.cfg.Constraints, fp, tc.want)
		}
	}
}
