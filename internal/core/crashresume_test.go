package core

import (
	"bytes"
	"testing"
)

// Checkpointing must be invisible in committed output: a randomized-churn
// incremental run killed mid-stream and resumed — at the same AND at a
// changed parallelism — commits exactly the bytes an uninterrupted run
// commits. (The test and case names date from when the crashy run used
// asynchronous capture and delta-chained cuts; it now runs the one
// synchronous full-state path.)
func TestAsyncDeltaCrashResumeMatchesSyncOracle(t *testing.T) {
	const (
		interval = 5
		crashAt  = 47 // pushes before the simulated crash
		lastCut  = 9  // last checkpoint that can complete: 45 snapshots
		ticks    = 120
		seed     = 7
	)
	// Oracle: uninterrupted checkpointed run, committed output only.
	snaps, cfg := churnWorkload(seed, ticks, 0.1, 0.05)
	cfg.Incremental = true
	cfg.CheckpointInterval = interval
	cfg.CheckpointDir = t.TempDir()
	var ref commitLog
	cfg.OnCommit = ref.hook()
	if _, err := RunSnapshots(cfg, snaps); err != nil {
		t.Fatal(err)
	}
	want := patternsCSV(t, ref.patterns())
	if len(ref.patterns()) == 0 {
		t.Fatal("oracle run committed no patterns; weak test")
	}

	cases := []struct {
		name  string
		toPar int
	}{
		{"async_delta_same_parallelism", 3},
		{"async_delta_rescale_3to5", 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			snaps2, cfg2 := churnWorkload(seed, ticks, 0.1, 0.05)
			cfg2.Incremental = true
			cfg2.CheckpointInterval = interval
			cfg2.CheckpointDir = dir
			var crashed commitLog
			cfg2.OnCommit = crashed.hook()
			crashy, err := New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			crashy.Start()
			// Pace the stream so each cut completes before the next barrier:
			// an unpaced in-process push floods all barriers in before the
			// first commit lands (later commits then supersede earlier
			// in-flight cuts), and every cut should reach the store.
			for i, s := range snaps2[:crashAt] {
				crashy.PushSnapshot(s)
				if n := i + 1; n%interval == 0 {
					waitCheckpoint(t, crashy, uint64(n/interval))
				}
			}
			man := waitCheckpoint(t, crashy, lastCut)
			if man.Source.Snapshots != interval*lastCut {
				t.Fatalf("checkpoint %d covers %d snapshots, want %d",
					man.ID, man.Source.Snapshots, interval*lastCut)
			}
			ck := crashy.CheckpointStats()
			if ck.FullCuts < lastCut {
				t.Fatalf("crashy run committed %d cuts, want >= %d", ck.FullCuts, lastCut)
			}
			t.Logf("crashy run: %d cuts, %d state bytes", ck.FullCuts, ck.Bytes)
			// Crash: abandon the pipeline mid-stream — no drain, no
			// end-of-stream flush, like a SIGKILL.

			// Resume from the same directory at the case's parallelism.
			snaps3, cfg3 := churnWorkload(seed, ticks, 0.1, 0.05)
			cfg3.Incremental = true
			cfg3.Parallelism = tc.toPar
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
			if !ok || pos.Snapshots < interval*lastCut {
				t.Fatalf("resume position %+v, %v", pos, ok)
			}
			rp.Start()
			for _, s := range snaps3 {
				if s.Tick > pos.LastTick {
					rp.PushSnapshot(s)
				}
			}
			rp.Finish()

			got := append(crashed.patterns(), resumed.patterns()...)
			if !bytes.Equal(patternsCSV(t, got), want) {
				t.Fatalf("crash+resume output differs from the uninterrupted run: %d patterns, want %d",
					len(got), len(ref.patterns()))
			}
		})
	}
}
