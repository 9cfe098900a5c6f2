package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/transport/tcpnet"
)

// legacyCheckpoint runs a short checkpointed job into a fresh directory
// and returns the directory, the config that wrote it, and the latest
// checkpoint's directory and id — the raw material the legacy variants
// below are forged from.
func legacyCheckpoint(t *testing.T) (string, Config, string, uint64) {
	t.Helper()
	dir := t.TempDir()
	_, snaps, cfg := plantedWorkload(1234, 60)
	cfg.Enum = FBA
	cfg.CheckpointInterval = 10
	cfg.CheckpointDir = dir
	if _, err := RunSnapshots(cfg, snaps); err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Latest()
	if err != nil || man == nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	return dir, cfg, filepath.Join(dir, fmt.Sprintf("chk-%d", man.ID)), man.ID
}

// appendStateFrame appends one subtask blob to a checkpoint's STATE.bin in
// its framing ([stage len][stage][subtask][blob len][blob]); a later frame
// for the same subtask replaces the earlier one when the file is read.
func appendStateFrame(t *testing.T, chk, stage string, subtask int, blob []byte) {
	t.Helper()
	path := filepath.Join(chk, "STATE.bin")
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame = binary.AppendUvarint(frame, uint64(len(stage)))
	frame = append(frame, stage...)
	frame = binary.AppendUvarint(frame, uint64(subtask))
	frame = binary.AppendUvarint(frame, uint64(len(blob)))
	frame = append(frame, blob...)
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint directory left by the removed incremental (delta-chain) or
// paged checkpoint modes must fail a resume when the pipeline is
// constructed — in-process and distributed — with an error naming the
// checkpoint id. It must never reach a subtask, where an unknown state
// tag or a missing state file would panic mid-restore.
func TestResumeRejectsLegacyCheckpointDirs(t *testing.T) {
	forge := map[string]func(t *testing.T, chk string, id uint64){
		// A delta checkpoint's manifest names its base and replay chain.
		"delta_manifest": func(t *testing.T, chk string, id uint64) {
			path := filepath.Join(chk, "MANIFEST.json")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]any
			if err := json.Unmarshal(blob, &m); err != nil {
				t.Fatal(err)
			}
			m["delta"], m["parent"], m["chain"] = true, id-1, []uint64{id - 1, id}
			if blob, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// A compacted delta cut keeps its delta-format (tag 2) blobs in
		// STATE.bin under a manifest that no longer marks it as a delta.
		"delta_blob": func(t *testing.T, chk string, _ uint64) {
			appendStateFrame(t, chk, "enumerate", 0, []byte{2, 0, 0, 1, 'x'})
		},
		// The paged layout replaced STATE.bin with STATE.pg.
		"paged": func(t *testing.T, chk string, _ uint64) {
			if err := os.Rename(filepath.Join(chk, "STATE.bin"), filepath.Join(chk, "STATE.pg")); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, f := range forge {
		t.Run(name, func(t *testing.T) {
			_, cfg, chk, id := legacyCheckpoint(t)
			f(t, chk, id)
			cfg.Resume = true
			want := fmt.Sprintf("checkpoint %d", id)

			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("in-process resume: error %v, want one naming %q", err, want)
			}

			coord, err := tcpnet.NewCoordinator("127.0.0.1:0", 2)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			if _, err := NewDistributed(cfg, coord); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("distributed resume: error %v, want one naming %q", err, want)
			}
		})
	}
}
