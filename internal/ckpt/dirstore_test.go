package ckpt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flow"
)

// legacyDir writes checkpoint 3 the way an older release's incremental or
// paged modes left it on disk: the given manifest JSON plus the given
// state files (name -> contents).
func legacyDir(t *testing.T, manifest string, files map[string][]byte) *DirStore {
	t.Helper()
	dir := t.TempDir()
	chk := filepath.Join(dir, "chk-3")
	if err := os.MkdirAll(chk, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(chk, manifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(chk, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

const legacyStages = `"max_parallelism":8,"stages":[{"name":"s","parallelism":1,"ranges":[[0,8]]}]`

// deltaBlob is a key-group delta blob as older releases encoded it: tag
// 2, one tombstone (group 1), one replacement frame (group 0).
var deltaBlob = []byte{2, 1, 1, 0, 1, 'a'}

// loadLatest runs the resume path's store reads: the latest manifest,
// then every state blob.
func loadLatest(store *DirStore) error {
	m, err := store.Latest()
	if err != nil {
		return err
	}
	_, err = AllStates(store, m)
	return err
}

// Checkpoint directories written by the removed incremental, compacting
// and paged modes must fail the load with the checkpoint id in the error
// — never restore partial state and never reach an operator with a blob
// format it cannot decode.
func TestLegacyCheckpointDirsRejected(t *testing.T) {
	cases := []struct {
		name     string
		manifest string
		files    map[string][]byte
		want     string
	}{
		{
			name:     "delta manifest",
			manifest: `{"id":3,"source":{"snapshots":9,"last_tick":8},` + legacyStages + `,"delta":true,"parent":2,"chain":[1,2,3]}`,
			files:    map[string][]byte{stateName: frameStates(map[string][]byte{"s/0": deltaBlob})},
			want:     "checkpoint 3 manifest",
		},
		{
			name:     "delta blob",
			manifest: `{"id":3,"source":{"snapshots":9,"last_tick":8},` + legacyStages + `}`,
			files:    map[string][]byte{stateName: frameStates(map[string][]byte{"s/0": deltaBlob})},
			want:     "checkpoint 3 state s/0 has unknown format 2",
		},
		{
			name:     "compacted chain",
			manifest: `{"id":3,"source":{"snapshots":9,"last_tick":8},` + legacyStages + `}`,
			files: map[string][]byte{
				stateName:        nil,
				"STATE.full.bin": frameStates(map[string][]byte{"s/0": flow.EncodeGroupStates(map[int][]byte{0: []byte("a")})}),
			},
			want: "checkpoint 3 holds a STATE.full.bin state file",
		},
		{
			name:     "paged layout",
			manifest: `{"id":3,"source":{"snapshots":9,"last_tick":8},` + legacyStages + `}`,
			files:    map[string][]byte{"STATE.pg": []byte("ICPEPG01")},
			want:     "checkpoint 3 holds a STATE.pg state file",
		},
		{
			name:     "no state file",
			manifest: `{"id":3,"source":{"snapshots":9,"last_tick":8},` + legacyStages + `}`,
			want:     "checkpoint 3 has no STATE.bin",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := legacyDir(t, tc.manifest, tc.files)
			err := loadLatest(store)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("load error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// A full-state checkpoint written by an older release carries none of the
// removed manifest fields and restores unchanged.
func TestFullStateCheckpointStillLoads(t *testing.T) {
	blob := flow.EncodeGroupStates(map[int][]byte{0: []byte("a"), 5: []byte("b")})
	store := legacyDir(t,
		`{"id":3,"source":{"snapshots":9,"last_tick":8},`+legacyStages+`}`,
		map[string][]byte{stateName: frameStates(map[string][]byte{"s/0": blob})})
	m, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	states, err := AllStates(store, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(states[StateKey("s", 0)]); got != string(blob) {
		t.Fatalf("restored blob %x, want %x", got, blob)
	}
}
