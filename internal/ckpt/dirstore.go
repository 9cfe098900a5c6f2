package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DirStore is the local-directory Store backend. Layout:
//
//	<dir>/chk-<id>/STATE.bin        all subtask blobs, framed (written at commit)
//	<dir>/chk-<id>/MANIFEST.json    commit record (written last)
//
// Put stages blobs in memory; the directory is touched only at Commit,
// which writes the framed state file and then renames the manifest into
// place. Batching every subtask's state into one file keeps the filesystem
// cost per checkpoint at two writes and one rename regardless of topology
// width — with per-blob files, checkpoint I/O dominated the measured
// overhead. The manifest rename is the atomic commit point: a checkpoint
// directory either contains a complete, readable manifest or none, and a
// crash mid-checkpoint leaves at most a state file without a manifest,
// which Latest ignores and the next Commit's garbage collection removes.
//
// STATE.bin framing, repeated per blob:
//
//	[stage len uvarint][stage bytes][subtask uvarint][blob len uvarint][blob]
//
// Retain controls how many completed checkpoints are kept (default 2; the
// previous one survives until its successor is durable).
type DirStore struct {
	dir string
	// Retain is the number of most-recent completed checkpoints kept after
	// a Commit (minimum 1).
	Retain int

	mu         sync.Mutex
	staging    map[uint64]map[string][]byte // in-flight blobs by id, then key
	completed  []uint64                     // committed ids on disk, ascending
	committing map[uint64]struct{}          // ids with a Commit in progress
}

// NewDirStore creates (if needed) and opens a checkpoint directory. Stale
// attempts from a previous process (state without manifest) are swept once
// here; afterwards garbage collection works from in-memory bookkeeping so
// a commit never rescans the directory for retention.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := &DirStore{
		dir: dir, Retain: 2,
		staging:    make(map[uint64]map[string][]byte),
		committing: make(map[uint64]struct{}),
	}
	ids, err := s.list()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if !s.hasManifest(id) {
			os.RemoveAll(s.ckptDir(id))
			continue
		}
		s.completed = append(s.completed, id)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

func (s *DirStore) ckptDir(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("chk-%d", id))
}

const (
	manifestName = "MANIFEST.json"
	stateName    = "STATE.bin"
)

// legacyStateNames are state files of checkpoint layouts older releases
// wrote (a paged blob file, a compacted delta chain). Their presence
// marks a checkpoint this store cannot restore.
var legacyStateNames = []string{"STATE.pg", "STATE.full.bin"}

// StateKey is the canonical "stage/subtask" key for one subtask's state
// blob — the same string the tcpnet handshake restore map uses, so the
// writing and reading sides cannot drift.
func StateKey(stage string, subtask int) string {
	return stage + "/" + strconv.Itoa(subtask)
}

// Put implements Store: the blob is staged in memory until Commit.
func (s *DirStore) Put(id uint64, stage string, subtask int, state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.staging[id]
	if m == nil {
		m = make(map[string][]byte)
		s.staging[id] = m
	}
	m[StateKey(stage, subtask)] = state
	return nil
}

// Commit implements Store: one framed state file, then the atomic manifest
// rename, then garbage collection of checkpoints beyond the retention
// horizon (and of staged blobs from older, abandoned attempts).
func (s *DirStore) Commit(m Manifest) error {
	s.mu.Lock()
	staged := s.staging[m.ID]
	// Drop this checkpoint's staging and anything older that never
	// committed (its barrier generation is gone for good).
	for id := range s.staging {
		if id <= m.ID {
			delete(s.staging, id)
		}
	}
	// Mark the commit in progress: concurrent commits can push the
	// retention horizon past this id while its directory is still
	// manifest-less, and the orphan sweep must not mistake it for a crash
	// artifact mid-write.
	s.committing[m.ID] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.committing, m.ID)
		s.mu.Unlock()
	}()

	dir := s.ckptDir(m.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	// A failed attempt removes its directory again: a chk dir holding state
	// without a manifest is indistinguishable from a crash artifact and
	// would otherwise sit there until the orphan sweep catches it.
	if err := os.WriteFile(filepath.Join(dir, stateName), frameStates(staged), 0o644); err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("ckpt: %w", err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("ckpt: manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("ckpt: %w", err)
	}
	s.gc(m.ID)
	return nil
}

// frameStates serializes subtask blobs (keyed by StateKey) into the
// framed state-file format, sorted by key.
func frameStates(states map[string][]byte) []byte {
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var frame []byte
	for _, k := range keys {
		slash := strings.LastIndexByte(k, '/')
		stage, subStr := k[:slash], k[slash+1:]
		sub, _ := strconv.Atoi(subStr)
		frame = binary.AppendUvarint(frame, uint64(len(stage)))
		frame = append(frame, stage...)
		frame = binary.AppendUvarint(frame, uint64(sub))
		frame = binary.AppendUvarint(frame, uint64(len(states[k])))
		frame = append(frame, states[k]...)
	}
	return frame
}

// gc records the new completion, removes checkpoints beyond the retention
// horizon (from in-memory bookkeeping), and sweeps orphaned directories: a
// crash between the state write and the manifest rename leaves a chk dir
// that will never gain a manifest. A manifest-less directory with an id
// below the oldest kept checkpoint is an orphan, UNLESS a concurrent
// Commit for that id is still mid-write — the committing set excludes
// those. Without the sweep, orphans leak until the store is next reopened
// (and forever on a long-lived process). The sweep costs one ReadDir per
// commit, dwarfed by the state write itself. Removal failures are
// ignored: garbage collection must never fail a commit.
func (s *DirStore) gc(latest uint64) {
	retain := s.Retain
	if retain < 1 {
		retain = 1
	}
	s.mu.Lock()
	s.completed = append(s.completed, latest)
	// Retention is by id, not completion order: commits can land out of
	// order (acks are asynchronous), and the newest cut must survive.
	sort.Slice(s.completed, func(i, j int) bool { return s.completed[i] < s.completed[j] })
	var drop []uint64
	if n := len(s.completed) - retain; n > 0 {
		drop = append(drop, s.completed[:n]...)
		s.completed = append(s.completed[:0], s.completed[n:]...)
	}
	horizon := s.completed[0] // oldest kept completed id
	s.mu.Unlock()
	for _, id := range drop {
		os.RemoveAll(s.ckptDir(id))
	}
	if ids, err := s.list(); err == nil {
		for _, id := range ids {
			if id >= horizon || s.isCommitting(id) || s.hasManifest(id) {
				continue
			}
			os.RemoveAll(s.ckptDir(id))
		}
	}
}

func (s *DirStore) isCommitting(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, busy := s.committing[id]
	return busy
}

// list returns the checkpoint ids present in the directory, ascending.
func (s *DirStore) list() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var ids []uint64
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "chk-") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(name, "chk-"), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

func (s *DirStore) hasManifest(id uint64) bool {
	_, err := os.Stat(filepath.Join(s.ckptDir(id), manifestName))
	return err == nil
}

func (s *DirStore) readManifest(id uint64) (*Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(s.ckptDir(id), manifestName))
	if err != nil {
		return nil, err
	}
	// Strict decoding: a manifest with fields this build does not know
	// (the delta-chain bookkeeping of older releases, say) describes a
	// checkpoint it cannot restore faithfully.
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("checkpoint %d manifest: %w", id, err)
	}
	return &m, nil
}

// Latest implements Store.
func (s *DirStore) Latest() (*Manifest, error) {
	ids, err := s.list()
	if err != nil {
		return nil, err
	}
	for i := len(ids) - 1; i >= 0; i-- {
		m, err := s.readManifest(ids[i])
		if os.IsNotExist(err) {
			continue // in-flight or abandoned attempt
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		return m, nil
	}
	return nil, nil
}

// States implements BulkStateReader: every subtask blob of a committed
// checkpoint, keyed by StateKey, read from its one framed state file.
func (s *DirStore) States(id uint64) (map[string][]byte, error) {
	dir := s.ckptDir(id)
	for _, name := range legacyStateNames {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("ckpt: checkpoint %d holds a %s state file, a layout this build does not read", id, name)
		}
	}
	frame, err := os.ReadFile(filepath.Join(dir, stateName))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("ckpt: checkpoint %d has no %s", id, stateName)
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return parseStateFrame(frame, id)
}

// State implements Store: reads one subtask's blob from a committed
// checkpoint.
func (s *DirStore) State(id uint64, stage string, subtask int) ([]byte, error) {
	states, err := s.States(id)
	if err != nil {
		return nil, err
	}
	want := StateKey(stage, subtask)
	blob, ok := states[want]
	if !ok {
		return nil, fmt.Errorf("ckpt: chk-%d has no state for %s", id, want)
	}
	return blob, nil
}

// parseStateFrame decodes a framed state file into blobs keyed by
// StateKey.
func parseStateFrame(frame []byte, id uint64) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for off := 0; off < len(frame); {
		name, n, err := readFrameBytes(frame, off)
		if err != nil {
			return nil, fmt.Errorf("ckpt: chk-%d state: %w", id, err)
		}
		off = n
		sub, n2 := binary.Uvarint(frame[off:])
		if n2 <= 0 {
			return nil, fmt.Errorf("ckpt: chk-%d state: truncated subtask", id)
		}
		off += n2
		blob, n3, err := readFrameBytes(frame, off)
		if err != nil {
			return nil, fmt.Errorf("ckpt: chk-%d state: %w", id, err)
		}
		off = n3
		out[StateKey(string(name), int(sub))] = blob
	}
	return out, nil
}

// readFrameBytes reads one [len uvarint][bytes] field at off, returning
// the bytes and the next offset.
func readFrameBytes(frame []byte, off int) ([]byte, int, error) {
	ln, n := binary.Uvarint(frame[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("truncated length")
	}
	off += n
	if ln > uint64(len(frame)-off) {
		return nil, 0, fmt.Errorf("truncated field")
	}
	return frame[off : off+int(ln)], off + int(ln), nil
}
