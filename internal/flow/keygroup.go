// Key groups decouple the keyed-exchange routing from the subtask count,
// Flink-style: every key maps to a stable key group in [0, MaxParallelism)
// and each subtask owns a contiguous range of groups computed from
// (maxParallelism, parallelism, subtask). Because the key→group mapping
// depends only on MaxParallelism, two runs of the same job agree on which
// state bucket every key lives in regardless of their parallelism — which
// is what lets a checkpoint taken at parallelism p be restored at
// parallelism p': restore reads the union of group buckets covering the new
// subtask's range and merges them. Parallelism becomes a deployment knob;
// MaxParallelism is part of the job's identity.
package flow

import (
	"encoding/binary"
	"sort"
)

// DefaultMaxParallelism is the key-group count used when a pipeline does
// not configure one. 128 bounds the rescale headroom (parallelism can grow
// up to it) while keeping per-checkpoint framing overhead negligible.
const DefaultMaxParallelism = 128

// KeyGroup maps a routing key to its key group in [0, maxParallelism).
// The mapping depends only on maxParallelism, never on the current
// parallelism.
func KeyGroup(key uint64, maxParallelism int) int {
	return int(mix(key) % uint64(maxParallelism))
}

// SubtaskForGroup returns the subtask owning a key group at the given
// parallelism: floor(group * parallelism / maxParallelism). Together with
// KeyGroupRange it partitions [0, maxParallelism) into one contiguous
// range per subtask.
func SubtaskForGroup(group, maxParallelism, parallelism int) int {
	return group * parallelism / maxParallelism
}

// KeyGroupRange returns the half-open range [start, end) of key groups
// owned by subtask at the given parallelism. Ranges are contiguous,
// disjoint, cover [0, maxParallelism) exactly, and their sizes differ by
// at most one across subtasks.
func KeyGroupRange(maxParallelism, parallelism, subtask int) (start, end int) {
	start = (subtask*maxParallelism + parallelism - 1) / parallelism
	end = ((subtask+1)*maxParallelism + parallelism - 1) / parallelism
	return start, end
}

// Subtask state blobs are self-describing; the first byte of a non-empty
// blob is its format tag. StateRaw blobs are opaque subtask-scoped state
// (plain Snapshotters) — they restore only at the parallelism that took
// them. StateGroups blobs are a sequence of per-key-group frames and can
// be re-sliced across any parallelism ≤ MaxParallelism.
const (
	StateRaw    byte = 0
	StateGroups byte = 1
)

// GroupState is one key group's state inside a group-framed subtask blob.
type GroupState struct {
	Group int
	Data  []byte
}

// EncodeRawState wraps a plain subtask snapshot with the StateRaw tag.
// Empty snapshots stay nil (no state, nothing to restore).
func EncodeRawState(raw []byte) []byte {
	if len(raw) == 0 {
		return nil
	}
	return append([]byte{StateRaw}, raw...)
}

// EncodeGroupStates encodes per-key-group state as a StateGroups blob:
// the tag byte followed by [group uvarint][len uvarint][data] frames in
// ascending group order (deterministic bytes for identical state). Groups
// with empty data are dropped; an empty map encodes to nil.
func EncodeGroupStates(groups map[int][]byte) []byte {
	n := 0
	for _, d := range groups {
		if len(d) > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	ids := make([]int, 0, n)
	for g, d := range groups {
		if len(d) > 0 {
			ids = append(ids, g)
		}
	}
	sort.Ints(ids)
	buf := []byte{StateGroups}
	for _, g := range ids {
		buf = binary.AppendUvarint(buf, uint64(g))
		buf = binary.AppendUvarint(buf, uint64(len(groups[g])))
		buf = append(buf, groups[g]...)
	}
	return buf
}

// DecodeGroupStates parses a StateGroups blob into its per-group frames.
// It rejects raw-format blobs: callers use the error to report that a
// stage's state is subtask-scoped and cannot be re-sliced.
func DecodeGroupStates(blob []byte) ([]GroupState, error) {
	d := NewDec(blob)
	if tag := d.Byte(); tag != StateGroups {
		d.Failf("state blob tag %d is not key-group framed", tag)
		return nil, d.Err()
	}
	var out []GroupState
	for d.Err() == nil && d.Remaining() > 0 {
		g := int(d.Uvarint())
		data := d.Bytes(int(d.Uvarint()))
		if d.Err() != nil {
			break
		}
		out = append(out, GroupState{Group: g, Data: append([]byte(nil), data...)})
	}
	return out, d.Err()
}
