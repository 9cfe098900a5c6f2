package flow

import (
	"reflect"
	"testing"
)

// FuzzDecodeGroupStates hardens the full-cut key-group codec against
// adversarial blobs (a corrupt checkpoint file must error, never panic or
// over-allocate) and pins the round-trip law on valid ones.
func FuzzDecodeGroupStates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{StateRaw, 1, 2, 3})
	f.Add(EncodeGroupStates(map[int][]byte{0: []byte("a")}))
	f.Add(EncodeGroupStates(map[int][]byte{3: []byte("abc"), 70000: []byte("z")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := DecodeGroupStates(data)
		if err != nil {
			return
		}
		groups := make(map[int][]byte, len(frames))
		for _, fr := range frames {
			groups[fr.Group] = fr.Data
		}
		blob := EncodeGroupStates(groups)
		if blob == nil {
			// All-empty state canonicalizes to nil (no state at all),
			// which is not itself decodable.
			return
		}
		frames2, err := DecodeGroupStates(blob)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		m2 := make(map[int][]byte, len(frames2))
		for _, fr := range frames2 {
			m2[fr.Group] = fr.Data
		}
		for g, d := range groups {
			if len(d) == 0 {
				continue // empty frames are canonicalized away
			}
			if !reflect.DeepEqual(m2[g], d) {
				t.Fatalf("group %d changed across round trip", g)
			}
		}
	})
}
