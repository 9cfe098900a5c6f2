package enum

import (
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/model"
)

// periodicParts is owner 1's partition stream in which member m is absent
// exactly at the ticks t with t%3 == m%3. Every member's own string is
// one long chain under L=2, G=2 (runs of two, gaps of one tick), so every
// window survives the candidate filter and walks the lattice; members of
// one residue class AND to the same chain, which starts before every
// base, and members of two classes share runs of one tick, which are
// unusable. No window ever emits.
func periodicParts(ticks int) []Partition {
	out := make([]Partition, ticks)
	for t := range out {
		tick := model.Tick(t + 1)
		var members []model.ObjectID
		for m := model.ObjectID(2); m <= 9; m++ {
			if int(tick)%3 != int(m)%3 {
				members = append(members, m)
			}
		}
		out[t] = Partition{Tick: tick, Owner: 1, Members: members}
	}
	return out
}

// Steady-state FBA evaluation allocates nothing per window: the history
// holds the partitions' own id slices, the ready windows alias the
// pending queue and the bit strings, candidates, AND results and run
// buffer are reused. Only the history and pending queues' amortized
// growth remains.
func TestFBAProcessAllocs(t *testing.T) {
	c := model.Constraints{M: 3, K: 4, L: 2, G: 2}
	parts := periodicParts(2000)
	f := NewFBA(1, c)
	emitted := 0
	emit := func(model.Pattern) { emitted++ }
	next := 0
	// Warm up the scratch; the windows without lookback at the stream
	// start do emit.
	for ; next < 100; next++ {
		f.Process(parts[next], emit)
	}
	emitted = 0
	allocs := testing.AllocsPerRun(1000, func() {
		f.Process(parts[next], emit)
		next++
	})
	if emitted != 0 {
		t.Fatalf("steady-state windows emitted %d patterns", emitted)
	}
	if allocs >= 1 {
		t.Fatalf("FBA.Process allocates %.2f times per call, want < 1", allocs)
	}
}

// goldenParts is a deterministic owner-1 partition stream (a fixed LCG, so
// it cannot drift with a library's random source).
func goldenParts() []Partition {
	var out []Partition
	x := uint32(12345)
	next := func() uint32 { x = x*1103515245 + 12345; return (x >> 16) & 0x7fff }
	for t := 1; t <= 40; t++ {
		if next()%7 == 0 {
			continue
		}
		var members []model.ObjectID
		for id := 2; id <= 9; id++ {
			if next()%4 != 0 {
				members = append(members, model.ObjectID(id))
			}
		}
		out = append(out, Partition{Tick: model.Tick(t), Owner: 1, Members: members})
	}
	return out
}

// Golden FBA and BA state blobs, taken after goldenParts()[:17] under
// CP(3,4,2,2), in the format existing checkpoint directories hold: they
// must keep resuming.
const (
	goldenFBABlob = "460a1405030407080916060203040508091804020305061a0502030407081c060203050607091e08020304050607080920050304050809220502030407092405020305060926050304070809051e010802030405060708092001050304050809220105020304070924010502030506092601050304070809"
	goldenBABlob  = "42000a1405030407080916060203040508091804020305061a0502030407081c060203050607091e08020304050607080920050304050809220502030407092405020305060926050304070809051e010802030405060708092001050304050809220105020304070924010502030506092601050304070809"
)

// The enumerator state blob format is fixed: a golden blob restores,
// re-encodes to the same bytes, equals what this build writes at the same
// cut, and resumes to the patterns of an uninterrupted run.
func TestGoldenStateBlobs(t *testing.T) {
	c := model.Constraints{M: 3, K: 4, L: 2, G: 2}
	parts := goldenParts()
	const cut = 17
	for name, tc := range map[string]struct {
		mk   NewFunc
		blob string
	}{"FBA": {NewFBA, goldenFBABlob}, "BA": {NewBA, goldenBABlob}} {
		golden, err := hex.DecodeString(tc.blob)
		if err != nil {
			t.Fatal(err)
		}
		var full []model.Pattern
		ref := tc.mk(1, c)
		feedRange(ref, parts, 0, len(parts), &full)
		ref.Flush(func(p model.Pattern) { full = append(full, p) })
		SortPatterns(full)
		if len(full) == 0 {
			t.Fatalf("%s: no patterns; weak test", name)
		}

		var got []model.Pattern
		first := tc.mk(1, c)
		feedRange(first, parts, 0, cut, &got)
		blob, err := first.(ckpt.Snapshotter).SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(blob) != tc.blob {
			t.Fatalf("%s: state blob at cut %d changed\n got %x\nwant %s", name, cut, blob, tc.blob)
		}
		restored := tc.mk(1, c)
		if err := restored.(ckpt.Snapshotter).RestoreState(golden); err != nil {
			t.Fatalf("%s: restore golden blob: %v", name, err)
		}
		again, err := restored.(ckpt.Snapshotter).SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(again) != tc.blob {
			t.Fatalf("%s: golden blob re-encodes to %x", name, again)
		}
		feedRange(restored, parts, cut, len(parts), &got)
		restored.Flush(func(p model.Pattern) { got = append(got, p) })
		SortPatterns(got)
		if !patternsEqual(got, full) {
			t.Fatalf("%s: resumed from golden blob: %v\nwant %v", name, got, full)
		}
	}
}

// convoyHistory is a planted convoy-like cluster history: groups of six
// co-cluster for runs of 45-75 ticks separated by 4-tick gaps, each
// member missing a tick now and then, and a stray object joining a group
// for a tick with probability 1/10 per group and tick.
func convoyHistory(seed int64, groups, ticks int) []*model.ClusterSnapshot {
	const size = 6
	rng := rand.New(rand.NewSource(seed))
	until := make([]int, groups) // tick the current run (>0) or gap (<0) ends
	for g := range until {
		until[g] = 1 + rng.Intn(60)
	}
	stray := model.ObjectID(groups*size + 1)
	var out []*model.ClusterSnapshot
	for t := 1; t <= ticks; t++ {
		cs := &model.ClusterSnapshot{Tick: model.Tick(t)}
		for g := range until {
			if t >= abs(until[g]) {
				if until[g] > 0 {
					until[g] = -(t + 4)
				} else {
					until[g] = t + 45 + rng.Intn(31)
				}
			}
			if until[g] < 0 {
				continue
			}
			var cl model.Cluster
			for m := 0; m < size; m++ {
				if rng.Intn(30) != 0 {
					cl = append(cl, model.ObjectID(g*size+m+1))
				}
			}
			if rng.Intn(10) == 0 {
				cl = append(cl, stray+model.ObjectID(rng.Intn(groups*size)))
			}
			cs.Clusters = append(cs.Clusters, cl)
		}
		cs.SortClusters()
		out = append(out, cs)
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var benchPatterns int

// BenchmarkFBA runs FBA over a convoy-like cluster history under the
// convoy workload's CP(5,18,3,3), the setting of the pipeline benchmark.
func BenchmarkFBA(b *testing.B) {
	c := model.Constraints{M: 5, K: 18, L: 3, G: 3}
	hist := convoyHistory(1, 50, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDriver(c, NewFBA)
		n := 0
		for _, cs := range hist {
			d.Process(cs, func(model.Pattern) { n++ })
		}
		d.Flush(func(model.Pattern) { n++ })
		benchPatterns = n
	}
	b.ReportMetric(float64(benchPatterns), "patterns/op")
}
