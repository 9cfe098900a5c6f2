package enum

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/timeseq"
)

// historyOf builds a cluster history from tick -> clusters literals.
func historyOf(ticks []model.Tick, clusters [][][]model.ObjectID) []*model.ClusterSnapshot {
	if len(ticks) != len(clusters) {
		panic("historyOf: mismatched lengths")
	}
	var out []*model.ClusterSnapshot
	for i, t := range ticks {
		cs := &model.ClusterSnapshot{Tick: t}
		for _, c := range clusters[i] {
			cs.Clusters = append(cs.Clusters, model.Cluster(c))
		}
		cs.SortClusters()
		out = append(out, cs)
	}
	return out
}

// paperHistory reconstructs the running example: with M=3, K=4, L=2, G=2
// the only pattern is {4,5,6} with T = <3,4,6,7> (Section 3.1).
func paperHistory() []*model.ClusterSnapshot {
	return historyOf(
		[]model.Tick{1, 2, 3, 4, 5, 6, 7, 8},
		[][][]model.ObjectID{
			{{4, 5, 6, 7}},
			{{4, 5}, {6, 7}},
			{{4, 5, 6, 7, 8}},
			{{4, 5, 6}},
			{{4, 5}, {6, 7}},
			{{4, 5, 6}},
			{{4, 5, 6, 7}},
			{},
		},
	)
}

func paperConstraints() model.Constraints {
	return model.Constraints{M: 3, K: 4, L: 2, G: 2}
}

func TestPartitionClusters(t *testing.T) {
	cs := &model.ClusterSnapshot{
		Tick:     1,
		Clusters: []model.Cluster{{1, 2}, {3, 4}, {5, 6, 7}},
	}
	ps := PartitionClusters(cs, 2)
	want := []Partition{
		{Tick: 1, Owner: 1, Members: []model.ObjectID{2}},
		{Tick: 1, Owner: 2, Members: []model.ObjectID{}},
		{Tick: 1, Owner: 3, Members: []model.ObjectID{4}},
		{Tick: 1, Owner: 4, Members: []model.ObjectID{}},
		{Tick: 1, Owner: 5, Members: []model.ObjectID{6, 7}},
		{Tick: 1, Owner: 6, Members: []model.ObjectID{7}},
		{Tick: 1, Owner: 7, Members: []model.ObjectID{}},
	}
	if len(ps) != len(want) {
		t.Fatalf("partitions = %+v", ps)
	}
	for i := range want {
		if ps[i].Owner != want[i].Owner || ps[i].Tick != want[i].Tick ||
			len(ps[i].Members) != len(want[i].Members) {
			t.Errorf("partition %d = %+v, want %+v", i, ps[i], want[i])
			continue
		}
		for j := range want[i].Members {
			if ps[i].Members[j] != want[i].Members[j] {
				t.Errorf("partition %d members = %v", i, ps[i].Members)
			}
		}
	}
}

func TestPartitionClustersLemma3(t *testing.T) {
	cs := &model.ClusterSnapshot{
		Tick:     1,
		Clusters: []model.Cluster{{1, 2}, {5, 6, 7}},
	}
	// M=3 discards the pair cluster entirely (Lemma 3).
	ps := PartitionClusters(cs, 3)
	if len(ps) != 3 {
		t.Fatalf("partitions = %+v", ps)
	}
	for _, p := range ps {
		if p.Owner == 1 || p.Owner == 2 {
			t.Errorf("cluster below M leaked partition for %d", p.Owner)
		}
	}
}

func TestOraclePaperExample(t *testing.T) {
	res := Oracle(paperHistory(), paperConstraints())
	if len(res.Patterns) != 1 {
		t.Fatalf("oracle patterns = %v", res.Patterns)
	}
	p := res.Patterns[0]
	if p.Key() != "4,5,6" {
		t.Errorf("pattern objects = %v", p.Objects)
	}
	want := []model.Tick{3, 4, 6, 7}
	if !reflect.DeepEqual(p.Times, want) {
		t.Errorf("pattern times = %v, want %v", p.Times, want)
	}
}

func runMethod(hist []*model.ClusterSnapshot, c model.Constraints, mk NewFunc) []model.Pattern {
	return NewDriver(c, mk).Run(hist)
}

func TestAllMethodsPaperExample(t *testing.T) {
	hist := paperHistory()
	c := paperConstraints()
	for name, mk := range map[string]NewFunc{
		"BA": NewBA, "FBA": NewFBA, "VBA": NewVBA,
	} {
		got := runMethod(hist, c, mk)
		if len(got) != 1 || got[0].Key() != "4,5,6" {
			t.Errorf("%s patterns = %v, want one {4,5,6}", name, got)
			continue
		}
		if !timeseq.IsValid(timeseq.Seq(got[0].Times), c) {
			t.Errorf("%s witness %v invalid", name, got[0].Times)
		}
		if got[0].Times[0] != 3 {
			t.Errorf("%s witness starts at %d, want 3", name, got[0].Times[0])
		}
	}
}

// checkWitness verifies that every tick of a pattern's witness has all its
// objects in one cluster, and that the witness satisfies the constraints.
func checkWitness(t *testing.T, name string, hist []*model.ClusterSnapshot,
	c model.Constraints, p model.Pattern) {
	t.Helper()
	if len(p.Objects) < c.M {
		t.Errorf("%s: pattern %v below significance", name, p)
	}
	if !timeseq.IsValid(timeseq.Seq(p.Times), c) {
		t.Errorf("%s: witness %v violates (K,L,G)", name, p)
	}
	byTick := map[model.Tick]*model.ClusterSnapshot{}
	for _, cs := range hist {
		byTick[cs.Tick] = cs
	}
	for _, tick := range p.Times {
		cs := byTick[tick]
		if cs == nil {
			t.Errorf("%s: witness tick %d has no snapshot", name, tick)
			return
		}
		ok := false
		for _, cl := range cs.Clusters {
			members := map[model.ObjectID]bool{}
			for _, id := range cl {
				members[id] = true
			}
			all := true
			for _, id := range p.Objects {
				if !members[id] {
					all = false
					break
				}
			}
			if all {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: pattern %v not co-clustered at tick %d", name, p, tick)
			return
		}
	}
}

// genHistory generates a random cluster history over a small universe.
func genHistory(rng *rand.Rand, nObjects, nTicks int) []*model.ClusterSnapshot {
	var out []*model.ClusterSnapshot
	for t := 1; t <= nTicks; t++ {
		if rng.Intn(8) == 0 {
			continue // owner-less tick: nobody clustered
		}
		cs := &model.ClusterSnapshot{Tick: model.Tick(t)}
		// Randomly assign each object to one of a few clusters or noise.
		nClusters := 1 + rng.Intn(2)
		buckets := make([][]model.ObjectID, nClusters)
		for id := 1; id <= nObjects; id++ {
			b := rng.Intn(nClusters + 1)
			if b == nClusters {
				continue // noise
			}
			buckets[b] = append(buckets[b], model.ObjectID(id))
		}
		for _, b := range buckets {
			if len(b) >= 2 {
				cs.Clusters = append(cs.Clusters, model.Cluster(b))
			}
		}
		cs.SortClusters()
		out = append(out, cs)
	}
	return out
}

func genConstraints(rng *rand.Rand) model.Constraints {
	c := model.Constraints{
		M: 2 + rng.Intn(3),
		K: 2 + rng.Intn(4),
		L: 1 + rng.Intn(3),
		G: 1 + rng.Intn(3),
	}
	if c.L > c.K {
		c.L = c.K
	}
	return c
}

func patternsEqual(a, b []model.Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() || !reflect.DeepEqual(a[i].Times, b[i].Times) {
			return false
		}
	}
	return true
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// crossValidate runs BA, FBA, VBA and the oracle on one history and
// reports whether BA == FBA exactly, VBA == oracle exactly (maximal
// sequences), every method finds the oracle's object sets, every emitted
// witness is genuinely valid, and FBA's witnesses start exactly at the
// oracle's chain starts, one per chain. It returns FBA's pattern count.
func crossValidate(t *testing.T, seed int64, hist []*model.ClusterSnapshot, c model.Constraints) (int, bool) {
	oracle := Oracle(hist, c)
	ba := runMethod(hist, c, NewBA)
	fba := runMethod(hist, c, NewFBA)
	vba := runMethod(hist, c, NewVBA)

	if !patternsEqual(ba, fba) {
		t.Logf("seed %d %v: BA != FBA\nBA:  %v\nFBA: %v", seed, c, ba, fba)
		return 0, false
	}
	if !patternsEqual(vba, oracle.Patterns) {
		t.Logf("seed %d %v: VBA != oracle\nVBA:    %v\noracle: %v",
			seed, c, vba, oracle.Patterns)
		return 0, false
	}
	oracleSets := ObjectSets(oracle.Patterns)
	for name, ps := range map[string][]model.Pattern{
		"BA": ba, "FBA": fba, "VBA": vba,
	} {
		if !setsEqual(ObjectSets(ps), oracleSets) {
			t.Logf("seed %d %v: %s object sets differ from oracle\n%s: %v\noracle: %v",
				seed, c, name, name, ps, oracle.Patterns)
			return 0, false
		}
		for _, p := range ps {
			checkWitness(t, name, hist, c, p)
		}
	}
	type startKey struct {
		key  string
		tick model.Tick
	}
	fbaStarts := map[startKey]int{}
	for _, p := range fba {
		fbaStarts[startKey{p.Key(), p.Times[0]}]++
	}
	oracleStarts := map[startKey]int{}
	for _, p := range oracle.Patterns {
		oracleStarts[startKey{p.Key(), p.Times[0]}]++
	}
	if !reflect.DeepEqual(fbaStarts, oracleStarts) {
		t.Logf("seed %d %v: FBA chain starts differ\nFBA:    %v\noracle: %v",
			seed, c, fba, oracle.Patterns)
		return 0, false
	}
	return len(fba), true
}

// TestCrossValidation is the central equivalence suite, run by
// crossValidate on random cluster histories.
func TestCrossValidation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hist := genHistory(rng, 5+rng.Intn(4), 10+rng.Intn(20))
		_, ok := crossValidate(t, seed, hist, genConstraints(rng))
		return ok
	}
	n := 120
	if testing.Short() {
		n = 25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}

// genStickyHistory generates a history in which each object keeps its
// cluster (or noise) for long stretches, switching with probability 1/150
// per tick, and drops out of it for single ticks with probability 1/20 —
// long co-clustering chains broken by gaps and short runs.
func genStickyHistory(rng *rand.Rand, nObjects, nTicks int) []*model.ClusterSnapshot {
	const nClusters = 2
	bucket := make([]int, nObjects)
	for i := range bucket {
		bucket[i] = rng.Intn(nClusters)
	}
	var out []*model.ClusterSnapshot
	for t := 1; t <= nTicks; t++ {
		for i := range bucket {
			if rng.Intn(150) == 0 {
				bucket[i] = rng.Intn(nClusters + 1) // nClusters = noise
			}
		}
		if rng.Intn(40) == 0 {
			continue // nobody clustered at this tick
		}
		cs := &model.ClusterSnapshot{Tick: model.Tick(t)}
		for c := 0; c < nClusters; c++ {
			var cl model.Cluster
			for i, b := range bucket {
				if b == c && rng.Intn(20) != 0 {
					cl = append(cl, model.ObjectID(i+1))
				}
			}
			if len(cl) >= 2 {
				cs.Clusters = append(cs.Clusters, cl)
			}
		}
		cs.SortClusters()
		out = append(out, cs)
	}
	return out
}

// TestCrossValidationLongWindows repeats the equivalence suite with FBA
// windows (lookback + eta) longer than one 64-bit word — up to three —
// so the member strings, their ANDs and the run scan cross word
// boundaries.
func TestCrossValidationLongWindows(t *testing.T) {
	n := 32
	if testing.Short() {
		n = 8
	}
	patterns, longest := 0, 0
	for seed := int64(0); seed < int64(n); seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := model.Constraints{L: 1}
		for c.Eta()+fbaLookback(c) <= 64 {
			c = model.Constraints{
				M: 2 + rng.Intn(3),
				K: 40 + rng.Intn(31),
				L: 1 + rng.Intn(4),
				G: 2 + rng.Intn(5),
			}
		}
		longest = max(longest, c.Eta()+fbaLookback(c))
		hist := genStickyHistory(rng, 6+rng.Intn(3), 140+rng.Intn(20))
		got, ok := crossValidate(t, seed, hist, c)
		if !ok {
			t.Fatalf("seed %d %v: long-window cross-validation failed", seed, c)
		}
		patterns += got
	}
	if patterns == 0 || longest <= 128 {
		t.Fatalf("weak test: %d FBA patterns, longest window %d bits", patterns, longest)
	}
}

// TestStrictBASubset documents Algorithm 3's greedy incompleteness: its
// output object sets are always a subset of the exact baseline's, and all
// of its witnesses are valid.
func TestStrictBASubset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hist := genHistory(rng, 5+rng.Intn(3), 10+rng.Intn(15))
		c := genConstraints(rng)
		exact := ObjectSets(runMethod(hist, c, NewBA))
		strict := runMethod(hist, c, NewStrictBA)
		for _, p := range strict {
			checkWitness(t, "BA-strict", hist, c, p)
			if !exact[p.Key()] {
				t.Logf("seed %d: strict found %v unknown to exact", seed, p)
				return false
			}
		}
		return true
	}
	n := 80
	if testing.Short() {
		n = 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
}

// The greedy corner case: occurrences {1,2,4,6,7,8} with K=4, L=2, G=4.
// Greedy absorbs tick 4, then Lemma 5 discards the candidate at tick 6,
// although {1,2,6,7,8} is valid. Exact mode must find it.
func TestStrictBAGreedyCorner(t *testing.T) {
	occTicks := []model.Tick{1, 2, 4, 6, 7, 8}
	present := map[model.Tick]bool{}
	for _, t := range occTicks {
		present[t] = true
	}
	var ticks []model.Tick
	var clusters [][][]model.ObjectID
	for tk := model.Tick(1); tk <= 10; tk++ {
		ticks = append(ticks, tk)
		if present[tk] {
			clusters = append(clusters, [][]model.ObjectID{{1, 2}})
		} else {
			clusters = append(clusters, [][]model.ObjectID{})
		}
	}
	hist := historyOf(ticks, clusters)
	c := model.Constraints{M: 2, K: 4, L: 2, G: 4}

	exact := runMethod(hist, c, NewBA)
	if len(exact) == 0 {
		t.Fatal("exact BA missed the pattern")
	}
	strict := runMethod(hist, c, NewStrictBA)
	if len(strict) != 0 {
		t.Logf("note: strict BA found %v (greedy survived here)", strict)
	}
	fba := runMethod(hist, c, NewFBA)
	if !patternsEqual(exact, fba) {
		t.Errorf("exact BA %v != FBA %v", exact, fba)
	}
}

func TestVBAEmitsMaximalSequences(t *testing.T) {
	// One long co-movement: a single maximal sequence must be emitted once,
	// covering the full run (FBA would report a truncated prefix).
	var ticks []model.Tick
	var clusters [][][]model.ObjectID
	for tk := model.Tick(1); tk <= 40; tk++ {
		ticks = append(ticks, tk)
		if tk <= 30 {
			clusters = append(clusters, [][]model.ObjectID{{1, 2, 3}})
		} else {
			clusters = append(clusters, [][]model.ObjectID{})
		}
	}
	hist := historyOf(ticks, clusters)
	c := model.Constraints{M: 3, K: 4, L: 2, G: 2}
	vba := runMethod(hist, c, NewVBA)
	if len(vba) != 1 {
		t.Fatalf("VBA patterns = %v", vba)
	}
	if len(vba[0].Times) != 30 || vba[0].Times[0] != 1 || vba[0].Times[29] != 30 {
		t.Errorf("VBA witness = %v, want full run 1..30", vba[0].Times)
	}
}

func TestVBAFinalizesViaLemma7(t *testing.T) {
	// The pattern run ends at tick 10; G=2 means the string closes after
	// tick 13 (three zeros). The pattern must be emitted by Process (not
	// only at Flush) once tick 13 arrives — arrange a later unrelated
	// partition so the subtask keeps advancing.
	var ticks []model.Tick
	var clusters [][][]model.ObjectID
	for tk := model.Tick(1); tk <= 20; tk++ {
		ticks = append(ticks, tk)
		switch {
		case tk <= 10:
			clusters = append(clusters, [][]model.ObjectID{{1, 2}})
		case tk >= 14:
			clusters = append(clusters, [][]model.ObjectID{{1, 9}})
		default:
			clusters = append(clusters, [][]model.ObjectID{})
		}
	}
	hist := historyOf(ticks, clusters)
	c := model.Constraints{M: 2, K: 4, L: 2, G: 2}
	d := NewDriver(c, NewVBA)
	var got []model.Pattern
	emitted := -1
	for i, cs := range hist {
		d.Process(cs, func(p model.Pattern) {
			got = append(got, p)
			if p.Key() == "1,2" && emitted < 0 {
				emitted = i
			}
		})
	}
	if emitted < 0 {
		t.Fatal("pattern {1,2} not emitted during streaming")
	}
	if tick := hist[emitted].Tick; tick != 14 {
		t.Errorf("pattern emitted at tick %d, want 14 (first advance past the G+1 zeros)", tick)
	}
}

func TestDriverOverflowGuard(t *testing.T) {
	// A cluster of 30 objects overflows BA's exponential guard.
	big := make(model.Cluster, 30)
	for i := range big {
		big[i] = model.ObjectID(i + 1)
	}
	hist := []*model.ClusterSnapshot{{Tick: 1, Clusters: []model.Cluster{big}}}
	c := model.Constraints{M: 2, K: 1, L: 1, G: 1}
	d := NewDriver(c, NewBA)
	d.Run(hist)
	if !d.Overflowed() {
		t.Error("BA should report overflow on a 30-object partition")
	}
}

func TestEmptyHistory(t *testing.T) {
	c := paperConstraints()
	for name, mk := range map[string]NewFunc{
		"BA": NewBA, "FBA": NewFBA, "VBA": NewVBA,
	} {
		if got := runMethod(nil, c, mk); len(got) != 0 {
			t.Errorf("%s on empty history: %v", name, got)
		}
	}
	if got := Oracle(nil, c); len(got.Patterns) != 0 {
		t.Errorf("oracle on empty history: %v", got.Patterns)
	}
}

func TestGapBeyondGSplitsPatterns(t *testing.T) {
	// Two co-movement episodes separated by a gap > G: two maximal
	// sequences for the same object set.
	var ticks []model.Tick
	var clusters [][][]model.ObjectID
	occ := map[model.Tick]bool{}
	for tk := model.Tick(1); tk <= 6; tk++ {
		occ[tk] = true
	}
	for tk := model.Tick(20); tk <= 26; tk++ {
		occ[tk] = true
	}
	for tk := model.Tick(1); tk <= 30; tk++ {
		ticks = append(ticks, tk)
		if occ[tk] {
			clusters = append(clusters, [][]model.ObjectID{{1, 2}})
		} else {
			clusters = append(clusters, [][]model.ObjectID{})
		}
	}
	hist := historyOf(ticks, clusters)
	c := model.Constraints{M: 2, K: 4, L: 2, G: 2}
	vba := runMethod(hist, c, NewVBA)
	if len(vba) != 2 {
		t.Fatalf("VBA patterns = %v, want two episodes", vba)
	}
	if vba[0].Times[0] != 1 || vba[1].Times[0] != 20 {
		t.Errorf("episode starts = %d, %d", vba[0].Times[0], vba[1].Times[0])
	}
	fba := runMethod(hist, c, NewFBA)
	if len(fba) != 2 {
		t.Errorf("FBA patterns = %v, want two chain starts", fba)
	}
}
