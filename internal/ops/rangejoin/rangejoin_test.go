package rangejoin

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/model"
	"repro/internal/ops/msg"
)

const (
	tEps    = 6.0
	tLg     = 4 * tEps
	tShards = 3
	tTicks  = 4
)

// tickObjs is one tick of the oracle stream: the objects present, id
// sorted, with their locations.
type tickObjs struct {
	ids  []model.ObjectID
	locs []geo.Point
}

// workload is a randomized churn stream: objects (some with ids above
// 2^31, whose int32 Idx is negative) move, fall silent and return.
func workload(seed int64) []tickObjs {
	r := rand.New(rand.NewSource(seed))
	const objects = 90
	ids := make([]model.ObjectID, objects)
	pos := make(map[model.ObjectID]geo.Point, objects)
	for i := range ids {
		ids[i] = model.ObjectID(r.Intn(1 << 16))
		if i%4 == 0 {
			ids[i] = model.ObjectID(1<<31 + uint32(r.Intn(1<<16)))
		}
		pos[ids[i]] = geo.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := make([]tickObjs, tTicks)
	for t := range out {
		for _, id := range ids {
			if r.Float64() < 0.15 {
				continue
			}
			if r.Float64() < 0.5 {
				p := pos[id]
				p.X += r.Float64()*8 - 4
				p.Y += r.Float64()*8 - 4
				pos[id] = p
			}
			out[t].ids = append(out[t].ids, id)
			out[t].locs = append(out[t].locs, pos[id])
		}
	}
	return out
}

// shardOf is the fake allocate shard owning an object (stable across
// ticks, like key-group routing by object id).
func shardOf(id model.ObjectID) int { return int(id % tShards) }

// shard returns shard s's share of one tick, still id sorted.
func (o tickObjs) shard(s int) ([]model.ObjectID, []geo.Point) {
	var ids []model.ObjectID
	var locs []geo.Point
	for i, id := range o.ids {
		if shardOf(id) == s {
			ids = append(ids, id)
			locs = append(locs, o.locs[i])
		}
	}
	return ids, locs
}

// pairKey canonicalizes an unordered object pair (Idx values carry object
// ids in front-end mode; uint32 undoes the int32 wrap of high ids).
func pairKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// oraclePairs runs join.RunCellRJC on every unsplit cell task of each
// tick: the pair set the operator must reproduce from split fragments.
func oraclePairs(stream []tickObjs) map[model.Tick][]uint64 {
	out := make(map[model.Tick][]uint64)
	for t, o := range stream {
		var pairs []uint64
		for _, task := range join.AllocateObjects(o.ids, o.locs, tLg, tEps, grid.UpperHalf) {
			join.RunCellRJC(task, tEps, geo.L1, func(i, j int32) {
				pairs = append(pairs, pairKey(uint32(i), uint32(j)))
			})
		}
		slices.Sort(pairs)
		out[model.Tick(t)] = pairs
	}
	return out
}

// taskFragments is what the shards' allocate subtasks emit for one tick
// in classic front-end mode: each cell's task split by object ownership.
func taskFragments(o tickObjs, t model.Tick) []any {
	var out []any
	for s := 0; s < tShards; s++ {
		ids, locs := o.shard(s)
		for _, task := range join.AllocateObjects(ids, locs, tLg, tEps, grid.UpperHalf) {
			out = append(out, msg.Cell{Tick: t, Task: task})
		}
	}
	return out
}

// deltaFragments returns a function yielding the shards' incremental
// front-end emissions per tick: each shard diffs only its own objects
// against its own previous positions.
func deltaFragments() func(o tickObjs, t model.Tick) []any {
	prev := make([]map[model.ObjectID]geo.Point, tShards)
	for s := range prev {
		prev[s] = make(map[model.ObjectID]geo.Point)
	}
	return func(o tickObjs, t model.Tick) []any {
		var out []any
		for s := 0; s < tShards; s++ {
			ids, locs := o.shard(s)
			for _, d := range join.DiffObjects(prev[s], ids, locs, tLg, tEps, grid.UpperHalf) {
				out = append(out, msg.CellDelta{Tick: t, Delta: d})
			}
		}
		return out
	}
}

// routingKey is the key allocate emits a fragment under.
func routingKey(frag any) uint64 {
	switch m := frag.(type) {
	case msg.Cell:
		return m.Task.Key.Hash()
	case msg.CellDelta:
		return m.Delta.Key.Hash()
	}
	panic("unexpected fragment")
}

// sink collects the operator's output per tick: join pairs (classic) or
// the netted pair transitions (incremental), summed per pair.
type sink struct {
	mu    sync.Mutex
	pairs map[model.Tick][]uint64
	net   map[model.Tick]map[uint64]int
}

func newSink() *sink {
	return &sink{pairs: map[model.Tick][]uint64{}, net: map[model.Tick]map[uint64]int{}}
}

func (k *sink) add(v any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch m := v.(type) {
	case msg.Pairs:
		for _, p := range m.Pairs {
			k.pairs[m.Tick] = append(k.pairs[m.Tick], pairKey(uint32(p[0]), uint32(p[1])))
		}
	case msg.PairDelta:
		n := k.net[m.Tick]
		if n == nil {
			n = map[uint64]int{}
			k.net[m.Tick] = n
		}
		for _, p := range m.Add {
			n[pairKey(uint32(p[0]), uint32(p[1]))]++
		}
		for _, p := range m.Del {
			n[pairKey(uint32(p[0]), uint32(p[1]))]--
		}
	}
}

// sortedPairs returns tick t's classic output, sorted.
func (k *sink) sortedPairs(t model.Tick) []uint64 {
	p := slices.Clone(k.pairs[t])
	slices.Sort(p)
	return p
}

// netDelta returns tick t's net transitions with zero entries dropped.
func (k *sink) netDelta(t model.Tick) map[uint64]int {
	out := map[uint64]int{}
	for p, n := range k.net[t] {
		if n != 0 {
			out[p] = n
		}
	}
	return out
}

// feed submits the fragments of ticks [from, to] shuffled together, but
// holds back a share of tick to's fragments until after the watermark for
// to-1: an operator releasing a tick before its watermark would join an
// incomplete cell and miss pairs.
func feed(p *flow.Pipeline, r *rand.Rand, frags map[model.Tick][]any, from, to model.Tick) {
	var now, late []any
	for t := from; t <= to; t++ {
		for i, f := range frags[t] {
			if t == to && i%3 == 0 {
				late = append(late, f)
			} else {
				now = append(now, f)
			}
		}
	}
	r.Shuffle(len(now), func(i, j int) { now[i], now[j] = now[j], now[i] })
	for _, f := range now {
		p.Submit(routingKey(f), f)
	}
	p.SubmitWatermark(to - 1)
	for _, f := range late {
		p.Submit(routingKey(f), f)
	}
	p.SubmitWatermark(to)
}

func newOp(incremental bool) *Op {
	op := New(tEps, geo.L1, RJC)
	op.FrontEnd = true
	op.Incremental = incremental
	return op
}

// fragmentsPerTick builds every tick's shard fragments for one mode.
func fragmentsPerTick(stream []tickObjs, incremental bool) map[model.Tick][]any {
	frags := make(map[model.Tick][]any)
	deltas := deltaFragments()
	for t, o := range stream {
		if incremental {
			frags[model.Tick(t)] = deltas(o, model.Tick(t))
		} else {
			frags[model.Tick(t)] = taskFragments(o, model.Tick(t))
		}
	}
	return frags
}

// Cell tasks split across allocate shards and fed shuffled over two ticks
// at a time must join to exactly the pairs join.RunCellRJC finds on the
// unsplit tasks.
func TestFrontEndTaskFragmentsMatchUnsplitRJC(t *testing.T) {
	stream := workload(11)
	want := oraclePairs(stream)
	frags := fragmentsPerTick(stream, false)
	got := newSink()
	p := flow.NewPipeline(flow.Config{Sink: got.add},
		flow.StageSpec{Name: "rangejoin", Parallelism: 1, Make: func(int) flow.Operator { return newOp(false) }})
	p.Start()
	r := rand.New(rand.NewSource(3))
	feed(p, r, frags, 0, 1)
	feed(p, r, frags, 2, 3)
	p.Drain()
	for tick := model.Tick(0); tick < tTicks; tick++ {
		if len(want[tick]) == 0 {
			t.Fatalf("tick %d: oracle has no pairs; weak test", tick)
		}
		if g := got.sortedPairs(tick); !reflect.DeepEqual(g, want[tick]) {
			t.Errorf("tick %d: %d pairs from fragments, want %d from unsplit tasks", tick, len(g), len(want[tick]))
		}
	}
}

// Cell deltas split across allocate shards, shuffled over two ticks at a
// time, must maintain cell state whose pair set after every tick equals
// join.RunCellRJC on that tick's unsplit tasks.
func TestFrontEndDeltaFragmentsMatchUnsplitRJC(t *testing.T) {
	stream := workload(12)
	want := oraclePairs(stream)
	frags := fragmentsPerTick(stream, true)
	got := newSink()
	p := flow.NewPipeline(flow.Config{Sink: got.add},
		flow.StageSpec{Name: "rangejoin", Parallelism: 1, Make: func(int) flow.Operator { return newOp(true) }})
	p.Start()
	r := rand.New(rand.NewSource(4))
	feed(p, r, frags, 0, 1)
	feed(p, r, frags, 2, 3)
	p.Drain()
	live := map[uint64]int{}
	for tick := model.Tick(0); tick < tTicks; tick++ {
		for pair, n := range got.netDelta(tick) {
			live[pair] += n
		}
		var pairs []uint64
		for pair, n := range live {
			switch n {
			case 0:
				delete(live, pair)
			case 1:
				pairs = append(pairs, pair)
			default:
				t.Fatalf("tick %d: pair %x has live count %d", tick, pair, n)
			}
		}
		slices.Sort(pairs)
		if len(want[tick]) == 0 {
			t.Fatalf("tick %d: oracle has no pairs; weak test", tick)
		}
		if !reflect.DeepEqual(pairs, want[tick]) {
			t.Errorf("tick %d: maintained %d pairs, want %d from unsplit tasks", tick, len(pairs), len(want[tick]))
		}
	}
}

// A key-group snapshot taken while fragments are still buffered (and, in
// incremental mode, over live cell state), restored into two fresh
// operators that split the key groups between them, must release exactly
// what the snapshotted operator itself releases.
func TestSnapshotWithBufferedFragmentsReshards(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		name := "classic"
		if incremental {
			name = "incremental"
		}
		t.Run(name, func(t *testing.T) {
			frags := fragmentsPerTick(workload(13), incremental)
			r := rand.New(rand.NewSource(5))

			// Reference: ticks 0-1 complete, ticks 2-3 buffered at the
			// barrier, then released by the operator that holds them.
			var blob []byte
			ref := newSink()
			a := flow.NewPipeline(flow.Config{
				Sink: ref.add,
				OnCheckpointState: func(_ uint64, _, _ int, state []byte, err error) {
					if err != nil {
						t.Errorf("snapshot: %v", err)
					}
					blob = state
				},
			}, flow.StageSpec{Name: "rangejoin", Parallelism: 1, Make: func(int) flow.Operator { return newOp(incremental) }})
			a.Start()
			feed(a, r, frags, 0, 1)
			var pending []any
			for tick := model.Tick(2); tick <= 3; tick++ {
				pending = append(pending, frags[tick]...)
			}
			r.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
			for _, f := range pending {
				a.Submit(routingKey(f), f)
			}
			a.SubmitBarrier(1)
			a.Drain()
			if len(blob) == 0 {
				t.Fatal("snapshot with buffered fragments is empty")
			}

			// Restore the groups into two operators by key-group range.
			groups, err := flow.DecodeGroupStates(blob)
			if err != nil {
				t.Fatal(err)
			}
			shares := make([]map[int][]byte, 2)
			for s := range shares {
				shares[s] = map[int][]byte{}
				lo, hi := flow.KeyGroupRange(flow.DefaultMaxParallelism, 2, s)
				for _, g := range groups {
					if g.Group >= lo && g.Group < hi {
						shares[s][g.Group] = g.Data
					}
				}
				if len(shares[s]) == 0 {
					t.Fatalf("restore share %d holds no key group; weak test", s)
				}
			}
			got := newSink()
			b := flow.NewPipeline(flow.Config{
				Sink:    got.add,
				Restore: func(_, sub int) []byte { return flow.EncodeGroupStates(shares[sub]) },
			}, flow.StageSpec{Name: "rangejoin", Parallelism: 2, Make: func(int) flow.Operator { return newOp(incremental) }})
			b.Start()
			b.SubmitWatermark(3)
			b.Drain()

			for tick := model.Tick(2); tick <= 3; tick++ {
				if incremental {
					w, g := ref.netDelta(tick), got.netDelta(tick)
					if len(w) == 0 {
						t.Fatalf("tick %d: reference released no transitions; weak test", tick)
					}
					if !reflect.DeepEqual(g, w) {
						t.Errorf("tick %d: restored ops net %d transitions, reference %d", tick, len(g), len(w))
					}
					continue
				}
				w, g := ref.sortedPairs(tick), got.sortedPairs(tick)
				if len(w) == 0 {
					t.Fatalf("tick %d: reference released no pairs; weak test", tick)
				}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("tick %d: restored ops released %d pairs, reference %d", tick, len(g), len(w))
				}
			}
		})
	}
}

// netPairs drops pairs present in both sorted lists and keeps the rest
// in order.
func TestNetPairs(t *testing.T) {
	adds := []uint64{1, 3, 5, 7}
	dels := []uint64{2, 3, 7, 9}
	na, nd := netPairs(adds, dels)
	if !reflect.DeepEqual(na, []uint64{1, 5}) || !reflect.DeepEqual(nd, []uint64{2, 9}) {
		t.Fatalf("netPairs = %v, %v", na, nd)
	}
	keys := sortedKeys(map[grid.Key]int{{X: 1, Y: 0}: 0, {X: -1, Y: 5}: 0, {X: 1, Y: -2}: 0})
	if !sort.SliceIsSorted(keys, func(i, j int) bool {
		return keys[i].X < keys[j].X || keys[i].X == keys[j].X && keys[i].Y < keys[j].Y
	}) {
		t.Fatalf("sortedKeys = %v", keys)
	}
}
