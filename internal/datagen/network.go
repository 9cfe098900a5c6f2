// Package datagen generates the trajectory workloads of the paper's
// evaluation (Table 2). The real datasets are unavailable (Taxi is
// proprietary; GeoLife is external; Brinkhoff is a Java tool), so each is
// replaced by a synthetic generator reproducing the statistics the
// algorithms are sensitive to: spatial density, cluster-size distribution,
// sampling cadence, and co-movement structure. DefaultGeoLife, DefaultTaxi
// and DefaultBrinkhoff document each substitution.
//
// All generators are deterministic for a given seed.
package datagen

import (
	"container/heap"
	"math/rand"

	"repro/internal/geo"
)

// RoadClass categorizes network edges, Brinkhoff-style.
type RoadClass int

const (
	// Local streets: slow, dense.
	Local RoadClass = iota
	// Arterial roads: medium speed.
	Arterial
	// Highways: fast, sparse.
	Highway
)

// Speed returns the class's design speed in distance units per tick.
func (c RoadClass) Speed() float64 {
	switch c {
	case Highway:
		return 30
	case Arterial:
		return 15
	default:
		return 7
	}
}

// Edge is one directed road segment.
type Edge struct {
	To    int32
	Dist  float64
	Class RoadClass
}

// Network is a synthetic road network: a perturbed grid with arterial rows
// and highway columns, mimicking the structure of the urban networks the
// Brinkhoff generator runs on.
type Network struct {
	Nodes []geo.Point
	Adj   [][]Edge
}

// GenNetwork builds a rows x cols grid network with the given spacing.
// Node positions are jittered; every rowStride-th row is arterial and
// every colStride-th column a highway.
func GenNetwork(rng *rand.Rand, rows, cols int, spacing float64) *Network {
	if rows < 2 || cols < 2 {
		panic("datagen: network needs at least a 2x2 grid")
	}
	n := &Network{
		Nodes: make([]geo.Point, rows*cols),
		Adj:   make([][]Edge, rows*cols),
	}
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			jx := (rng.Float64() - 0.5) * spacing * 0.3
			jy := (rng.Float64() - 0.5) * spacing * 0.3
			n.Nodes[id(r, c)] = geo.Point{
				X: float64(c)*spacing + jx,
				Y: float64(r)*spacing + jy,
			}
		}
	}
	classOf := func(r, c, r2, c2 int) RoadClass {
		if c == c2 && c%5 == 0 {
			return Highway
		}
		if r == r2 && r%3 == 0 {
			return Arterial
		}
		return Local
	}
	link := func(a, b int32, cl RoadClass) {
		d := n.Nodes[a].Dist(n.Nodes[b], geo.L2)
		n.Adj[a] = append(n.Adj[a], Edge{To: b, Dist: d, Class: cl})
		n.Adj[b] = append(n.Adj[b], Edge{To: a, Dist: d, Class: cl})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				link(id(r, c), id(r, c+1), classOf(r, c, r, c+1))
			}
			if r+1 < rows {
				link(id(r, c), id(r+1, c), classOf(r, c, r+1, c))
			}
		}
	}
	return n
}

// Extent returns the bounding rectangle of the network.
func (n *Network) Extent() geo.Rect {
	r := geo.EmptyRect()
	for _, p := range n.Nodes {
		r = r.UnionPoint(p)
	}
	return r
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node int32
	dist float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// ShortestPath returns the travel-time-optimal node sequence from src to
// dst (inclusive), or nil if unreachable. Edge cost is Dist/Speed.
func (n *Network) ShortestPath(src, dst int32) []int32 {
	if src == dst {
		return []int32{src}
	}
	const inf = 1e18
	dist := make([]float64, len(n.Nodes))
	prev := make([]int32, len(n.Nodes))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.node == dst {
			break
		}
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range n.Adj[it.node] {
			nd := it.dist + e.Dist/e.Class.Speed()
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.node
				heap.Push(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	if prev[dst] == -1 {
		return nil
	}
	var path []int32
	for at := dst; at != -1; at = prev[at] {
		path = append(path, at)
		if at == src {
			break
		}
	}
	// Reverse.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// EdgeBetween returns the edge from a to b, if any.
func (n *Network) EdgeBetween(a, b int32) (Edge, bool) {
	for _, e := range n.Adj[a] {
		if e.To == b {
			return e, true
		}
	}
	return Edge{}, false
}
