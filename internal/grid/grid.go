// Package grid implements the global layer of the GR-index (Section 5.1):
// cell key computation, the GridObject replication of Definition 12, and the
// GridAllocate algorithm (Algorithm 1) with Lemma 1's upper-half pruning.
//
// A location o is assigned the primary key <floor(o.x/lg), floor(o.y/lg)>.
// For a range join with threshold eps, o is replicated as a *data object*
// into its own cell and as *query objects* into the other cells intersecting
// the upper half of its range region [x-eps, x+eps] x [y, y+eps]; Lemma 1
// proves no join result is missed and no pair is reported twice.
package grid

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// Key identifies one grid cell.
type Key struct {
	X, Y int32
}

func (k Key) String() string { return fmt.Sprintf("<%d,%d>", k.X, k.Y) }

// Hash returns a well-mixed 64-bit hash of the key, used to route cells to
// parallel subtasks.
func (k Key) Hash() uint64 {
	h := uint64(uint32(k.X))<<32 | uint64(uint32(k.Y))
	// SplitMix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// KeyOf returns the cell key of p for grid cell width lg.
func KeyOf(p geo.Point, lg float64) Key {
	return Key{
		X: int32(math.Floor(p.X / lg)),
		Y: int32(math.Floor(p.Y / lg)),
	}
}

// CellRect returns the half-open cell rectangle [X*lg, (X+1)*lg) x
// [Y*lg, (Y+1)*lg) as a closed geo.Rect for intersection tests.
func CellRect(k Key, lg float64) geo.Rect {
	return geo.Rect{
		MinX: float64(k.X) * lg,
		MinY: float64(k.Y) * lg,
		MaxX: float64(k.X+1) * lg,
		MaxY: float64(k.Y+1) * lg,
	}
}

// Object is the GridObject of Definition 12: a location replicated into a
// cell, flagged as a data object (Query=false, to be indexed) or a query
// object (Query=true, to be probed only).
type Object struct {
	Key   Key
	Query bool
	// Index is the caller's handle for the location (e.g. the position in
	// the snapshot).
	Index int32
	Loc   geo.Point
}

// Mode selects the replication strategy.
type Mode int

const (
	// UpperHalf replicates query objects only into cells intersecting the
	// upper half of the range region (Lemma 1; used by RJC).
	UpperHalf Mode = iota
	// FullRegion replicates query objects into every cell intersecting the
	// full range region (the SRJ baseline; produces duplicate results that
	// must be de-duplicated downstream).
	FullRegion
)

// Allocate implements Algorithm 1 for one location: it emits the data
// object for the location's own cell, then one query object per additional
// cell determined by the mode. emit is called once per GridObject.
func Allocate(idx int32, loc geo.Point, lg, eps float64, mode Mode, emit func(Object)) {
	if lg <= 0 {
		panic("grid: cell width must be positive")
	}
	home := KeyOf(loc, lg)
	emit(Object{Key: home, Query: false, Index: idx, Loc: loc})

	x0 := int32(math.Floor((loc.X - eps) / lg))
	x1 := int32(math.Floor((loc.X + eps) / lg))
	var y0 int32
	if mode == UpperHalf {
		y0 = int32(math.Floor(loc.Y / lg))
	} else {
		y0 = int32(math.Floor((loc.Y - eps) / lg))
	}
	y1 := int32(math.Floor((loc.Y + eps) / lg))
	// The loops run on int64 so a bound at math.MaxInt32 terminates
	// instead of wrapping around the int32 range.
	for x := int64(x0); x <= int64(x1); x++ {
		for y := int64(y0); y <= int64(y1); y++ {
			k := Key{X: int32(x), Y: int32(y)}
			if k == home {
				continue
			}
			emit(Object{Key: k, Query: true, Index: idx, Loc: loc})
		}
	}
}

// QueryCellCount returns how many query objects Allocate emits for a
// location, useful for replication-factor statistics.
func QueryCellCount(loc geo.Point, lg, eps float64, mode Mode) int {
	n := 0
	Allocate(0, loc, lg, eps, mode, func(o Object) {
		if o.Query {
			n++
		}
	})
	return n
}
