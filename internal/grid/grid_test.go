package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

func TestKeyOf(t *testing.T) {
	// Paper example (Fig. 4): o5 = (4, 8), lg = 3 -> key <1, 2>.
	if got := KeyOf(geo.Point{X: 4, Y: 8}, 3); got != (Key{1, 2}) {
		t.Errorf("KeyOf = %v, want <1,2>", got)
	}
	if got := KeyOf(geo.Point{X: -0.5, Y: 0}, 1); got != (Key{-1, 0}) {
		t.Errorf("negative coords: %v, want <-1,0>", got)
	}
	if got := KeyOf(geo.Point{X: 2.999, Y: 3.0}, 3); got != (Key{0, 1}) {
		t.Errorf("boundary: %v, want <0,1>", got)
	}
}

// A location whose range reaches cell column math.MaxInt32 must allocate
// its handful of cells and stop: an int32 loop counter wraps at that bound
// and never terminates.
func TestAllocateAtInt32Bound(t *testing.T) {
	const lg, eps = 10.0, 10.0
	edge := (math.MaxInt32 - 0.5) * lg
	for _, tc := range []struct {
		loc  geo.Point
		mode Mode
		want int // data object + query objects
	}{
		{geo.Point{X: edge, Y: 0}, UpperHalf, 6},  // 3 columns x 2 rows
		{geo.Point{X: edge, Y: 0}, FullRegion, 9}, // 3 columns x 3 rows
		{geo.Point{X: 0, Y: edge}, UpperHalf, 6},  // 3 columns x 2 rows
		{geo.Point{X: edge, Y: edge}, FullRegion, 9},
	} {
		n := 0
		Allocate(0, tc.loc, lg, eps, tc.mode, func(Object) {
			n++
			if n > 100 {
				t.Fatalf("%+v mode %d: more than 100 objects emitted (counter wrapped)", tc.loc, tc.mode)
			}
		})
		if n != tc.want {
			t.Errorf("%+v mode %d: %d objects, want %d", tc.loc, tc.mode, n, tc.want)
		}
	}
}

func TestKeyString(t *testing.T) {
	if got := (Key{1, 2}).String(); got != "<1,2>" {
		t.Errorf("String = %q", got)
	}
}

func TestKeyHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for x := int32(-20); x < 20; x++ {
		for y := int32(-20); y < 20; y++ {
			seen[(Key{x, y}).Hash()] = true
		}
	}
	if len(seen) != 1600 {
		t.Errorf("hash collisions: %d distinct of 1600", len(seen))
	}
}

func TestCellRectContainsPoint(t *testing.T) {
	f := func(px, py int16) bool {
		p := geo.Point{X: float64(px) / 7, Y: float64(py) / 7}
		lg := 2.5
		return CellRect(KeyOf(p, lg), lg).Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocateUpperHalfPaperExample(t *testing.T) {
	// Paper (Section 5.2): o9 replicated as data object into g10 (<1,1>)
	// and — without Lemma 1 — query objects into g5, g6, g9 (plus its own
	// cell). With Lemma 1, only the UPPER half: y in [floor(y/lg),
	// floor((y+eps)/lg)].
	// Construct a point near a corner so its eps-region spans 4 cells:
	// lg = 3, o = (3.5, 3.5), eps = 1 -> region x: [2.5, 4.5], y: [2.5, 4.5]
	// cells <0..1, 0..1>; upper half y: [3.5, 4.5] -> y cell 1 only.
	loc := geo.Point{X: 3.5, Y: 3.5}
	var data, query []Key
	Allocate(7, loc, 3, 1, UpperHalf, func(o Object) {
		if o.Index != 7 || o.Loc != loc {
			t.Errorf("object payload mangled: %+v", o)
		}
		if o.Query {
			query = append(query, o.Key)
		} else {
			data = append(data, o.Key)
		}
	})
	if len(data) != 1 || data[0] != (Key{1, 1}) {
		t.Errorf("data = %v, want [<1,1>]", data)
	}
	if len(query) != 1 || query[0] != (Key{0, 1}) {
		t.Errorf("upper-half query = %v, want [<0,1>]", query)
	}

	query = nil
	Allocate(7, loc, 3, 1, FullRegion, func(o Object) {
		if o.Query {
			query = append(query, o.Key)
		}
	})
	if len(query) != 3 {
		t.Errorf("full-region query = %v, want 3 cells", query)
	}
}

func TestAllocateNoDuplicateKeys(t *testing.T) {
	f := func(px, py int16, epsRaw, lgRaw uint8) bool {
		lg := 0.5 + float64(lgRaw)/16
		eps := 0.1 + float64(epsRaw)/32
		p := geo.Point{X: float64(px) / 9, Y: float64(py) / 9}
		for _, mode := range []Mode{UpperHalf, FullRegion} {
			seen := map[Key]int{}
			dataCount := 0
			Allocate(0, p, lg, eps, mode, func(o Object) {
				seen[o.Key]++
				if !o.Query {
					dataCount++
					if o.Key != KeyOf(p, lg) {
						return
					}
				}
			})
			if dataCount != 1 {
				return false
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Lemma 1 coverage: for any two points within eps (L-inf square), either
// they share a cell, or one of them emits a query object into the other's
// data cell. This is exactly the property that makes the upper-half range
// join complete.
func TestLemma1Coverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lg := 0.5 + rng.Float64()*3
		eps := 0.05 + rng.Float64()*1.5
		a := geo.Point{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10}
		b := geo.Point{
			X: a.X + (rng.Float64()*2-1)*eps,
			Y: a.Y + (rng.Float64()*2-1)*eps,
		}
		if math.Abs(a.X-b.X) > eps || math.Abs(a.Y-b.Y) > eps {
			return true
		}
		ka, kb := KeyOf(a, lg), KeyOf(b, lg)
		if ka == kb {
			return true
		}
		aQueriesB := false
		Allocate(0, a, lg, eps, UpperHalf, func(o Object) {
			if o.Query && o.Key == kb {
				aQueriesB = true
			}
		})
		bQueriesA := false
		Allocate(1, b, lg, eps, UpperHalf, func(o Object) {
			if o.Query && o.Key == ka {
				bQueriesA = true
			}
		})
		return aQueriesB || bQueriesA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQueryCellCount(t *testing.T) {
	// Full region around a cell-interior point spans at least as many cells
	// as the upper half.
	p := geo.Point{X: 10.1, Y: 10.1}
	up := QueryCellCount(p, 1, 2.5, UpperHalf)
	full := QueryCellCount(p, 1, 2.5, FullRegion)
	if up >= full {
		t.Errorf("upper half (%d) should replicate less than full (%d)", up, full)
	}
}

func TestAllocateZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("lg = 0 should panic")
		}
	}()
	Allocate(0, geo.Point{}, 0, 1, UpperHalf, func(Object) {})
}
