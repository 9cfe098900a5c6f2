package bitstr

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndSetGet(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		if b.Get(i) {
			t.Errorf("bit %d should start 0", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d should be 1 after Set", i)
		}
	}
	if b.OnesCount() != 7 {
		t.Errorf("OnesCount = %d, want 7", b.OnesCount())
	}
}

func TestSetGetOutOfRangePanics(t *testing.T) {
	b := New(4)
	for _, f := range []func(){
		func() { b.Set(-1) }, func() { b.Set(4) },
		func() { b.Get(-1) }, func() { b.Get(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFromStringAndString(t *testing.T) {
	s := "110111"
	b := FromString(s)
	if b.String() != s {
		t.Errorf("round trip = %q", b.String())
	}
	if b.OnesCount() != 5 {
		t.Errorf("OnesCount = %d", b.OnesCount())
	}
	defer func() {
		if recover() == nil {
			t.Error("FromString with junk should panic")
		}
	}()
	FromString("10x")
}

func TestAppend(t *testing.T) {
	var b Bits
	pattern := "10110100101101001011010010110100101101001011010010110100101101001"
	for _, r := range pattern {
		b.Append(r == '1')
	}
	if b.String() != pattern {
		t.Errorf("append mismatch:\n got %s\nwant %s", b.String(), pattern)
	}
	b.AppendN(true, 3)
	if !strings.HasSuffix(b.String(), "111") {
		t.Error("AppendN(true,3) should add 111")
	}
}

func TestTrailingZeros(t *testing.T) {
	cases := []struct {
		s    string
		want int
	}{
		{"", 0},
		{"0000", 4},
		{"1", 0},
		{"100", 2},
		{"00100", 2},
		{"11111", 0},
	}
	for _, c := range cases {
		if got := FromString(c.s).TrailingZeros(); got != c.want {
			t.Errorf("TrailingZeros(%q) = %d, want %d", c.s, got, c.want)
		}
	}
	// Cross word boundary.
	b := New(70)
	b.Set(2)
	if got := b.TrailingZeros(); got != 67 {
		t.Errorf("TrailingZeros = %d, want 67", got)
	}
}

func TestTruncate(t *testing.T) {
	b := FromString("110110")
	b.Truncate(4)
	if b.String() != "1101" {
		t.Errorf("after truncate: %q", b.String())
	}
	if b.OnesCount() != 3 {
		t.Errorf("OnesCount = %d", b.OnesCount())
	}
	b.Append(true)
	if b.String() != "11011" {
		t.Errorf("append after truncate: %q", b.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("Truncate beyond length should panic")
		}
	}()
	b.Truncate(99)
}

func TestClone(t *testing.T) {
	a := FromString("1010")
	b := a.Clone()
	b.Set(1)
	if a.Get(1) {
		t.Error("clone aliases original")
	}
}

// Paper example (Fig. 8): B[o5]=111111, B[o6]=110111, B[o7]=110011.
func TestAndPaperExample(t *testing.T) {
	o5 := FromString("111111")
	o6 := FromString("110111")
	o7 := FromString("110011")
	if got := And(o5, o6).String(); got != "110111" {
		t.Errorf("B[o5]&B[o6] = %s, want 110111", got)
	}
	got := And(And(o5, o6), o7)
	if got.String() != "110011" {
		t.Errorf("B[o5]&B[o6]&B[o7] = %s, want 110011", got.String())
	}
	// K=4, L=2, G=2: 110011 has runs [0,2) and [4,6), gap 4-2=2 ticks apart
	// (positions 3 and 4... last of first run is 1, first of second is 4,
	// tick gap 3 > G=2) -- wait, gap is 4-1=3. Paper says {o5,o6,o7} with
	// T=<3,4,6,7> is valid; bit positions are offsets from tick 3, so
	// 110011 marks ticks {3,4,7,8}. The paper's Fig. 8 bit string for time
	// 3 is 110011 over ticks 3..8, i.e. T={3,4,7,8}: gap 7-4=3 > G=2?
	// Fig. 8 marks it valid because the string is over times 3,4,5,6,7,8
	// and o7's bits are 1,1,0,0,1,1 -> T = {3,4,7,8}. The paper's check
	// mark refers to K=4 total with L=2 segments {3,4} and {7,8}; the gap
	// is 7-4 = 3 which needs G >= 3. The running example in Sec. 3.1 uses
	// T=<3,4,6,7>; Fig. 8's grid differs. We simply assert our semantics.
	if SatisfiesKLG(got, 4, 2, 3) != true {
		t.Error("110011 should satisfy K=4,L=2,G=3")
	}
	if SatisfiesKLG(got, 4, 2, 2) != false {
		t.Error("110011 should fail G=2 (gap of 3 ticks)")
	}
}

func TestAndDifferentLengths(t *testing.T) {
	a := FromString("11111111")
	b := FromString("101")
	got := And(a, b)
	if got.String() != "101" {
		t.Errorf("And = %q, want 101", got.String())
	}
}

func TestAndInto(t *testing.T) {
	a := FromString("1101")
	b := FromString("1011")
	var dst Bits
	AndInto(&dst, a, b)
	if dst.String() != "1001" {
		t.Errorf("AndInto = %q", dst.String())
	}
	// Reuse.
	AndInto(&dst, FromString("11"), FromString("10"))
	if dst.String() != "10" {
		t.Errorf("AndInto reuse = %q", dst.String())
	}
}

func TestRuns(t *testing.T) {
	cases := []struct {
		s    string
		want []Run
	}{
		{"", nil},
		{"0000", nil},
		{"1111", []Run{{0, 4}}},
		{"0110", []Run{{1, 2}}},
		{"101101", []Run{{0, 1}, {2, 2}, {5, 1}}},
	}
	for _, c := range cases {
		got := FromString(c.s).Runs()
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Runs(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

// refRuns derives b's maximal 1-runs bit by bit through Get.
func refRuns(b *Bits) []Run {
	var out []Run
	for i := 0; i < b.Len(); i++ {
		if !b.Get(i) {
			continue
		}
		start := i
		for i < b.Len() && b.Get(i) {
			i++
		}
		out = append(out, Run{Start: start, Len: i - start})
	}
	return out
}

// refChains groups usable runs (length >= l) into chains whose tick gaps
// stay within g, straight from the definition.
func refChains(runs []Run, l, g int) [][]Run {
	var out [][]Run
	lastTick := 0
	for _, r := range runs {
		if r.Len < l {
			continue
		}
		if len(out) == 0 || r.Start-lastTick > g {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], r)
		lastTick = r.End() - 1
	}
	return out
}

// The word-at-a-time run scan must agree with a bit-by-bit reference on
// every length up to 200 — strings ending on a partial word, and runs
// that start, end or cross at a word boundary (bits 63/64, 127/128).
func TestRunsMatchBitwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spans := [][2]int{{0, 64}, {60, 64}, {63, 65}, {64, 70}, {63, 64},
		{64, 65}, {100, 128}, {127, 129}, {128, 140}, {0, 200}, {65, 127}}
	var strs []*Bits
	for n := 0; n <= 200; n++ {
		for _, percent := range []int{3, 10, 75} {
			b := New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(100) < percent {
					b.Set(i)
				}
			}
			strs = append(strs, b)
		}
		for _, sp := range spans {
			b := New(n)
			for i := sp[0]; i < sp[1] && i < n; i++ {
				b.Set(i)
			}
			strs = append(strs, b)
		}
	}
	prefix := []Run{{Start: -7, Len: 3}}
	for _, b := range strs {
		want := refRuns(b)
		if got := b.Runs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Runs(%s) = %v, want %v", b, got, want)
		}
		got := b.AppendRuns(append([]Run(nil), prefix...))
		if !reflect.DeepEqual(got, append(append([]Run(nil), prefix...), want...)) {
			t.Fatalf("AppendRuns(%s) = %v, want %v after %v", b, got, want, prefix)
		}
		for _, lg := range [][2]int{{1, 1}, {2, 2}, {3, 5}, {1, 40}} {
			wantCh := refChains(want, lg[0], lg[1])
			gotCh := Chains(b, lg[0], lg[1])
			if len(gotCh) != len(wantCh) {
				t.Fatalf("Chains(%s, L=%d, G=%d) = %v, want %v", b, lg[0], lg[1], gotCh, wantCh)
			}
			for i, ch := range gotCh {
				count := 0
				for _, r := range wantCh[i] {
					count += r.Len
				}
				if !reflect.DeepEqual(ch.Runs, wantCh[i]) || ch.Count != count {
					t.Fatalf("Chains(%s, L=%d, G=%d)[%d] = %+v, want %v", b, lg[0], lg[1], i, ch, wantCh[i])
				}
			}
		}
	}
}

// Reset reuses a dirty string's storage at any length, all bits zero.
func TestReset(t *testing.T) {
	b := New(0)
	for _, n := range []int{130, 64, 0, 65, 200, 1} {
		b.Reset(n)
		if b.Len() != n || b.OnesCount() != 0 || len(b.Runs()) != 0 {
			t.Fatalf("Reset(%d) = len %d, %d ones", n, b.Len(), b.OnesCount())
		}
		for i := 0; i < n; i += 3 {
			b.Set(i)
		}
	}
}

func TestChains(t *testing.T) {
	// L=2, G=2: usable runs must have len >= 2; gap between last tick of one
	// run and first tick of next must be <= 2.
	b := FromString("1101100010011")
	// Runs: {0,2},{3,2},{8,1},{11,2}. Usable: {0,2},{3,2},{11,2}.
	// Gap run1->run2: start 3 - end 2 = 1 -> tick gap 3-1=2 <= G: chain.
	// Gap run2->run4: 11 - 5 = 6 -> tick gap 11-4=7 > G: new chain.
	chains := Chains(b, 2, 2)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2: %+v", len(chains), chains)
	}
	if chains[0].Count != 4 || chains[1].Count != 2 {
		t.Errorf("counts = %d,%d", chains[0].Count, chains[1].Count)
	}
	if chains[0].Start() != 0 || chains[0].End() != 5 {
		t.Errorf("chain0 span = [%d,%d)", chains[0].Start(), chains[0].End())
	}
}

func TestSatisfiesKLGBasics(t *testing.T) {
	cases := []struct {
		s       string
		k, l, g int
		want    bool
	}{
		{"111111", 4, 2, 2, true},
		{"110111", 4, 2, 2, true},  // {0,1} + {3,4,5}: gap 2, counts 5
		{"110011", 4, 2, 2, false}, // gap 3 > G
		{"110011", 4, 2, 3, true},
		{"100000", 1, 1, 1, true},
		{"100000", 2, 1, 1, false},
		{"101010", 3, 1, 2, true},
		{"101010", 3, 2, 2, false}, // all runs shorter than L
		{"", 1, 1, 1, false},
		{"", 0, 1, 1, true},
		{"1111", 4, 4, 1, true},
		{"11101", 4, 2, 1, false}, // second run too short
	}
	for _, c := range cases {
		if got := SatisfiesKLG(FromString(c.s), c.k, c.l, c.g); got != c.want {
			t.Errorf("SatisfiesKLG(%q,%d,%d,%d) = %v, want %v",
				c.s, c.k, c.l, c.g, got, c.want)
		}
	}
}

// Brute force reference: enumerate all subsets of 1-positions.
func bruteKLG(b *Bits, k, l, g int) bool {
	var ones []int
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			ones = append(ones, i)
		}
	}
	n := len(ones)
	if k <= 0 {
		return true
	}
	for mask := 1; mask < 1<<n; mask++ {
		var sub []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, ones[i])
			}
		}
		if len(sub) < k {
			continue
		}
		okL := true
		// Segment decomposition.
		segStart := 0
		for i := 1; i <= len(sub); i++ {
			if i == len(sub) || sub[i] != sub[i-1]+1 {
				if i-segStart < l {
					okL = false
					break
				}
				segStart = i
			}
		}
		if !okL {
			continue
		}
		okG := true
		for i := 1; i < len(sub); i++ {
			if sub[i]-sub[i-1] > g {
				okG = false
				break
			}
		}
		if okG {
			return true
		}
	}
	return false
}

func TestSatisfiesKLGMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15)
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		k := 1 + rng.Intn(5)
		l := 1 + rng.Intn(3)
		g := 1 + rng.Intn(4)
		got := SatisfiesKLG(b, k, l, g)
		want := bruteKLG(b, k, l, g)
		if got != want {
			t.Logf("b=%s k=%d l=%d g=%d got=%v want=%v", b, k, l, g, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAndMonotonicity(t *testing.T) {
	// If AND(a,b) satisfies KLG then both a and b satisfy it (Apriori).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				a.Set(i)
			}
			if rng.Intn(3) > 0 {
				b.Set(i)
			}
		}
		k, l, g := 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(3)
		ab := And(a, b)
		if SatisfiesKLG(ab, k, l, g) {
			return SatisfiesKLG(a, k, l, g) && SatisfiesKLG(b, k, l, g)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFirstValidChain(t *testing.T) {
	// Runs {1,2} and {5,6,7}; tick gap 5-2 = 3 > G, so two chains: the
	// first has count 2 < K and the second, [5,6,7], is the earliest valid.
	b := FromString("0110011100")
	c, ok := FirstValidChain(b, 3, 2, 2)
	if !ok {
		t.Fatal("expected a valid chain")
	}
	if got := c.Positions(); !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Errorf("Positions = %v", got)
	}
	// With G=3 the runs chain together and the earliest valid chain spans
	// both runs.
	c, ok = FirstValidChain(b, 3, 2, 3)
	if !ok {
		t.Fatal("expected a valid chain at G=3")
	}
	if got := c.Positions(); !reflect.DeepEqual(got, []int{1, 2, 5, 6, 7}) {
		t.Errorf("Positions = %v", got)
	}
	if _, ok := FirstValidChain(b, 6, 2, 2); ok {
		t.Error("no chain of count 6 exists")
	}
}

func TestFinalize(t *testing.T) {
	k, l, g := 4, 2, 2
	// Open: only g trailing zeros.
	if got := Finalize(FromString("110100"), k, l, g, false); got != StatusOpen {
		t.Errorf("2 trailing zeros with G=2: %v, want open", got)
	}
	// Closed, valid: 11011 then 3 zeros (> G).
	if got := Finalize(FromString("11011000"), k, l, g, false); got != StatusMaximal {
		t.Errorf("got %v, want maximal", got)
	}
	// Closed, dead.
	if got := Finalize(FromString("11000000"), k, l, g, false); got != StatusDead {
		t.Errorf("got %v, want dead", got)
	}
	// Force closes regardless of trailing zeros.
	if got := Finalize(FromString("11011"), k, l, g, true); got != StatusMaximal {
		t.Errorf("forced: got %v, want maximal", got)
	}
	if got := Finalize(FromString("11"), k, l, g, true); got != StatusDead {
		t.Errorf("forced short: got %v, want dead", got)
	}
}

func TestSpanOverlapPrune(t *testing.T) {
	// Overlap of exactly K ticks must NOT be pruned.
	if SpanOverlapPrune(10, 13, 4) {
		t.Error("[10,13] has 4 ticks, K=4: keep")
	}
	if !SpanOverlapPrune(10, 12, 4) {
		t.Error("[10,12] has 3 ticks, K=4: prune")
	}
	if !SpanOverlapPrune(10, 5, 1) {
		t.Error("negative overlap: prune")
	}
}

func BenchmarkAnd(b *testing.B) {
	x := New(512)
	y := New(512)
	for i := 0; i < 512; i += 3 {
		x.Set(i)
	}
	for i := 0; i < 512; i += 2 {
		y.Set(i)
	}
	var dst Bits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndInto(&dst, x, y)
	}
}

func BenchmarkSatisfiesKLG(b *testing.B) {
	x := New(512)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 512; i++ {
		if rng.Intn(3) > 0 {
			x.Set(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SatisfiesKLG(x, 30, 5, 4)
	}
}
