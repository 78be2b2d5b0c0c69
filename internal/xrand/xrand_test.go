package xrand

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSplitIndependentOfParentUse(t *testing.T) {
	a := New(7)
	b := New(7)
	// Advance a's stream heavily before splitting; b splits immediately.
	for i := 0; i < 500; i++ {
		a.Float64()
	}
	ca, cb := a.Split("child"), b.Split("child")
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("Split depends on parent stream position")
		}
	}
}

func TestSplitDistinctLabels(t *testing.T) {
	g := New(1)
	a, b := g.Split("x"), g.Split("y")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("children for distinct labels look identical (%d/64 equal)", same)
	}
}

func TestSplitNDistinct(t *testing.T) {
	g := New(3)
	seen := map[int64]bool{}
	for i := 0; i < 256; i++ {
		c := g.SplitN("rep", i)
		if seen[c.Seed()] {
			t.Fatalf("duplicate derived seed for index %d", i)
		}
		seen[c.Seed()] = true
	}
}

func TestRangeBounds(t *testing.T) {
	g := New(9)
	f := func(lo, hi float64) bool {
		// Constrain to spans where lo + (hi-lo) is exactly representable;
		// astronomically large spans overflow float64 arithmetic.
		if math.IsNaN(lo) || math.IsNaN(hi) || math.Abs(lo) > 1e100 || math.Abs(hi) > 1e100 || hi <= lo {
			return true
		}
		v := g.Range(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntRangeBounds(t *testing.T) {
	g := New(11)
	for i := 0; i < 1000; i++ {
		v := g.IntRange(-5, 5)
		if v < -5 || v > 5 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).IntRange(3, 2)
}

func TestChooseDistinct(t *testing.T) {
	g := New(13)
	for trial := 0; trial < 100; trial++ {
		n := g.IntRange(1, 50)
		k := g.IntRange(0, n)
		out := g.Choose(n, k)
		if len(out) != k {
			t.Fatalf("Choose(%d,%d) returned %d items", n, k, len(out))
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= n {
				t.Fatalf("Choose value %d out of range [0,%d)", v, n)
			}
			if seen[v] {
				t.Fatalf("Choose returned duplicate %d", v)
			}
			seen[v] = true
		}
	}
}

func TestChooseAllWhenKTooLarge(t *testing.T) {
	g := New(17)
	out := g.Choose(5, 10)
	if len(out) != 5 {
		t.Fatalf("expected permutation of 5, got %d", len(out))
	}
}

func TestChooseUniformity(t *testing.T) {
	g := New(19)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range g.Choose(10, 3) {
			counts[v]++
		}
	}
	// Each index should be picked ~ trials*3/10 = 6000 times.
	for i, c := range counts {
		if c < 5500 || c > 6500 {
			t.Errorf("index %d chosen %d times, expected ~6000", i, c)
		}
	}
}

func TestWeightedIndex(t *testing.T) {
	g := New(23)
	w := []float64{0, 1, 3, 0}
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[g.WeightedIndex(w)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight indices were selected: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("weight ratio should be ~3, got %.2f", ratio)
	}
}

func TestWeightedIndexAllZeroFallsBackUniform(t *testing.T) {
	g := New(29)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[g.WeightedIndex([]float64{0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("uniform fallback skewed: index %d got %d/3000", i, c)
		}
	}
}

func TestWeightedIndexNegativeTreatedZero(t *testing.T) {
	g := New(31)
	for i := 0; i < 1000; i++ {
		if got := g.WeightedIndex([]float64{-5, 2, -1}); got != 1 {
			t.Fatalf("negative weight selected: index %d", got)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	g := New(37)
	hits := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / trials
	if p < 0.23 || p < 0 || p > 0.27 {
		t.Errorf("Bool(0.25) hit rate %.3f", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(41)
	p := g.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in Perm", v)
		}
		seen[v] = true
	}
}

// TestKnownAnswers pins the first draws of a root generator and of both kinds
// of child, so that any change to the streams every experiment draws from is
// a visible decision rather than a side effect.
func TestKnownAnswers(t *testing.T) {
	root := New(2006)
	for _, c := range []struct {
		name   string
		g      *RNG
		uint64 uint64
		int63  int64
		intn   int
	}{
		{"New(2006)", New(2006), 0x211ac33cfc9ccad7, 0x57c43a3386a409f2, 923},
		{`Split("x")`, root.Split("x"), 0xa4ca7d906c265175, 0x563cfc623dda0617, 909},
		{`SplitN("y", 3)`, root.SplitN("y", 3), 0x47c0c1ad6258bacb, 0x5f18b395c52fdc76, 996},
	} {
		u, i, n := c.g.Uint64(), c.g.Int63(), c.g.Intn(1000)
		if u != c.uint64 || i != c.int63 || n != c.intn {
			t.Errorf("%s: first draws Uint64 %#x, Int63 %#x, Intn(1000) %d; want %#x, %#x, %d",
				c.name, u, i, n, c.uint64, c.int63, c.intn)
		}
	}
}

// TestNewAllocs: a generator costs a couple of small objects, not a seeded
// state table — the simulator makes one per peer, agent and voter.
func TestNewAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { sinkRNG = New(42) }); a > 3 {
		t.Errorf("New allocates %v times, want <= 3", a)
	}
	if b := allocBytes(func() { sinkRNG = New(42) }); b > 256 {
		t.Errorf("New allocates %d bytes, want <= 256 (math/rand's source alone is 4.9 KB)", b)
	}
}

var (
	sinkRNG  *RNG
	sinkInts []int
)

// allocBytes returns the heap bytes one call of f allocates, averaged over
// a thousand calls.
func allocBytes(f func()) uint64 {
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// chooseDense is Choose's reference: the partial Fisher-Yates over a real
// index table of n entries.
func chooseDense(g *RNG, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + g.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}

// TestChooseMatchesDense: Choose draws the same indices, in the same order,
// from the same stream as the dense reference, for every k < n <= 40.
func TestChooseMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		for n := 1; n <= 40; n++ {
			for k := 0; k < n; k++ {
				got, want := New(seed).Choose(n, k), chooseDense(New(seed), n, k)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: Choose(%d, %d) = %v, dense reference %v", seed, n, k, got, want)
				}
			}
		}
	}
}

// TestChooseAllocs: a few relays out of a thousand nodes cost the result
// slice, not an n-entry index table.
func TestChooseAllocs(t *testing.T) {
	g := New(43)
	if a := testing.AllocsPerRun(100, func() { sinkInts = g.Choose(1000, 3) }); a > 2 {
		t.Errorf("Choose(1000, 3) allocates %v times, want <= 2", a)
	}
	if b := allocBytes(func() { sinkInts = g.Choose(1000, 3) }); b > 256 {
		t.Errorf("Choose(1000, 3) allocates %d bytes, want <= 256 (an index table is 8 KB)", b)
	}
}

// TestSplitNStreamsUncorrelated: the simulator gives peer i the stream
// SplitN("peer", i), so siblings must not move together. It correlates the
// k-th draw of child n with the k-th draw of child n+d over 4000 children;
// independent streams keep every coefficient within a few 1/sqrt(4000) ≈
// 0.016. (math/rand's own source, seeded through its Lehmer LCG from the
// FNV-derived seeds, read |r| up to 0.6 here.)
func TestSplitNStreamsUncorrelated(t *testing.T) {
	const children, draws = 4000, 8
	root := New(2006).Split("hirep")
	x := make([][]float64, draws)
	for k := range x {
		x[k] = make([]float64, children)
	}
	for n := 0; n < children; n++ {
		g := root.SplitN("peer", n)
		for k := range x {
			x[k][n] = g.Float64()
		}
	}
	for _, d := range []int{1, 2, 3, 4, 8, 16, 256} {
		for k := range x {
			if r := correlation(x[k][:children-d], x[k][d:]); math.Abs(r) > 0.08 {
				t.Errorf("draw %d of SplitN children %d apart: correlation %+.3f", k, d, r)
			}
		}
	}
}

func correlation(a, b []float64) float64 {
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var sab, saa, sbb float64
	for i := range a {
		sab += (a[i] - ma) * (b[i] - mb)
		saa += (a[i] - ma) * (a[i] - ma)
		sbb += (b[i] - mb) * (b[i] - mb)
	}
	return sab / math.Sqrt(saa*sbb)
}
