// Package xrand provides deterministic, seed-splittable randomness for the
// hiREP simulator and experiment harness.
//
// Every experiment in this repository must be exactly reproducible from a
// single 64-bit seed. The standard library's math/rand is deterministic for a
// fixed seed, but sharing one *rand.Rand between goroutines either races or
// serializes on a mutex and makes results depend on scheduling. xrand instead
// derives independent child generators from a parent seed and a string label,
// so parallel replicas ("replica 3 of fig6 sweep point 0.4") each get a
// stable, independent stream regardless of execution order.
//
// Every generator draws from math/rand/v2's PCG (128-bit LCG, DXSM output)
// behind a math/rand.Rand, so the distributions keep math/rand's algorithms
// while a generator costs 16 bytes of state and one store to seed, not
// math/rand's 607-word table. The simulator derives one generator per peer,
// agent and voter, and seeding that table took about a sixth of its CPU.
// Moving to PCG changed every stream, and so every seeded table, once; the
// streams are pinned by TestKnownAnswers.
package xrand

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	randv2 "math/rand/v2"
)

// RNG is a deterministic random number generator. It is NOT safe for
// concurrent use; derive one per goroutine with Split.
type RNG struct {
	seed int64
	src  pcgSource
	r    *rand.Rand
}

// New returns a generator seeded with seed.
func New(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// pcgSource adapts math/rand/v2's PCG to math/rand's Source64, so every
// distribution built on rand.Rand (Intn, Perm, Shuffle, NormFloat64, Zipf,
// ...) keeps its algorithm while drawing from 16 bytes of state that one
// store seeds. The seed fills both halves of the 128-bit state: the low half
// of an LCG never depends on the high half, so leaving it fixed would give
// every stream the same low-half sequence. Int63 keeps the top 63 bits.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Seed(seed int64) { s.pcg.Seed(uint64(seed), uint64(seed)) }
func (s *pcgSource) Uint64() uint64  { return s.pcg.Uint64() }
func (s *pcgSource) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }

// Seed returns the seed this generator was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Split derives an independent child generator from this generator's seed and
// a label. Splitting is a pure function of (seed, label): it does not advance
// or observe the parent's stream, so the set of children is stable no matter
// how the parent is otherwise used.
func (g *RNG) Split(label string) *RNG {
	return New(deriveSeed(g.seed, label))
}

// SplitN derives an independent child for an integer index, for loops over
// replicas or nodes.
func (g *RNG) SplitN(label string, n int) *RNG {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	return New(deriveSeed(deriveSeed(g.seed, label), string(buf[:])))
}

func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uint64 returns a uniform uint64.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Range returns a uniform value in [lo, hi).
func (g *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (g *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Choose returns k distinct indices sampled uniformly from [0,n) in random
// order. If k >= n it returns a permutation of all n indices.
func (g *RNG) Choose(n, k int) []int {
	if k >= n {
		return g.Perm(n)
	}
	out := make([]int, k)
	if k*k > n {
		// Partial Fisher-Yates over an index table.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + g.r.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
			out[i] = idx[i]
		}
		return out
	}
	// The same Fisher-Yates over a virtual index table: slot j holds j until
	// a swap moves another value there. Step i reads slots i and j >= i and
	// never reads slot i again, so only slot j's new value is recorded — at
	// most k slots, found by a scan that is cheaper than n stores while
	// k*k <= n.
	var buf [8]movedSlot
	moved := buf[:0]
	if k > len(buf) {
		moved = make([]movedSlot, 0, k)
	}
	for i := 0; i < k; i++ {
		j := i + g.r.Intn(n-i)
		out[i] = slotValue(moved, j)
		if j == i {
			continue
		}
		v := slotValue(moved, i)
		if m := findSlot(moved, j); m >= 0 {
			moved[m].val = v
		} else {
			moved = append(moved, movedSlot{slot: j, val: v})
		}
	}
	return out
}

// movedSlot is one slot of Choose's virtual index table that a swap changed.
type movedSlot struct{ slot, val int }

func findSlot(moved []movedSlot, slot int) int {
	for m := range moved {
		if moved[m].slot == slot {
			return m
		}
	}
	return -1
}

func slotValue(moved []movedSlot, slot int) int {
	if m := findSlot(moved, slot); m >= 0 {
		return moved[m].val
	}
	return slot
}

// WeightedIndex samples an index proportional to weights[i]. Non-positive
// weights are treated as zero. If all weights are zero it falls back to a
// uniform choice. It panics on an empty slice.
func (g *RNG) WeightedIndex(weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: WeightedIndex on empty slice")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.Intn(len(weights))
	}
	x := g.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf returns a generator of Zipf-distributed values in [0, imax] with the
// given skew s > 1.
func (g *RNG) Zipf(s float64, imax uint64) *rand.Zipf {
	return rand.NewZipf(g.r, s, 1, imax)
}
