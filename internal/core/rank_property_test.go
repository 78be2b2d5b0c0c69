package core

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"hirep/internal/topology"
	"hirep/internal/xrand"
)

// genLists converts fuzzer input into recommendation lists.
func genLists(raw [][]uint16) [][]Recommendation {
	lists := make([][]Recommendation, 0, len(raw))
	for _, rl := range raw {
		var list []Recommendation
		for i, v := range rl {
			if i >= 12 {
				break
			}
			list = append(list, Recommendation{
				Agent:  topology.NodeID(v % 64),
				Weight: float64(v%100) / 100,
			})
		}
		if len(list) > 0 {
			lists = append(lists, list)
		}
	}
	return lists
}

func TestRankAgentsPropertyBounds(t *testing.T) {
	f := func(raw [][]uint16, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		ranks := RankAgents(genLists(raw), n)
		for _, r := range ranks {
			if r < 0 || r > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRankAgentsPropertyMaxDominates(t *testing.T) {
	// Adding more lists can never LOWER an agent's final rank (max rule).
	f := func(raw [][]uint16, extraRaw []uint16, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		lists := genLists(raw)
		before := RankAgents(lists, n)
		extra := genLists([][]uint16{extraRaw})
		after := RankAgents(append(lists, extra...), n)
		for agent, r := range before {
			if after[agent] < r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRankAgentsPropertyTopOfListGetsN(t *testing.T) {
	// The strictly heaviest agent of any list gets the full rank n.
	f := func(raw []uint16, nRaw uint8) bool {
		lists := genLists([][]uint16{raw})
		if len(lists) == 0 {
			return true
		}
		n := int(nRaw%10) + 1
		list := lists[0]
		best, bestW, ties := list[0].Agent, list[0].Weight, 1
		for _, rec := range list[1:] {
			switch {
			case rec.Weight > bestW:
				best, bestW, ties = rec.Agent, rec.Weight, 1
			case rec.Weight == bestW:
				ties++
			}
		}
		if ties > 1 {
			return true // ambiguous head; stable sort decides
		}
		return RankAgents(lists, n)[best] == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSelectAgentsPropertySubsetAndDistinct(t *testing.T) {
	f := func(raw [][]uint16, nRaw, seedRaw uint8) bool {
		n := int(nRaw%10) + 1
		ranks := RankAgents(genLists(raw), n)
		sel := SelectAgents(ranks, n, -1, xrand.New(int64(seedRaw)))
		if len(sel) > n {
			return false
		}
		seen := map[topology.NodeID]bool{}
		for _, id := range sel {
			if seen[id] {
				return false
			}
			seen[id] = true
			if _, ok := ranks[id]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSelectAgentsPropertyRankOrderRespected(t *testing.T) {
	// Every selected agent must have rank >= every unselected agent's rank.
	f := func(raw [][]uint16, seedRaw uint8) bool {
		const n = 4
		ranks := RankAgents(genLists(raw), n)
		sel := SelectAgents(ranks, n, -1, xrand.New(int64(seedRaw)))
		selSet := map[topology.NodeID]bool{}
		minSel := n + 1
		for _, id := range sel {
			selSet[id] = true
			if ranks[id] < minSel {
				minSel = ranks[id]
			}
		}
		if len(sel) < n {
			return true // everything was selected
		}
		for id, r := range ranks {
			if !selSet[id] && r > minSel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sortRankSelect is §3.4.2 written the plain way: stable-sort each list by
// descending weight into a rank map, then sort the candidates by ID, shuffle
// them and stable-sort them by descending rank.
func sortRankSelect(lists [][]Recommendation, n int, exclude topology.NodeID, rng *xrand.RNG) []topology.NodeID {
	ranks := map[topology.NodeID]int{}
	for _, list := range lists {
		sorted := slices.Clone(list)
		slices.SortStableFunc(sorted, func(a, b Recommendation) int { return cmp.Compare(b.Weight, a.Weight) })
		for i, rec := range sorted {
			ranks[rec.Agent] = max(ranks[rec.Agent], n-i, 0)
		}
	}
	var cands []topology.NodeID
	for id := range ranks {
		if id != exclude {
			cands = append(cands, id)
		}
	}
	slices.Sort(cands)
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	slices.SortStableFunc(cands, func(a, b topology.NodeID) int { return cmp.Compare(ranks[b], ranks[a]) })
	return cands
}

// The dense ranker the walk uses picks the same agents in the same order as
// the plain sort-based ranking, draw for draw, so its speed moves no table.
// One ranker is reused across cases, as a System reuses it across walks.
func TestRankerMatchesSortReference(t *testing.T) {
	var r ranker
	f := func(raw [][]uint16, nRaw, seedRaw uint8, excludeRaw uint8) bool {
		n := int(nRaw % 10)
		lists := genLists(raw)
		exclude := topology.NodeID(excludeRaw % 70)
		want := sortRankSelect(lists, n, exclude, xrand.New(int64(seedRaw)))
		r.rank(lists, n)
		got := r.selectAgents(exclude, xrand.New(int64(seedRaw)))
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
