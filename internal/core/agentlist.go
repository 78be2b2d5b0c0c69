package core

import (
	"cmp"
	"slices"

	"hirep/internal/topology"
	"hirep/internal/xrand"
)

// Recommendation is one entry of a shared trusted-agent list: the agent's ID
// and the weight (expertise) the recommender assigns it (§3.4.1's
// {weight, agent nodeid, Onion_agent, SP_e} entry, reduced to the fields the
// ranking algorithm consumes).
type Recommendation struct {
	Agent  topology.NodeID
	Weight float64
}

// RankAgents implements §3.4.2: the requestor wants n agents. Within each
// received list, the agent with the greatest weight is ranked n, the second
// n-1, and so on; positions beyond the n-th rank 0. An agent recommended in
// several lists keeps its highest rank. The returned map carries each
// distinct agent's final rank.
//
// Ranking by per-list position rather than raw weight is what blunts
// bad-mouthing (§4.2.1): an attacker flooding low weights for a good agent
// cannot lower the agent's rank in honest lists, because only the maximum
// rank counts.
func RankAgents(lists [][]Recommendation, n int) map[topology.NodeID]int {
	r := new(ranker)
	r.rank(lists, n)
	ranks := make(map[topology.NodeID]int, len(r.touched))
	for _, id := range r.touched {
		ranks[id] = r.rankOf(id)
	}
	return ranks
}

// SelectAgents picks up to n agents by descending rank, breaking ties
// randomly (§3.4.2: "If several agents have the same rank, requestor picks up
// its trusted agents from them randomly"). exclude removes a node (the
// requestor itself) from consideration. Ranks are as RankAgents returns
// them: zero or more.
func SelectAgents(ranks map[topology.NodeID]int, n int, exclude topology.NodeID, rng *xrand.RNG) []topology.NodeID {
	r := new(ranker)
	for id, rank := range ranks {
		if rank < 0 {
			panic("core: negative rank")
		}
		r.raise(id, rank)
		r.top = max(r.top, rank)
	}
	picked := r.selectAgents(exclude, rng)
	return picked[:min(n, len(picked))]
}

// ranker is RankAgents and SelectAgents over a dense table its owner keeps:
// an agent's rank lives at the index its ID supplies, so a ranking is no map
// and a list is never sorted. The slice selectAgents returns belongs to the
// ranker and is valid until its next call.
type ranker struct {
	ranks   []int32           // rank+1 by agent ID; 0 = not recommended
	touched []topology.NodeID // recommended agents, in first-seen order
	top     int               // the greatest rank; ranks lie in [0, top]
	best    []Recommendation  // one list's best n entries, best first
	count   []int             // per-rank cursor of the counting pass
	cands   []topology.NodeID
	picked  []topology.NodeID
}

// rankOf returns agent id's rank; it must have been recommended.
func (r *ranker) rankOf(id topology.NodeID) int { return int(r.ranks[id]) - 1 }

// raise records that id is recommended at rank, keeping its highest rank.
func (r *ranker) raise(id topology.NodeID, rank int) {
	if int(id) >= len(r.ranks) {
		r.ranks = append(r.ranks, make([]int32, int(id)+1-len(r.ranks))...)
	}
	if r.ranks[id] == 0 {
		r.touched = append(r.touched, id)
	}
	if int32(rank+1) > r.ranks[id] {
		r.ranks[id] = int32(rank + 1)
	}
}

// rank replaces the table with lists' ranks for a requestor that wants n
// agents. Each list's first n entries by descending weight — ties kept in
// list order, as a stable sort would — are found by insertion; every other
// entry ranks 0.
func (r *ranker) rank(lists [][]Recommendation, n int) {
	for _, id := range r.touched {
		r.ranks[id] = 0
	}
	r.touched = r.touched[:0]
	r.top = max(n, 0)
	for _, list := range lists {
		best := r.best[:0]
		for _, rec := range list {
			r.raise(rec.Agent, 0)
			i := len(best)
			for i > 0 && cmp.Less(best[i-1].Weight, rec.Weight) {
				i--
			}
			if i >= n {
				continue
			}
			if len(best) < n {
				best = append(best, Recommendation{})
			}
			copy(best[i+1:], best[i:len(best)-1])
			best[i] = rec
		}
		for i, rec := range best {
			r.raise(rec.Agent, n-i)
		}
		r.best = best
	}
}

// selectAgents returns every ranked agent but exclude, by descending rank
// with ties in random order: candidates are sorted by ID, shuffled with rng,
// then ordered by one stable counting pass over ranks top…0.
func (r *ranker) selectAgents(exclude topology.NodeID, rng *xrand.RNG) []topology.NodeID {
	cands := r.cands[:0]
	for _, id := range r.touched {
		if id != exclude {
			cands = append(cands, id)
		}
	}
	r.cands = cands
	slices.Sort(cands)
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	// count[rank] becomes the first output slot of that rank: ranks top…0
	// fill the output in that order.
	if cap(r.count) <= r.top {
		r.count = make([]int, r.top+1)
	}
	count := r.count[:r.top+1]
	clear(count)
	for _, id := range cands {
		count[r.rankOf(id)]++
	}
	next := 0
	for rank := r.top; rank >= 0; rank-- {
		next, count[rank] = next+count[rank], next
	}
	picked := append(r.picked[:0], cands...)
	for _, id := range cands {
		rank := r.rankOf(id)
		picked[count[rank]] = id
		count[rank]++
	}
	r.picked = picked
	return picked
}

// appendWeights appends p's trusted agents as recommendations for sharing
// with other peers (§3.4.1).
func (p *peerState) appendWeights(dst []Recommendation) []Recommendation {
	for _, e := range p.list.Entries() {
		dst = append(dst, Recommendation{Agent: e.ID, Weight: e.Expertise.Value()})
	}
	return dst
}
