package core

import (
	"slices"
	"testing"

	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

func TestRankAgentsSingleList(t *testing.T) {
	lists := [][]Recommendation{{
		{Agent: 1, Weight: 0.9},
		{Agent: 2, Weight: 0.5},
		{Agent: 3, Weight: 0.7},
	}}
	ranks := RankAgents(lists, 3)
	// Sorted by weight: 1 (0.9) -> rank 3, 3 (0.7) -> rank 2, 2 (0.5) -> rank 1.
	if ranks[1] != 3 || ranks[3] != 2 || ranks[2] != 1 {
		t.Fatalf("ranks %v", ranks)
	}
}

func TestRankAgentsMaxAcrossLists(t *testing.T) {
	// §3.4.2: "For the same agent who gets different rank values from
	// different agent lists, the highest rank value will be its final rank."
	lists := [][]Recommendation{
		{{Agent: 1, Weight: 0.2}, {Agent: 2, Weight: 0.9}}, // 1 ranks 1 here
		{{Agent: 1, Weight: 0.8}},                          // 1 ranks 2 here
	}
	ranks := RankAgents(lists, 2)
	if ranks[1] != 2 {
		t.Fatalf("agent 1 final rank %d, want max 2", ranks[1])
	}
}

func TestRankAgentsBadMouthingBlunted(t *testing.T) {
	// §4.2.1: attackers giving a good agent many low-weight recommendations
	// cannot lower the rank it earns from one honest list.
	honest := []Recommendation{{Agent: 7, Weight: 0.95}}
	lists := [][]Recommendation{honest}
	for i := 0; i < 20; i++ {
		lists = append(lists, []Recommendation{{Agent: 7, Weight: 0.01}, {Agent: 99, Weight: 0.99}})
	}
	ranks := RankAgents(lists, 5)
	if ranks[7] != 5 {
		t.Fatalf("bad-mouthed good agent rank %d, want 5", ranks[7])
	}
}

func TestRankAgentsBallotStuffingBounded(t *testing.T) {
	// §4.2.1: many high recommendations for a poor agent have the same effect
	// as a single one — rank saturates at n, it cannot exceed honest agents.
	lists := [][]Recommendation{}
	for i := 0; i < 50; i++ {
		lists = append(lists, []Recommendation{{Agent: 13, Weight: 1.0}})
	}
	lists = append(lists, []Recommendation{{Agent: 4, Weight: 0.9}})
	ranks := RankAgents(lists, 3)
	if ranks[13] != 3 || ranks[4] != 3 {
		t.Fatalf("ranks %v: stuffing should not exceed an honest top rank", ranks)
	}
}

func TestRankAgentsLongListTail(t *testing.T) {
	// Positions beyond n get rank 0.
	list := []Recommendation{}
	for i := 0; i < 10; i++ {
		list = append(list, Recommendation{Agent: topology.NodeID(i), Weight: 1.0 - float64(i)*0.05})
	}
	ranks := RankAgents([][]Recommendation{list}, 3)
	if ranks[0] != 3 || ranks[1] != 2 || ranks[2] != 1 {
		t.Fatalf("head ranks %v", ranks)
	}
	for i := 3; i < 10; i++ {
		if ranks[topology.NodeID(i)] != 0 {
			t.Fatalf("tail agent %d rank %d, want 0", i, ranks[topology.NodeID(i)])
		}
	}
}

func TestRankAgentsEmpty(t *testing.T) {
	if len(RankAgents(nil, 5)) != 0 {
		t.Fatal("empty input produced ranks")
	}
}

func TestSelectAgentsTopRanked(t *testing.T) {
	ranks := map[topology.NodeID]int{1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
	got := SelectAgents(ranks, 3, -1, xrand.New(1))
	if len(got) != 3 {
		t.Fatalf("selected %d", len(got))
	}
	want := map[topology.NodeID]bool{1: true, 2: true, 3: true}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("selected %v, expected top-3 by rank", got)
		}
	}
}

func TestSelectAgentsExcludesSelf(t *testing.T) {
	ranks := map[topology.NodeID]int{1: 5, 2: 4}
	got := SelectAgents(ranks, 5, 1, xrand.New(1))
	for _, id := range got {
		if id == 1 {
			t.Fatal("requestor selected itself")
		}
	}
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestSelectAgentsTieRandomized(t *testing.T) {
	ranks := map[topology.NodeID]int{}
	for i := 0; i < 10; i++ {
		ranks[topology.NodeID(i)] = 3 // all tied
	}
	counts := map[topology.NodeID]int{}
	for seed := int64(0); seed < 200; seed++ {
		for _, id := range SelectAgents(ranks, 2, -1, xrand.New(seed)) {
			counts[id]++
		}
	}
	// Every agent should be picked sometimes — a fixed tie-break would
	// concentrate selection.
	for i := 0; i < 10; i++ {
		if counts[topology.NodeID(i)] == 0 {
			t.Fatalf("agent %d never selected across 200 seeds: %v", i, counts)
		}
	}
}

func TestAgentListWeights(t *testing.T) {
	list, err := trust.NewList[topology.NodeID, []topology.NodeID](5, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	list.Add(4, nil)
	w := (&peerState{list: list}).appendWeights(nil)
	if len(w) != 1 || w[0].Agent != 4 || w[0].Weight != 1 {
		t.Fatalf("weights %v (initial expertise must be 1)", w)
	}
}

// A peer's demoted agent comes back from the backup cache with the onion
// path it was added with, so the transaction that restores it can reach it.
func TestAgentListRestore(t *testing.T) {
	list, err := trust.NewList[topology.NodeID, []topology.NodeID](5, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	path := []topology.NodeID{8, 9, 1}
	list.Add(1, path)
	list.Demote(1)
	if !list.Restore(1) {
		t.Fatal("restore failed")
	}
	if e := list.Find(1); e == nil || !slices.Equal(e.Data, path) || len(list.Backups()) != 0 {
		t.Fatal("restore left inconsistent state")
	}
	if w := (&peerState{list: list}).appendWeights(nil); len(w) != 1 || w[0].Agent != 1 {
		t.Fatalf("weights %v after restore", w)
	}
	if list.Restore(99) {
		t.Fatal("restored nonexistent backup")
	}
}
