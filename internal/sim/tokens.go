package sim

import (
	"fmt"

	"hirep/internal/stats"
	"hirep/internal/topology"
)

// Tokens sweeps the agent-list request token budget (Table 1's "token
// number") and reports what the budget buys: bootstrap traffic against
// trusted-agent list coverage. The §3.4.1 walk consumes one token per
// answering node, so the budget directly bounds both the walk's cost and how
// many candidate recommendations a peer can collect.
func Tokens(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	budgets := []int{3, 5, 10, 20, 40}
	type world struct {
		msgsPerPeer float64
		listSizes   []int // every peer's trusted-agent list length
		fullPct     float64
		honestPct   float64
		anyAgent    bool
	}
	worlds := make([]world, len(budgets)*p.Replicas)
	err := forEachTask(len(worlds), p.workers(), func(i int) error {
		tokens, rep := budgets[i/p.Replicas], i%p.Replicas
		cfg := p.Hirep
		cfg.Tokens = tokens
		_, sys, err := newHirep(p, cfg, replicaSeed(p.Seed, fmt.Sprintf("tokens-%d", tokens), rep))
		if err != nil {
			return fmt.Errorf("tokens %d replica %d: %w", tokens, rep, err)
		}
		out := &worlds[i]
		out.msgsPerPeer = float64(sys.Bootstrap()) / float64(p.NetworkSize)
		full, honest, total := 0, 0, 0
		for n := 0; n < p.NetworkSize; n++ {
			agents := sys.TrustedAgentsOf(topology.NodeID(n))
			out.listSizes = append(out.listSizes, len(agents))
			if len(agents) == cfg.TrustedAgents {
				full++
			}
			for _, a := range agents {
				total++
				if sys.IsHonestAgent(a) {
					honest++
				}
			}
		}
		out.fullPct = 100 * float64(full) / float64(p.NetworkSize)
		if out.anyAgent = total > 0; out.anyAgent {
			out.honestPct = 100 * float64(honest) / float64(total)
		}
		return nil
	})
	if err != nil {
		return ExpResult{}, err
	}
	table := stats.NewTable("Token budget vs list coverage (§3.4.1 walk)",
		"tokens", "bootstrap msgs/peer", "avg list size", "full lists %", "honest in lists %")
	var notes []string
	for i, tokens := range budgets {
		var msgsAcc, sizeAcc, fullAcc, honestAcc stats.Accum
		for _, w := range worlds[i*p.Replicas : (i+1)*p.Replicas] {
			msgsAcc.Add(w.msgsPerPeer)
			for _, size := range w.listSizes {
				sizeAcc.Add(float64(size))
			}
			fullAcc.Add(w.fullPct)
			if w.anyAgent {
				honestAcc.Add(w.honestPct)
			}
		}
		table.AddRow(tokens, msgsAcc.Mean(), sizeAcc.Mean(), fullAcc.Mean(), honestAcc.Mean())
		notes = append(notes, fmt.Sprintf("tokens=%d: %.1f msgs/peer, %.1f agents/list",
			tokens, msgsAcc.Mean(), sizeAcc.Mean()))
	}
	return ExpResult{Name: "tokens", Table: table, Notes: notes}, nil
}
