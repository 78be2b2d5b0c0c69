package sim

import (
	"fmt"

	"hirep/internal/stats"
	"hirep/internal/topology"
)

// Churn sweeps per-transaction agent offline probability and measures how
// the §3.4.3 maintenance machinery (backup-agent cache, probing, list
// refill) holds accuracy under churn. The paper evaluates a static network;
// this is the churn ablation DESIGN.md calls out, since unstructured P2P
// systems live and die by churn tolerance.
func Churn(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	probs := []float64{0, 0.1, 0.2, 0.4}
	type world struct {
		txs     []txStats
		backups int // populated backup-cache entries at the end of the run
	}
	worlds := make([]world, len(probs)*p.Replicas)
	err := forEachTask(len(worlds), p.workers(), func(i int) error {
		prob, rep := probs[i/p.Replicas], i%p.Replicas
		cfg := p.Hirep
		cfg.OfflineProb = prob
		w, sys, err := newHirep(p, cfg, replicaSeed(p.Seed, fmt.Sprintf("churn-%.2f", prob), rep))
		if err != nil {
			return fmt.Errorf("offline %.2f replica %d: %w", prob, rep, err)
		}
		sys.Bootstrap()
		out := &worlds[i]
		for _, spec := range w.Workload(p.Transactions, cfg.CandidatesPerTx) {
			out.txs = append(out.txs, hirepStats(sys.RunTransaction(spec.Requestor, spec.Candidates)))
		}
		// Count populated backup caches as evidence the §3.4.3 path ran.
		for n := 0; n < w.Graph.N(); n++ {
			out.backups += sys.BackupCountOf(topology.NodeID(n))
		}
		return nil
	})
	if err != nil {
		return ExpResult{}, err
	}
	table := stats.NewTable("Churn ablation: agent offline probability vs accuracy (§3.4.3 maintenance)",
		"offline prob", "final MSE", "good-choice rate", "responses/tx", "maint msgs/tx", "backup hits")
	var notes []string
	lastQuarter := p.Transactions * 3 / 4
	for i, prob := range probs {
		var mseAcc, goodAcc, respAcc, maintAcc stats.Accum
		backups := 0
		for _, w := range worlds[i*p.Replicas : (i+1)*p.Replicas] {
			for _, tx := range w.txs {
				respAcc.Add(float64(tx.answers))
				maintAcc.Add(float64(tx.maint))
			}
			if mse, ok := tailMSE(w.txs[lastQuarter:]); ok {
				mseAcc.Add(mse)
			}
			observeGood(&goodAcc, w.txs[lastQuarter:])
			backups += w.backups
		}
		table.AddRow(prob, mseAcc.Mean(), goodAcc.Mean(), respAcc.Mean(), maintAcc.Mean(), backups)
		notes = append(notes, fmt.Sprintf("offline %.0f%%: MSE %.3f, %.1f responses/tx",
			prob*100, mseAcc.Mean(), respAcc.Mean()))
	}
	return ExpResult{Name: "churn", Table: table, Notes: notes}, nil
}
