package sim

import (
	"fmt"

	"hirep/internal/stats"
)

// Loss sweeps network message-loss probability and compares how hiREP and
// pure voting degrade. Neither protocol retransmits, so losses surface as
// missing evidence: hiREP loses agent responses and reports (its maintenance
// machinery treats silent agents as offline); voting loses individual votes,
// which its large voter population absorbs. The experiment quantifies the
// trade-off between hiREP's small high-value message set and voting's
// redundant flood.
func Loss(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	losses := []float64{0, 0.01, 0.05, 0.10, 0.20}
	// Per loss level, hiREP and voting over identical lossy worlds.
	var vs []variant
	for _, loss := range losses {
		lossy := p
		lossy.Net.LossProb = loss
		label := fmt.Sprintf("loss-%.2f", loss)
		vs = append(vs, hirepVariant(lossy, "hirep", label, p.Hirep), votingVariant(lossy, "voting", label, p.AvgDegree, p.Voting))
	}
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	table := stats.NewTable("Robustness to network message loss",
		"loss prob", "hirep MSE", "hirep responses/tx", "voting MSE", "voting voters/tx")
	var notes []string
	lastQuarter := p.Transactions * 3 / 4
	for i, loss := range losses {
		// mse and answers/tx of hiREP (0) and voting (1) at this loss level.
		var mse, answers [2]stats.Accum
		for j := range mse {
			for _, txs := range runs[2*i+j] {
				for _, tx := range txs {
					answers[j].Add(float64(tx.answers))
				}
				if m, ok := tailMSE(txs[lastQuarter:]); ok {
					mse[j].Add(m)
				}
			}
		}
		table.AddRow(loss, mse[0].Mean(), answers[0].Mean(), mse[1].Mean(), answers[1].Mean())
		notes = append(notes, fmt.Sprintf("loss %.0f%%: hiREP MSE %.3f (%.1f resp/tx), voting MSE %.3f",
			loss*100, mse[0].Mean(), answers[0].Mean(), mse[1].Mean()))
	}
	return ExpResult{Name: "loss", Table: table, Notes: notes}, nil
}
