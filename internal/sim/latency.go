package sim

import (
	"fmt"

	"hirep/internal/stats"
)

// Latency reports per-transaction response-time distributions (mean / P50 /
// P95 / P99 / max) for pure voting and hiREP at several onion lengths — the
// distributional companion to Figure 8's cumulative curves, exposing the
// congestion tail that makes flooding slow.
func Latency(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	vs := onionLengthVariants(p, "latency", 5, 7, 10)
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	table := stats.NewTable("Response-time distribution per transaction (ms)",
		"system", "mean", "P50", "P95", "P99", "max")
	var notes []string
	for i, v := range vs {
		var sample stats.Sample
		for _, txs := range runs[i] {
			for _, tx := range txs {
				sample.Add(tx.resp)
			}
		}
		table.AddRow(v.name, sample.Mean(), sample.Quantile(0.5), sample.Quantile(0.95), sample.Quantile(0.99), sample.Max())
		notes = append(notes, fmt.Sprintf("%s: P50 %.0f ms, P99 %.0f ms", v.name, sample.Quantile(0.5), sample.Quantile(0.99)))
	}
	return ExpResult{Name: "latency", Table: table, Notes: notes}, nil
}
