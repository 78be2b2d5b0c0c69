package sim

import (
	"fmt"

	"hirep/internal/core"
	"hirep/internal/stats"
)

// Models compares the agent trust-computation models (§4.2.3's "next level
// computation model") with and without report manipulation: untrustworthy
// peers inverting their transaction reports. The credibility-weighted model
// is the designed defence — a liar's verdicts contradict the rest of the
// evidence, so its feedback credibility collapses.
func Models(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	var vs []variant
	var lies []bool // lies[i] is whether variant i's reporters lie
	for _, lying := range []bool{false, true} {
		for _, model := range []core.AgentModel{core.ModelRating, core.ModelTally, core.ModelCredibility} {
			cfg := p.Hirep
			cfg.Model = model
			cfg.LyingReporters = lying
			vs = append(vs, hirepVariant(p, model.String(), fmt.Sprintf("models-%v-%v", model, lying), cfg))
			lies = append(lies, lying)
		}
	}
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	table := stats.NewTable("Agent computation models under report manipulation (§4.2.3)",
		"model", "lying reporters", "final MSE", "good-choice rate")
	var notes []string
	lastQuarter := p.Transactions * 3 / 4
	for i, v := range vs {
		var mseAcc, goodAcc stats.Accum
		for _, txs := range runs[i] {
			if mse, ok := tailMSE(txs[lastQuarter:]); ok {
				mseAcc.Add(mse)
			}
			observeGood(&goodAcc, txs[lastQuarter:])
		}
		table.AddRow(v.name, lies[i], mseAcc.Mean(), goodAcc.Mean())
		notes = append(notes, fmt.Sprintf("%s lying=%v: MSE %.4f", v.name, lies[i], mseAcc.Mean()))
	}
	return ExpResult{Name: "models", Table: table, Notes: notes}, nil
}
