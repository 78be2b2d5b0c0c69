package sim

import (
	"fmt"

	"hirep/internal/stats"
)

// BytesView re-examines Figure 5's comparison in bytes instead of messages.
// The paper's metric is the message count, where hiREP wins by a wide
// margin; but hiREP's messages carry onions (hundreds of bytes of layered
// ciphertext, modelled on the live protocol's real encodings) while flood
// queries are tiny. This experiment reports both units so the trade-off is
// explicit rather than hidden by the choice of metric.
func BytesView(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	// hiREP beside voting at the default degree.
	vs := []variant{
		hirepVariant(p, "hirep", "bytes-hirep", p.Hirep),
		votingVariant(p, "voting", "bytes-voting", p.AvgDegree, p.Voting),
	}
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	table := stats.NewTable("Traffic in messages vs bytes per transaction (Figure 5 revisited)",
		"system", "msgs/tx", "bytes/tx", "bytes/msg")
	msgs, bytes := make([]stats.Accum, len(vs)), make([]stats.Accum, len(vs))
	for i, v := range vs {
		for _, txs := range runs[i] {
			for _, tx := range txs {
				msgs[i].Add(float64(tx.msgs))
				bytes[i].Add(float64(tx.bytes))
			}
		}
		table.AddRow(v.name, msgs[i].Mean(), bytes[i].Mean(), bytes[i].Mean()/msgs[i].Mean())
	}
	hMsgs, hBytes, vMsgs, vBytes := msgs[0].Mean(), bytes[0].Mean(), msgs[1].Mean(), bytes[1].Mean()
	notes := []string{
		fmt.Sprintf("messages: hiREP %.1fx cheaper; bytes: %.1fx cheaper (onion layers cost ~%.0f B/msg vs %.0f B/msg)",
			vMsgs/hMsgs, vBytes/hBytes, hBytes/hMsgs, vBytes/vMsgs),
	}
	return ExpResult{Name: "bytes", Table: table, Notes: notes}, nil
}
