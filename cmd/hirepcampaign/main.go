// Command hirepcampaign runs the adversarial campaign harness (DESIGN.md
// §13): coordinated attacker populations — sybil floods, collusion rings,
// slander cells, composites with infrastructure faults — against the
// simulator or a live loopback fleet, scored into a resistance table.
//
// Usage:
//
//	hirepcampaign                                  # all campaigns, sim backend, quick scale
//	hirepcampaign -backend both -campaign sybil-flood
//	hirepcampaign -backend live -campaign slander-cell -seed 2007 -csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hirep/internal/attack"
	"hirep/internal/campaign"
	"hirep/internal/sim"
)

func main() {
	var (
		backend = flag.String("backend", "sim", "battlefield: sim|live|both")
		name    = flag.String("campaign", "all", "campaign: sybil-flood|collusion-ring|slander-cell|composite-sybil-dos|all")
		reports = flag.Int("reports", 0, "override reports per identity per agent")
		waves   = flag.Int("waves", 0, "override sybil join ramp (identity waves)")
		seed    = flag.Int64("seed", 0, "override root seed")
		quick   = flag.Bool("quick", true, "reduced-scale sim parameters")
		n       = flag.Int("n", 0, "override sim network size")
		tx      = flag.Int("tx", 0, "override sim transactions")
		csv     = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	flag.Parse()

	p := sim.PaperParams()
	if *quick {
		p = sim.QuickParams()
	}
	if *n > 0 {
		p.NetworkSize = *n
	}
	if *tx > 0 {
		p.Transactions = *tx
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var scenarios []attack.Scenario
	for _, sc := range attack.Campaigns() {
		if *name == "all" || sc.Name == *name {
			scenarios = append(scenarios, sc)
		}
	}
	if len(scenarios) == 0 {
		fmt.Fprintf(os.Stderr, "unknown campaign %q; want one of:", *name)
		for _, sc := range attack.Campaigns() {
			fmt.Fprintf(os.Stderr, " %s", sc.Name)
		}
		fmt.Fprintln(os.Stderr, " all")
		os.Exit(2)
	}

	var backends []campaign.Backend
	switch *backend {
	case "sim":
		backends = []campaign.Backend{campaign.SimBackend{Params: p}}
	case "live":
		backends = []campaign.Backend{campaign.LiveBackend{}}
	case "both":
		backends = []campaign.Backend{campaign.SimBackend{Params: p}, campaign.LiveBackend{}}
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q; want sim|live|both\n", *backend)
		os.Exit(2)
	}

	var scores []campaign.Score
	start := time.Now()
	for _, b := range backends {
		for _, sc := range scenarios {
			spec := campaign.Spec{
				Scenario:           sc,
				ReportsPerIdentity: *reports,
				Waves:              *waves,
				Seed:               *seed,
			}
			score, err := b.Run(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s/%s: %v\n", b.Name(), sc.Name, err)
				os.Exit(1)
			}
			scores = append(scores, score)
		}
	}

	t := campaign.ResistanceTable(scores)
	if *csv {
		t.RenderCSV(os.Stdout)
	} else {
		t.Render(os.Stdout)
		fmt.Printf("\n[%d runs in %s]\n", len(scores), time.Since(start).Round(time.Millisecond))
	}
}
