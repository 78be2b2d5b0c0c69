// Package campaign is the adversarial campaign harness (DESIGN.md §13): a
// reusable driver that runs parameterized attacker populations — coordinated
// sybil floods, collusion rings, slander cells, and composites that pair a
// behavior attack with infrastructure faults — against either of the
// codebase's two battlefields behind one interface:
//
//   - the discrete-event simulator (internal/sim + internal/core), where
//     100k-node worlds make population-scale questions answerable;
//   - a live internal/node fleet on real loopback TCP, where identity
//     rotation, batched ingest, and the fault dialer are the real
//     implementations.
//
// Every run is scored the same way: reputation damage (MSE of honest agents'
// estimates against true trust, victim-misclassification rate) against
// attacker effort (identities minted, reports sent and admitted). The
// resistance table those scores form is the machine-readable answer to
// "what does this attack take, and what does it buy".
package campaign

import (
	"fmt"

	"hirep/internal/attack"
	"hirep/internal/stats"
)

// Spec describes one campaign run.
type Spec struct {
	// Scenario supplies the behavior kind, attacker population, and fault
	// plan (attack.Campaigns is the standard suite).
	Scenario attack.Scenario
	// ReportsPerIdentity is how many reports each attacker identity fires at
	// each targeted agent (default 8).
	ReportsPerIdentity int
	// Waves ramps the sybil join rate: identities enter in this many waves
	// with honest traffic between them (default 1 = all at once).
	Waves int
	// Seed roots the run's randomness (0 uses the backend's default).
	Seed int64
}

// withDefaults fills the zero knobs.
func (s Spec) withDefaults() Spec {
	if s.ReportsPerIdentity <= 0 {
		s.ReportsPerIdentity = 8
	}
	if s.Waves <= 0 {
		s.Waves = 1
	}
	return s
}

// validate rejects specs no backend can run.
func (s Spec) validate() error {
	p := s.Scenario.Population
	switch {
	case s.Scenario.Kind == "":
		return fmt.Errorf("campaign: scenario %q has no campaign kind", s.Scenario.Name)
	case p.Attackers < 1 || p.IdentitiesPer < 1:
		return fmt.Errorf("campaign: population %+v is not runnable", p)
	case s.Scenario.Kind == attack.KindSlanderCell && p.Victims < 1:
		return fmt.Errorf("campaign: slander cell needs victims")
	}
	return nil
}

// Score is one campaign run's outcome: damage on the left, effort on the
// right.
type Score struct {
	Backend  string // which battlefield ran it
	Campaign string // scenario name

	// Damage.
	MSE            float64 // honest agents' estimate MSE vs true trust
	VictimMisclass float64 // fraction of (agent, target) estimates pushed to the attacker's side
	AgentsKilled   int     // honest agents the fault plan took down

	// Effort.
	IdentitiesMinted int64 // attacker identities created
	ReportsSent      int64 // attack reports fired
	ReportsAdmitted  int64 // attack reports the agents stored
}

// Backend runs campaigns against one battlefield.
type Backend interface {
	// Name labels the backend in score rows ("sim", "live").
	Name() string
	// Run executes one campaign and scores it.
	Run(spec Spec) (Score, error)
}

// ResistanceTable renders scores as the machine-readable resistance table
// (stats.Table renders text and CSV).
func ResistanceTable(scores []Score) *stats.Table {
	t := stats.NewTable("Campaign resistance (DESIGN.md §13)",
		"backend", "campaign", "MSE", "victim misclass", "killed",
		"identities", "sent", "admitted")
	for _, s := range scores {
		t.AddRow(s.Backend, s.Campaign, s.MSE, s.VictimMisclass,
			s.AgentsKilled, s.IdentitiesMinted, s.ReportsSent, s.ReportsAdmitted)
	}
	return t
}
