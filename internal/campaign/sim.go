package campaign

import (
	"fmt"

	"hirep/internal/attack"
	"hirep/internal/core"
	"hirep/internal/sim"
	"hirep/internal/topology"
	"hirep/internal/xrand"
)

// simTargetAgents bounds how many agents a campaign concentrates on — the
// paper's attackers go after the few high-value agents (§4.2.4), and a
// bounded target set keeps 100k-node runs scoreable.
const simTargetAgents = 8

// simScoreProviders bounds the provider sample the scorer sweeps.
const simScoreProviders = 256

// SimBackend runs campaigns inside the discrete-event simulator: honest
// traffic is the deterministic sim workload, attacker reports are injected
// straight into agent tallies (core.InjectReport). That is what makes
// 100k-node campaigns tractable: attacker floods cost map updates, not
// simulated onion traffic.
type SimBackend struct {
	// Params is the simulation configuration (sim.QuickParams()-style).
	Params sim.Params
}

// Name implements Backend.
func (b SimBackend) Name() string { return "sim" }

// Run implements Backend: warm-up honest traffic, the fault plan's mid-run
// agent kills, attacker waves interleaved with more honest traffic, then
// scoring over the targeted agents' estimates.
func (b SimBackend) Run(spec Spec) (Score, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return Score{}, err
	}
	p := b.Params
	if err := p.Validate(); err != nil {
		return Score{}, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = p.Seed
	}
	w, err := sim.NewWorld(p, topology.PowerLaw, p.AvgDegree, seed)
	if err != nil {
		return Score{}, err
	}
	cfg := p.Hirep
	spec.Scenario.Apply(&cfg)
	sys, err := core.NewSystem(w.Net, w.Oracle, cfg, xrand.New(seed))
	if err != nil {
		return Score{}, err
	}
	sys.Bootstrap()

	// Split the providers by ground truth: untrustworthy ones are what sybil
	// floods and collusion rings promote, trustworthy ones are slander bait.
	var good, bad []topology.NodeID
	for _, prov := range w.Providers {
		if w.Oracle.Trustworthy(int(prov)) {
			good = append(good, prov)
		} else {
			bad = append(bad, prov)
		}
	}
	targets, positive, err := campaignTargets(spec.Scenario, good, bad)
	if err != nil {
		return Score{}, err
	}

	// The campaign concentrates on a fixed slice of the agent population.
	agents := sys.AgentIDs()
	if len(agents) > simTargetAgents {
		agents = agents[:simTargetAgents]
	}

	score := Score{Backend: b.Name(), Campaign: spec.Scenario.Name}
	pop := spec.Scenario.Population
	identities := pop.Attackers * pop.IdentitiesPer
	score.IdentitiesMinted = int64(identities)

	// Honest warm-up: half the workload before any attacker shows up.
	work := w.Workload(p.Transactions, cfg.CandidatesPerTx)
	warm := len(work) / 2
	for _, spec := range work[:warm] {
		sys.RunTransaction(spec.Requestor, spec.Candidates)
	}
	if f := spec.Scenario.Faults.KillHonestFrac; f > 0 {
		score.AgentsKilled = len(sys.KillAgents(f))
	}

	// Attack waves, ramped: each wave mints its identity cohort and fires,
	// with a slice of honest traffic in between (the rest of the workload is
	// split evenly across waves).
	rest := work[warm:]
	n := w.Graph.N()
	for wave := 0; wave < spec.Waves; wave++ {
		lo, hi := identities*wave/spec.Waves, identities*(wave+1)/spec.Waves
		for i := lo; i < hi; i++ {
			// Synthetic reporter IDs above the node space: sybil identities
			// are minted, not drawn from the population.
			reporter := topology.NodeID(n + i)
			for _, agent := range agents {
				for r := 0; r < spec.ReportsPerIdentity; r++ {
					subject := targets[(i+r)%len(targets)]
					score.ReportsSent++
					if sys.InjectReport(agent, reporter, subject, positive) {
						score.ReportsAdmitted++
					}
				}
			}
		}
		tlo, thi := len(rest)*wave/spec.Waves, len(rest)*(wave+1)/spec.Waves
		for _, spec := range rest[tlo:thi] {
			sys.RunTransaction(spec.Requestor, spec.Candidates)
		}
	}

	// Score over the targeted agents: squared error of every available
	// report-based estimate against ground truth, and the fraction of target
	// estimates pushed to the attacker's side of 0.5.
	providers := w.Providers
	if len(providers) > simScoreProviders {
		providers = providers[:simScoreProviders]
	}
	var sq float64
	var nEst int
	for _, agent := range agents {
		if !sys.IsHonestAgent(agent) {
			continue
		}
		for _, prov := range providers {
			if v, ok := sys.ReportEstimateOf(agent, prov); ok {
				d := float64(v) - float64(w.Oracle.TrueValue(int(prov)))
				sq += d * d
				nEst++
			}
		}
	}
	if nEst > 0 {
		score.MSE = sq / float64(nEst)
	}
	var flipped, judged int
	for _, agent := range agents {
		if !sys.IsHonestAgent(agent) {
			continue
		}
		for _, subject := range targets {
			v, ok := sys.ReportEstimateOf(agent, subject)
			if !ok {
				continue
			}
			judged++
			if positive == (float64(v) > 0.5) {
				flipped++
			}
		}
	}
	if judged > 0 {
		score.VictimMisclass = float64(flipped) / float64(judged)
	}
	return score, nil
}

// campaignTargets picks the subjects a campaign fires at and the report
// polarity it fires with.
func campaignTargets(sc attack.Scenario, good, bad []topology.NodeID) ([]topology.NodeID, bool, error) {
	pop := sc.Population
	switch sc.Kind {
	case attack.KindSybilFlood:
		// Promote untrustworthy providers: one per attacker, round-robin.
		if len(bad) == 0 {
			return nil, false, fmt.Errorf("campaign: world has no untrustworthy providers to promote")
		}
		k := min(pop.Attackers, len(bad))
		return bad[:k], true, nil
	case attack.KindCollusionRing:
		// The ring is a tight cohort of untrustworthy providers
		// cross-supported by every member's identities.
		if len(bad) == 0 {
			return nil, false, fmt.Errorf("campaign: world has no untrustworthy providers for a ring")
		}
		k := min(pop.Attackers, len(bad))
		return bad[:k], true, nil
	case attack.KindSlanderCell:
		if len(good) == 0 {
			return nil, false, fmt.Errorf("campaign: world has no trustworthy victims")
		}
		k := min(pop.Victims, len(good))
		return good[:k], false, nil
	default:
		return nil, false, fmt.Errorf("campaign: unknown kind %q", sc.Kind)
	}
}
