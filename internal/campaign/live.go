package campaign

import (
	"fmt"
	"math"

	"hirep/internal/attack"
	"hirep/internal/node"
	"hirep/internal/pkc"
	"hirep/internal/resilience"
)

// LiveBackend runs campaigns against a real internal/node fleet on loopback
// TCP, started through the shared fleet harness (node.StartFleet) the chaos
// tests use. Nothing is modeled here: the attacker is a node that rotates to
// a fresh identity per sybil, its reports go through the agents' real batched
// ingest, and the fault plan black-holes agents through the fleet's fault
// dialer.
type LiveBackend struct {
	// Agents is the fleet's agent count (default 2).
	Agents int
	// GoodSubjects / BadSubjects size the provider population the honest peer
	// reports truthfully about (defaults 4 / 2).
	GoodSubjects, BadSubjects int
	// HonestReports is the honest evidence per subject per agent (default 8).
	HonestReports int
}

// Name implements Backend.
func (b LiveBackend) Name() string { return "live" }

// Run implements Backend.
func (b LiveBackend) Run(spec Spec) (Score, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return Score{}, err
	}
	nAgents := b.Agents
	if nAgents <= 0 {
		nAgents = 2
	}
	nGood, nBad := b.GoodSubjects, b.BadSubjects
	if nGood <= 0 {
		nGood = 4
	}
	if nBad <= 0 {
		nBad = 2
	}
	honestPer := b.HonestReports
	if honestPer <= 0 {
		honestPer = 8
	}
	fd := resilience.NewFaultDialer(nil)
	fl, err := node.StartFleet(node.FleetConfig{Agents: nAgents, Relays: 1, Peers: 2, Faults: fd})
	if err != nil {
		return Score{}, err
	}
	defer func() { _ = fl.Close() }()

	honest, attacker := fl.Peers[0], fl.Peers[1]
	infos, err := fl.AgentInfos()
	if err != nil {
		return Score{}, err
	}
	honestReply, err := fl.ReplyOnion(honest)
	if err != nil {
		return Score{}, err
	}

	// The provider population: subjects with assigned ground truth.
	truth := map[pkc.NodeID]bool{}
	var good, bad []pkc.NodeID
	for i := 0; i < nGood+nBad; i++ {
		id, err := pkc.NewIdentity(nil)
		if err != nil {
			return Score{}, err
		}
		if i < nGood {
			good = append(good, id.ID)
			truth[id.ID] = true
		} else {
			bad = append(bad, id.ID)
			truth[id.ID] = false
		}
	}

	// Honest phase: truthful evidence about every subject at every agent.
	var honestBatch []node.BatchReport
	for id, tr := range truth {
		for r := 0; r < honestPer; r++ {
			honestBatch = append(honestBatch, node.BatchReport{Subject: id, Positive: tr})
		}
	}
	for _, info := range infos {
		if _, err := honest.ReportBatch(info, honestBatch, honestReply); err != nil {
			return Score{}, fmt.Errorf("campaign: honest phase at agent: %w", err)
		}
	}

	// Targets and polarity, mirroring the sim backend's selection.
	targets, positive, err := liveTargets(spec.Scenario, good, bad)
	if err != nil {
		return Score{}, err
	}

	// Fault plan: black-hole the leading agents mid-run. Their stores freeze;
	// they are excluded from scoring, like a down agent in the sim. A fleet
	// is a handful of agents, so the share rounds up (0.3 of 2 kills one),
	// always leaving one agent to score.
	killed := 0
	if f := spec.Scenario.Faults.KillHonestFrac; f > 0 {
		killed = min(int(math.Ceil(f*float64(nAgents))), nAgents-1)
		for i := 0; i < killed; i++ {
			if err := fl.BlackHole(fl.Agents[i]); err != nil {
				return Score{}, err
			}
		}
	}
	liveAgents := fl.Agents[killed:]
	liveInfos := infos[killed:]

	score := Score{Backend: b.Name(), Campaign: spec.Scenario.Name, AgentsKilled: killed}
	pop := spec.Scenario.Population
	identities := pop.Attackers * pop.IdentitiesPer

	// Attack waves: each identity is a real key rotation on the attacker
	// node, so every wave reaches the agents as identities they never saw.
	for wave := 0; wave < spec.Waves; wave++ {
		lo, hi := identities*wave/spec.Waves, identities*(wave+1)/spec.Waves
		for i := lo; i < hi; i++ {
			if i > 0 {
				if _, _, err := attacker.RotateIdentity(nil); err != nil {
					return Score{}, fmt.Errorf("campaign: identity %d rotation: %w", i, err)
				}
			}
			score.IdentitiesMinted++
			// Each sybil identity builds its own reply route: stale onions
			// sealed to rotated-away keys fall outside the grace window.
			attackerReply, err := fl.ReplyOnion(attacker)
			if err != nil {
				return Score{}, fmt.Errorf("campaign: identity %d reply onion: %w", i, err)
			}
			reports := make([]node.BatchReport, spec.ReportsPerIdentity)
			for r := range reports {
				reports[r] = node.BatchReport{Subject: targets[(i+r)%len(targets)], Positive: positive}
			}
			for _, info := range liveInfos {
				score.ReportsSent += int64(len(reports))
				statuses, err := attacker.ReportBatch(info, reports, attackerReply)
				if err != nil {
					return Score{}, fmt.Errorf("campaign: attack batch: %w", err)
				}
				for _, st := range statuses {
					if st == node.StatusStored {
						score.ReportsAdmitted++
					}
				}
			}
		}
	}

	// Score over the surviving agents' served tallies.
	var sq float64
	var nEst int
	var flipped, judged int
	for _, a := range liveAgents {
		for id, tr := range truth {
			v, ok := a.Agent().TrustValue(id)
			if !ok {
				continue
			}
			want := 0.0
			if tr {
				want = 1.0
			}
			d := float64(v) - want
			sq += d * d
			nEst++
		}
		for _, id := range targets {
			v, ok := a.Agent().TrustValue(id)
			if !ok {
				continue
			}
			judged++
			if positive == (float64(v) > 0.5) {
				flipped++
			}
		}
	}
	if nEst > 0 {
		score.MSE = sq / float64(nEst)
	}
	if judged > 0 {
		score.VictimMisclass = float64(flipped) / float64(judged)
	}
	return score, nil
}

// liveTargets mirrors campaignTargets over the live provider population.
func liveTargets(sc attack.Scenario, good, bad []pkc.NodeID) ([]pkc.NodeID, bool, error) {
	pop := sc.Population
	switch sc.Kind {
	case attack.KindSybilFlood, attack.KindCollusionRing:
		if len(bad) == 0 {
			return nil, false, fmt.Errorf("campaign: no untrustworthy subjects to promote")
		}
		return bad[:min(pop.Attackers, len(bad))], true, nil
	case attack.KindSlanderCell:
		if len(good) == 0 {
			return nil, false, fmt.Errorf("campaign: no trustworthy victims")
		}
		return good[:min(pop.Victims, len(good))], false, nil
	default:
		return nil, false, fmt.Errorf("campaign: unknown kind %q", sc.Kind)
	}
}
