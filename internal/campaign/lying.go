package campaign

import (
	"fmt"
	"time"

	"hirep/internal/node"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/stats"
)

// LyingAgentSpec parameterizes the lying-agent campaign (DESIGN.md §15): a
// live fleet with one agent that signs inflated tallies, watched by a peer
// running the background auditor. The campaign measures how fast the
// self-healing trust plane detects, quarantines, and evicts the liar as a
// function of the audit rate — and whether trust queries keep answering while
// it happens.
type LyingAgentSpec struct {
	// AuditInterval is the background sweep cadence (default 150ms). Sweeping
	// it yields the time-to-detection vs audit-rate curve of EXPERIMENTS.md.
	AuditInterval time.Duration
	// Subjects is the audited subject population (default 4).
	Subjects int
	// Reports is the honest evidence seeded per subject (default 6).
	Reports int
	// Timeout bounds the detection wait (default 20s). A run that has not
	// evicted the liar by then scores Detected accordingly and stops.
	Timeout time.Duration
	// Seed roots the fault dialer's randomness (0 = 1).
	Seed int64
}

func (s LyingAgentSpec) withDefaults() LyingAgentSpec {
	if s.AuditInterval <= 0 {
		s.AuditInterval = 150 * time.Millisecond
	}
	if s.Subjects <= 0 {
		s.Subjects = 4
	}
	if s.Reports <= 0 {
		s.Reports = 6
	}
	if s.Timeout <= 0 {
		s.Timeout = 20 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// LyingAgentScore is one lying-agent run's outcome: detection latency on the
// left, service continuity on the right.
type LyingAgentScore struct {
	AuditInterval time.Duration

	// Detection.
	Detected         bool          // the liar was evicted within the timeout
	TimeToQuarantine time.Duration // tamper start -> quarantine (0 if never)
	TimeToEvict      time.Duration // tamper start -> eviction (0 if never)
	Sweeps           int64         // audit sweeps the auditor ran
	Advisories       int64         // advisories independently verified by the observing peer

	// Service continuity while the attack ran.
	QueriesServed int64 // trust evaluations that met quorum
	QueryFailures int64 // evaluations that did not
}

// RunLyingAgent runs one lying-agent campaign on a live loopback fleet:
// three evidence-retaining agents (two active, one standby), a peer running
// the background auditor, and an observing peer that learns of the liar only
// through advisory gossip.
func RunLyingAgent(spec LyingAgentSpec) (LyingAgentScore, error) {
	spec = spec.withDefaults()
	opts := node.ChaosOptions(nil)
	opts.AuditInterval = spec.AuditInterval
	fl, err := node.StartFleet(node.FleetConfig{
		Agents: 3, Relays: 2, Peers: 2, Opts: opts,
		AgentOpts: func(_ int, o *node.Options) { o.EvidenceCap = 64 },
	})
	if err != nil {
		return LyingAgentScore{}, err
	}
	defer func() { _ = fl.Close() }()

	auditor, observer := fl.Peers[0], fl.Peers[1]
	auditor.SetNeighbors([]string{observer.Addr()})
	observer.SetNeighbors([]string{auditor.Addr()})
	infos, err := fl.AgentInfos()
	if err != nil {
		return LyingAgentScore{}, err
	}
	auditorBook, err := fl.Book(infos, 2, 1)
	if err != nil {
		return LyingAgentScore{}, err
	}
	observerBook, err := fl.Book(infos, 2, 1)
	if err != nil {
		return LyingAgentScore{}, err
	}
	observer.AttachBook(observerBook)

	// Honest phase: seed evidence about the subject population at every
	// agent, so audited bundles carry real report history.
	subjects := make([]pkc.NodeID, spec.Subjects)
	batch := make([]node.BatchReport, 0, spec.Subjects*spec.Reports)
	for i := range subjects {
		id, err := pkc.NewIdentity(nil)
		if err != nil {
			return LyingAgentScore{}, err
		}
		subjects[i] = id.ID
		for r := 0; r < spec.Reports; r++ {
			batch = append(batch, node.BatchReport{Subject: id.ID, Positive: true})
		}
	}
	reply, err := fl.ReplyOnion(auditor)
	if err != nil {
		return LyingAgentScore{}, err
	}
	for _, info := range infos {
		if _, err := auditor.ReportBatch(info, batch, reply); err != nil {
			return LyingAgentScore{}, fmt.Errorf("campaign: honest phase: %w", err)
		}
	}

	// The attack starts: agent 0 signs bundles inflating its tallies. The
	// auditor's background loop has to find it.
	liar := fl.Agents[0]
	liar.SetProofTamper(func(b *proof.Bundle) { b.Pos += 2 })
	start := time.Now()
	if err := auditor.StartAuditor(auditorBook, reply); err != nil {
		return LyingAgentScore{}, err
	}
	auditor.NoteAuditSubjects(subjects...)

	score := LyingAgentScore{AuditInterval: spec.AuditInterval}
	deadline := time.Now().Add(spec.Timeout)
	for time.Now().Before(deadline) {
		h := auditorBook.Health(liar.ID())
		if h == node.Quarantined && score.TimeToQuarantine == 0 {
			score.TimeToQuarantine = time.Since(start)
		}
		if h == node.Evicted {
			if score.TimeToQuarantine == 0 {
				score.TimeToQuarantine = time.Since(start)
			}
			score.TimeToEvict = time.Since(start)
			score.Detected = true
			break
		}
		// Service continuity: the trust plane must keep answering while the
		// auditor works.
		if _, _, err := auditor.EvaluateSubject(auditorBook, subjects[0], reply); err != nil {
			score.QueryFailures++
		} else {
			score.QueriesServed++
		}
		time.Sleep(10 * time.Millisecond)
	}
	score.Sweeps = auditor.Stats().AuditSweeps
	score.Advisories = observer.Stats().AdvisoriesAccepted
	return score, nil
}

// LyingAgentTable renders lying-agent scores as the time-to-detection vs
// audit-rate table of EXPERIMENTS.md.
func LyingAgentTable(scores []LyingAgentScore) *stats.Table {
	t := stats.NewTable("Lying-agent detection (DESIGN.md §15)",
		"audit interval", "detected", "quarantine", "evict", "sweeps",
		"advisories", "queries ok", "queries failed")
	for _, s := range scores {
		t.AddRow(s.AuditInterval, s.Detected, s.TimeToQuarantine.Round(time.Millisecond),
			s.TimeToEvict.Round(time.Millisecond), s.Sweeps, s.Advisories,
			s.QueriesServed, s.QueryFailures)
	}
	return t
}
