package node

import (
	"hirep/internal/metrics"
	"hirep/internal/wire"
)

// counters holds every counter and gauge the node keeps. Each is bound to
// one registry name in bind, once at Listen, so an event site touches one
// atomic and every value can be scraped by name through Metrics.
type counters struct {
	// Inbound transport: frames accepted per message type (index 0 unused),
	// frames of no known type, read and decode failures, and connections
	// refused at the session cap.
	frames          [wire.NumMsgTypes]*metrics.Counter
	framesUnknown   *metrics.Counter
	framesReadErr   *metrics.Counter
	framesDecodeErr *metrics.Counter
	sessionsShed    *metrics.Counter

	// Onion relay duty and the agent's served requests.
	onionsForwarded *metrics.Counter
	onionsExited    *metrics.Counter
	onionsRejected  *metrics.Counter
	trustServed     *metrics.Counter
	walksAnswered   *metrics.Counter

	// Retries, breaker transitions, failover, and the report outbox.
	retries         *metrics.Counter
	breakerOpen     *metrics.Counter
	breakerHalf     *metrics.Counter
	breakerClose    *metrics.Counter
	failovers       *metrics.Counter
	reportsDeferred *metrics.Counter
	reportsLost     *metrics.Counter
	outboxSent      *metrics.Counter
	outboxDepth     *metrics.Gauge

	// Batched report ingest (DESIGN.md §11). ingest counts each report's
	// outcome on the agent, indexed by ReportStatus; the acked and rejected
	// counters reconcile acks on the sender.
	reportBatches   *metrics.Counter
	ingest          [StatusAdmissionRequired]*metrics.Counter
	reportsAcked    *metrics.Counter
	reportsRejected *metrics.Counter

	// Replication (DESIGN.md §10).
	replBatches        *metrics.Counter
	replShipped        *metrics.Counter
	replApplied        *metrics.Counter
	replPulled         *metrics.Counter
	replHandoffDepth   *metrics.Gauge
	replHandoffDropped *metrics.Counter
	replShardsRepaired *metrics.Counter
	replAntiEntropy    *metrics.Counter
	replUnauthorized   *metrics.Counter

	// Sybil-admission gate (DESIGN.md §13): agent-side bounce/admit/replay/
	// throttle counts and sender-side proof-of-work cost.
	admissionRequired  *metrics.Counter
	admissionAdmitted  *metrics.Counter
	admissionReplayed  *metrics.Counter
	admissionThrottled *metrics.Counter
	admissionSolved    *metrics.Counter
	admissionWork      *metrics.Counter

	// Verifiable reads (DESIGN.md §14): proofs served and verified, caught
	// lies, and the proof payload cache.
	proofsServed     *metrics.Counter
	proofsVerified   *metrics.Counter
	proofsPartial    *metrics.Counter
	proofsLying      *metrics.Counter
	proofCacheHits   *metrics.Counter
	proofCacheMisses *metrics.Counter

	// Self-healing trust plane (DESIGN.md §15): auditor progress, advisory
	// gossip intake, book lifecycle actions, and slander suspects.
	auditSweeps          *metrics.Counter
	auditProbes          *metrics.Counter
	auditFailures        *metrics.Counter
	auditDiverged        *metrics.Counter
	advisoriesIssued     *metrics.Counter
	advisoriesAccepted   *metrics.Counter
	advisoriesRejected   *metrics.Counter
	advisoriesDuplicate  *metrics.Counter
	agentsQuarantined    *metrics.Counter
	agentsRehabilitated  *metrics.Counter
	agentsEvicted        *metrics.Counter
	slanderSuspects      *metrics.Gauge
	slanderSuspectsFound *metrics.Counter

	// Agent report-store health, mirrored from repstore by updateStoreHealth.
	storeWALBytes        *metrics.Gauge
	storeCompactFailures *metrics.Gauge
	storeCompactErr      *metrics.Gauge
}

func (c *counters) bind(r *metrics.Registry) {
	for t := 1; t < wire.NumMsgTypes; t++ {
		c.frames[t] = r.Counter("node_frames_in_" + wire.MsgType(t).String() + "_total")
	}
	c.framesUnknown = r.Counter("node_frames_in_unknown_total")
	c.framesReadErr = r.Counter("node_frames_read_err_total")
	c.framesDecodeErr = r.Counter("node_frames_decode_err_total")
	c.sessionsShed = r.Counter("node_sessions_shed_total")
	c.onionsForwarded = r.Counter("node_onions_forwarded_total")
	c.onionsExited = r.Counter("node_onions_exited_total")
	c.onionsRejected = r.Counter("node_onions_rejected_total")
	c.trustServed = r.Counter("node_trust_served_total")
	c.walksAnswered = r.Counter("node_walks_answered_total")
	c.retries = r.Counter("node_retries_total")
	c.breakerOpen = r.Counter("node_breaker_open_total")
	c.breakerHalf = r.Counter("node_breaker_halfopen_total")
	c.breakerClose = r.Counter("node_breaker_close_total")
	c.failovers = r.Counter("node_failover_total")
	c.reportsDeferred = r.Counter("node_reports_deferred_total")
	c.reportsLost = r.Counter("node_reports_lost_total")
	c.outboxSent = r.Counter("node_outbox_sent_total")
	c.outboxDepth = r.Gauge("node_outbox_depth")
	c.reportBatches = r.Counter("node_report_batches_total")
	c.ingest = [...]*metrics.Counter{
		StatusStored:      r.Counter("node_reports_stored_total"),
		StatusReplay:      r.Counter("node_ingest_rejected_replay_total"),
		StatusBadKey:      r.Counter("node_ingest_rejected_key_total"),
		StatusMalformed:   r.Counter("node_ingest_rejected_malformed_total"),
		StatusStoreFailed: r.Counter("node_ingest_store_failed_total"),
		StatusSaturated:   r.Counter("node_ingest_shed_total"),
	}
	c.reportsAcked = r.Counter("node_reports_acked_total")
	c.reportsRejected = r.Counter("node_reports_rejected_total")
	c.replBatches = r.Counter("node_repl_batches_total")
	c.replShipped = r.Counter("node_repl_shipped_total")
	c.replApplied = r.Counter("node_repl_applied_total")
	c.replPulled = r.Counter("node_repl_pulled_total")
	c.replHandoffDepth = r.Gauge("node_repl_handoff_depth")
	c.replHandoffDropped = r.Counter("node_repl_handoff_dropped_total")
	c.replShardsRepaired = r.Counter("node_repl_shards_repaired_total")
	c.replAntiEntropy = r.Counter("node_repl_antientropy_total")
	c.replUnauthorized = r.Counter("node_repl_unauthorized_total")
	c.admissionRequired = r.Counter("node_admission_required_total")
	c.admissionAdmitted = r.Counter("node_admission_admitted_total")
	c.admissionReplayed = r.Counter("node_admission_replayed_total")
	c.admissionThrottled = r.Counter("node_admission_throttled_total")
	c.admissionSolved = r.Counter("node_admission_solved_total")
	c.admissionWork = r.Counter("node_admission_work_total")
	c.proofsServed = r.Counter("node_proofs_served_total")
	c.proofsVerified = r.Counter("node_proofs_verified_total")
	c.proofsPartial = r.Counter("node_proofs_partial_total")
	c.proofsLying = r.Counter("node_proofs_lying_total")
	c.proofCacheHits = r.Counter("node_proof_cache_hits_total")
	c.proofCacheMisses = r.Counter("node_proof_cache_misses_total")
	c.auditSweeps = r.Counter("node_audit_sweeps_total")
	c.auditProbes = r.Counter("node_audit_probes_total")
	c.auditFailures = r.Counter("node_audit_failures_total")
	c.auditDiverged = r.Counter("node_audit_diverged_total")
	c.advisoriesIssued = r.Counter("node_advisories_issued_total")
	c.advisoriesAccepted = r.Counter("node_advisories_accepted_total")
	c.advisoriesRejected = r.Counter("node_advisories_rejected_total")
	c.advisoriesDuplicate = r.Counter("node_advisories_duplicate_total")
	c.agentsQuarantined = r.Counter("node_agents_quarantined_total")
	c.agentsRehabilitated = r.Counter("node_agents_rehabilitated_total")
	c.agentsEvicted = r.Counter("node_agents_evicted_total")
	c.slanderSuspects = r.Gauge("node_slander_suspects_total")
	c.slanderSuspectsFound = r.Counter("node_slander_suspects_found_total")
	c.storeWALBytes = r.Gauge("node_store_wal_bytes")
	c.storeCompactFailures = r.Gauge("node_store_compact_failures")
	c.storeCompactErr = r.Gauge("node_store_compact_err")
}

// Stats is a read-only view of the counters read outside this package: the
// live benchmark's per-layer figures and the campaign harness's scores.
// Every other counter is read by its name in Metrics.
type Stats struct {
	FramesIn           int64 // inbound frames accepted, every message type
	OnionsForwarded    int64 // relay duty: peeled and passed on
	OnionsExited       int64 // onion payloads consumed at this node
	TrustServed        int64 // trust requests answered as an agent
	ReportsStored      int64 // reports accepted into the agent store
	IngestShed         int64 // reports shed by admission control (retryable)
	ReportsDeferred    int64 // reports queued in the outbox instead of sent
	ReportsLost        int64 // reports dropped (outbox eviction or corruption)
	ProofCacheHits     int64 // proof payloads served straight from cache
	ProofCacheMisses   int64 // proof requests that had to assemble
	AuditSweeps        int64 // audit sweeps completed
	AdvisoriesAccepted int64 // received advisories that passed full re-verification
	AdmissionWork      int64 // hash attempts spent minting admission proofs
}

// Stats loads the view from this node's own counters.
func (n *Node) Stats() Stats {
	c := &n.cnt
	framesIn := c.framesUnknown.Load()
	for _, f := range c.frames[1:] {
		framesIn += f.Load()
	}
	return Stats{
		FramesIn:           framesIn,
		OnionsForwarded:    c.onionsForwarded.Load(),
		OnionsExited:       c.onionsExited.Load(),
		TrustServed:        c.trustServed.Load(),
		ReportsStored:      c.ingest[StatusStored].Load(),
		IngestShed:         c.ingest[StatusSaturated].Load(),
		ReportsDeferred:    c.reportsDeferred.Load(),
		ReportsLost:        c.reportsLost.Load(),
		ProofCacheHits:     c.proofCacheHits.Load(),
		ProofCacheMisses:   c.proofCacheMisses.Load(),
		AuditSweeps:        c.auditSweeps.Load(),
		AdvisoriesAccepted: c.advisoriesAccepted.Load(),
		AdmissionWork:      c.admissionWork.Load(),
	}
}

// Metrics returns the node's private registry, with the store-health gauges
// refreshed.
func (n *Node) Metrics() *metrics.Registry {
	n.updateStoreHealth()
	return n.reg
}

// updateStoreHealth refreshes the gauges mirroring the agent store's health:
// WAL size, compaction failure count, and whether a compaction error is
// sticking. Refreshed on the flusher cadence and from Metrics. A no-op for
// non-agents.
func (n *Node) updateStoreHealth() {
	if n.agent == nil {
		return
	}
	st := n.agent.Store()
	n.cnt.storeWALBytes.Set(st.WALSize())
	n.cnt.storeCompactFailures.Set(st.CompactFailures())
	if st.CompactErr() != nil {
		n.cnt.storeCompactErr.Set(1)
	} else {
		n.cnt.storeCompactErr.Set(0)
	}
}

// countFrame counts one accepted inbound frame, per message type.
func (n *Node) countFrame(typ wire.MsgType) {
	if int(typ) < len(n.cnt.frames) && n.cnt.frames[typ] != nil {
		n.cnt.frames[typ].Inc()
	} else {
		n.cnt.framesUnknown.Inc()
	}
}
