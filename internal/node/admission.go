package node

import (
	"sync"
	"time"

	"hirep/internal/pkc"
)

// This file implements the agent's sybil-admission gate (DESIGN.md §13): a
// per-identity first-report proof-of-work check plus per-identity report-rate
// accounting, both applied in the batch-ingest path BEFORE any signature
// work. A batch from an unadmitted identity that carries no (or an invalid,
// or a spent) solution is bounced whole with StatusAdmissionRequired — the
// sender mints a solution bound to its nodeID and retries. Once admitted, an
// identity's batches cost the gate one map lookup; exceeding the configured
// report rate revokes the admission, so sustained flooding costs one solve
// per AdmissionBurst reports instead of one solve ever. The one-way TReport
// path (handleReport) takes reports only from an identity the gate already
// admitted, and charges its rate once the report is stored.

const (
	defaultAdmissionCap        = 4096 // admitted identities remembered
	defaultAdmissionSolveLimit = 24   // hardest difficulty a sender will solve
)

// admissionGate is the agent-side state. nil means the gate is disabled.
type admissionGate struct {
	mu       sync.Mutex
	bits     int     // required proof-of-work difficulty
	rate     float64 // sustained reports/sec per identity (0 = unlimited)
	burst    float64 // token-bucket burst per identity
	cap      int     // admitted identities remembered (FIFO eviction)
	admitted map[pkc.NodeID]*admittedIdentity
	order    []pkc.NodeID     // admission order, for eviction
	spent    *pkc.ReplayCache // solutions already used to admit
	now      func() time.Time
}

// admittedIdentity is one identity's rate-accounting state.
type admittedIdentity struct {
	tokens  float64   // remaining burst allowance
	last    time.Time // last refill
	reports int64     // reports accepted through the gate for this identity
}

func newAdmissionGate(bits int, rate float64, burst int) *admissionGate {
	if bits <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = 2 * defaultReportBatchSize
	}
	return &admissionGate{
		bits:     bits,
		rate:     rate,
		burst:    float64(burst),
		cap:      defaultAdmissionCap,
		admitted: make(map[pkc.NodeID]*admittedIdentity, defaultAdmissionCap),
		spent:    pkc.NewReplayCache(2 * defaultAdmissionCap),
		now:      time.Now,
	}
}

// admissionVerdict says what the gate decided about one batch.
type admissionVerdict uint8

const (
	admissionOK        admissionVerdict = iota // already admitted; batch may proceed
	admissionNewlyOK                           // valid solution: identity admitted now
	admissionNoProof                           // unadmitted identity, no/invalid solution
	admissionReplay                            // solution already spent
	admissionThrottled                         // rate accounting revoked the admission
)

// passed reports whether the verdict lets the batch through.
func (v admissionVerdict) passed() bool {
	return v == admissionOK || v == admissionNewlyOK
}

// check gates one batch of nreports from reporter, optionally carrying an
// admission solution. It runs before any signature verification: the only
// crypto it ever performs is one SHA-256 over a candidate solution.
func (g *admissionGate) check(reporter pkc.NodeID, sol []byte, nreports int) admissionVerdict {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	if a := g.admitted[reporter]; a != nil {
		if g.rate > 0 {
			a.tokens += now.Sub(a.last).Seconds() * g.rate
			if a.tokens > g.burst {
				a.tokens = g.burst
			}
			a.last = now
			if a.tokens < float64(nreports) {
				// Over the per-identity rate: revoke the admission, so the
				// flood must pay another proof of work to continue. The spent
				// cache keeps the old solution unusable.
				delete(g.admitted, reporter)
				return admissionThrottled
			}
			a.tokens -= float64(nreports)
		}
		a.reports += int64(nreports)
		return admissionOK
	}
	if len(sol) != pkc.AdmissionSolutionSize || !pkc.VerifyAdmission(reporter, g.bits, sol) {
		return admissionNoProof
	}
	var n pkc.Nonce
	copy(n[:], sol)
	if !g.spent.Observe(n) {
		return admissionReplay
	}
	a := &admittedIdentity{tokens: g.burst - float64(nreports), last: now, reports: int64(nreports)}
	g.admitted[reporter] = a
	g.order = append(g.order, reporter)
	for len(g.admitted) > g.cap && len(g.order) > 0 {
		victim := g.order[0]
		g.order = g.order[1:]
		delete(g.admitted, victim)
	}
	return admissionNewlyOK
}

// isAdmitted reports whether reporter holds an admission, without charging
// its rate bucket.
func (g *admissionGate) isAdmitted(reporter pkc.NodeID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admitted[reporter] != nil
}

// forget revokes reporter's admission, if any: the identity must present a
// fresh solution to report again.
func (g *admissionGate) forget(reporter pkc.NodeID) {
	g.mu.Lock()
	delete(g.admitted, reporter)
	g.mu.Unlock()
}

// admittedCount returns how many identities currently hold an admission.
func (g *admissionGate) admittedCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.admitted)
}

// reportsBy returns the gate's per-identity accepted-report count.
func (g *admissionGate) reportsBy(reporter pkc.NodeID) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a := g.admitted[reporter]; a != nil {
		return a.reports
	}
	return 0
}

// admittedIdentities returns the number of identities currently admitted by
// this agent's gate (0 when disabled).
func (n *Node) admittedIdentities() int {
	if n.admission == nil {
		return 0
	}
	return n.admission.admittedCount()
}

// --- sender side ----------------------------------------------------------

// mintAdmission solves the agent-demanded proof of work for this node's
// current identity, counting the spent hashes — the attacker-cost unit the
// campaign harness measures. Difficulties beyond the solve limit are refused
// (a malicious agent must not be able to burn a reporter's CPU at will).
func (n *Node) mintAdmission(bits int) []byte {
	if bits <= 0 || bits > defaultAdmissionSolveLimit {
		return nil
	}
	sol, attempts, err := pkc.MintAdmission(n.identity().ID, bits, nil)
	if err != nil {
		return nil
	}
	n.cnt.admissionSolved.Inc()
	n.cnt.admissionWork.Add(int64(attempts))
	return sol[:]
}

// allAdmissionRequired reports whether an ack bounced its entire (non-empty)
// batch for admission.
func allAdmissionRequired(statuses []ReportStatus) bool {
	for _, st := range statuses {
		if st != StatusAdmissionRequired {
			return false
		}
	}
	return len(statuses) > 0
}
