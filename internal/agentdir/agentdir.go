// Package agentdir implements the reputation-agent side of hiREP (§3.5).
//
// A trusted reputation agent keeps a public-key list
// {nodeID_1, SP_1; ...; nodeID_n, SP_n} of the peers that chose it, accepts
// signed transaction reports, and computes trust values for subjects from the
// reports it has accumulated. The paper leaves the agent's computation model
// open ("a reputation agent computes the trust value of each node using its
// own trust value computation model"); this implementation uses the
// Laplace-smoothed positive-report fraction, the standard Beta-prior
// estimator used by EigenTrust-era systems.
package agentdir

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"

	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/trust"
)

// Errors returned by the agent.
var (
	ErrUnknownReporter = errors.New("agentdir: reporter's key not in public key list")
	ErrBadSignature    = errors.New("agentdir: report signature invalid")
	ErrBadBinding      = errors.New("agentdir: public key does not hash to node id")
	ErrReplayedReport  = errors.New("agentdir: report nonce replayed")
	ErrBadReport       = errors.New("agentdir: malformed report")
)

// Report is one transaction result: reporter observed subject behave
// positively or negatively.
type Report struct {
	Reporter pkc.NodeID
	Subject  pkc.NodeID
	Positive bool
	Nonce    pkc.Nonce
}

// reportBody is the byte string a reporter signs: subject || positive || nonce.
func reportBody(subject pkc.NodeID, positive bool, nonce pkc.Nonce) []byte {
	out := make([]byte, 0, pkc.NodeIDSize+1+pkc.NonceSize)
	out = append(out, subject[:]...)
	if positive {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return append(out, nonce[:]...)
}

// SignReport produces the signed wire form of a report, the
// "(SR_p(result, nounce), nodeID_p)" of §3.5.3: body || signature.
func SignReport(reporter *pkc.Identity, subject pkc.NodeID, positive bool, nonce pkc.Nonce) []byte {
	body := reportBody(subject, positive, nonce)
	sig := reporter.SignMessage(body)
	out := make([]byte, 0, len(body)+len(sig))
	out = append(out, body...)
	return append(out, sig...)
}

// parseReportWire splits a signed report into body fields and signature.
func parseReportWire(b []byte) (subject pkc.NodeID, positive bool, nonce pkc.Nonce, body, sig []byte, err error) {
	bodyLen := pkc.NodeIDSize + 1 + pkc.NonceSize
	if len(b) != bodyLen+ed25519.SignatureSize {
		err = ErrBadReport
		return
	}
	copy(subject[:], b)
	switch b[pkc.NodeIDSize] {
	case 0:
		positive = false
	case 1:
		positive = true
	default:
		err = ErrBadReport
		return
	}
	copy(nonce[:], b[pkc.NodeIDSize+1:])
	return subject, positive, nonce, b[:bodyLen], b[bodyLen:], nil
}

// ParseReportWire splits a signed report wire into its fields without
// verifying anything — the parsing half of the proof-bundle verifier
// (internal/proof), which re-checks retained evidence signatures itself.
// body and sig alias wire.
func ParseReportWire(wire []byte) (subject pkc.NodeID, positive bool, nonce pkc.Nonce, body, sig []byte, err error) {
	return parseReportWire(wire)
}

// Agent is a trusted reputation agent. Safe for concurrent use (the live
// node serves many peers at once). Report/tally state lives in a
// repstore.Store — sharded in memory for the simulator, WAL-backed on disk
// for the live node — while the public key list and replay cache stay here.
type Agent struct {
	mu      sync.RWMutex
	self    *pkc.Identity
	keys    map[pkc.NodeID]ed25519.PublicKey
	store   *repstore.Store
	replays *pkc.ReplayCache

	// sources are replica stores attached by the node's replication layer:
	// state this agent holds on behalf of other (primary) agents. Served
	// tallies combine the agent's own store with every source, so a promoted
	// standby answers with the dead primary's history (DESIGN.md §10).
	srcMu   sync.RWMutex
	sources map[string]*repstore.Store

	// byReporter counts accepted reports per reporter — the evidence base for
	// the node's per-identity admission rate accounting and the campaign
	// harness's attacker-cost scoring (DESIGN.md §13). byReporterNeg tracks
	// the negative subset, so the audit plane can spot slander campaigns
	// (reporters whose output is overwhelmingly negative, DESIGN.md §15).
	// Its own lock: the hot ingest path must not serialize on the key-list
	// mutex.
	repMu         sync.Mutex
	byReporter    map[pkc.NodeID]int64
	byReporterNeg map[pkc.NodeID]int64
}

// New creates an agent with identity self backed by a pure in-memory store.
// replayCap bounds the nonce replay cache (0 picks a default of 4096).
func New(self *pkc.Identity, replayCap int) *Agent {
	st, _ := repstore.Open("", repstore.Options{}) // in-memory open cannot fail
	return NewWithStore(self, replayCap, st)
}

// NewWithStore creates an agent delegating report state to store — the
// durable path for live nodes. Nonces recovered from the store's WAL tail
// re-seed the replay cache, so a restart does not reopen the replay window
// for the most recent reports.
func NewWithStore(self *pkc.Identity, replayCap int, store *repstore.Store) *Agent {
	if replayCap <= 0 {
		replayCap = 4096
	}
	a := &Agent{
		self:          self,
		keys:          make(map[pkc.NodeID]ed25519.PublicKey),
		store:         store,
		replays:       pkc.NewReplayCache(replayCap),
		byReporter:    make(map[pkc.NodeID]int64),
		byReporterNeg: make(map[pkc.NodeID]int64),
	}
	for _, n := range store.RecoveredNonces() {
		a.replays.Observe(n)
	}
	return a
}

// Store exposes the agent's backing report store.
func (a *Agent) Store() *repstore.Store { return a.store }

// Close flushes and releases the backing store (a no-op for the in-memory
// backend).
func (a *Agent) Close() error { return a.store.Close() }

// ID returns the agent's node ID.
func (a *Agent) ID() pkc.NodeID { return a.self.ID }

// RegisterKey adds a peer's signature public key to the public key list
// (§3.5.2: done when a trust request arrives from an unknown nodeID). The
// binding nodeID = SHA-1(SP) is verified; a mismatch is a spoofing attempt.
func (a *Agent) RegisterKey(id pkc.NodeID, sp ed25519.PublicKey) error {
	if !pkc.VerifyBinding(id, sp) {
		return ErrBadBinding
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.keys[id] = sp
	return nil
}

// KnowsKey reports whether id is in the public key list.
func (a *Agent) KnowsKey(id pkc.NodeID) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	_, ok := a.keys[id]
	return ok
}

// KeyCount returns the size of the public key list.
func (a *Agent) KeyCount() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.keys)
}

// SubmitReport verifies and stores a signed report from reporter (§3.5.3).
// The reporter's key must already be registered ("E then locates SP_p in its
// public key list using nodeID_p"); the signature must verify ("if the result
// cannot be decrypted, the message will be dropped"); the nonce must be
// fresh.
func (a *Agent) SubmitReport(reporter pkc.NodeID, wire []byte) (Report, error) {
	subject, positive, nonce, body, sig, err := parseReportWire(wire)
	if err != nil {
		return Report{}, err
	}
	a.mu.RLock()
	sp, ok := a.keys[reporter]
	a.mu.RUnlock()
	if !ok {
		return Report{}, ErrUnknownReporter
	}
	// Signature verification and the store append both run outside the key
	// lock: the hot ingest path scales across shards instead of serializing
	// on one agent mutex.
	if !pkc.Verify(sp, body, sig) {
		return Report{}, ErrBadSignature
	}
	if !a.replays.Observe(nonce) {
		return Report{}, ErrReplayedReport
	}
	// SP and Wire ride along as evidence; the store retains them only when
	// its evidence log is armed (repstore.Options.EvidenceCap).
	rec := repstore.Record{Reporter: reporter, Subject: subject, Positive: positive, Nonce: nonce, SP: sp, Wire: wire}
	if err := a.store.Append(rec); err != nil {
		// The report was rejected, not stored: release its nonce so a
		// legitimate retry of the same signed report is not misclassified as
		// a replay once the store recovers.
		a.replays.Forget(nonce)
		return Report{}, err
	}
	var neg int64
	if !positive {
		neg = 1
	}
	a.countAccepted(reporter, 1, neg)
	return Report{Reporter: reporter, Subject: subject, Positive: positive, Nonce: nonce}, nil
}

// countAccepted bumps the reporter's accepted-report tally: n reports total,
// neg of which were negative.
func (a *Agent) countAccepted(reporter pkc.NodeID, n, neg int64) {
	a.repMu.Lock()
	a.byReporter[reporter] += n
	if neg > 0 {
		a.byReporterNeg[reporter] += neg
	}
	a.repMu.Unlock()
}

// ReportsBy returns how many reports from reporter this agent has accepted
// (verified, fresh, and durably stored) since it started.
func (a *Agent) ReportsBy(reporter pkc.NodeID) int64 {
	a.repMu.Lock()
	defer a.repMu.Unlock()
	return a.byReporter[reporter]
}

// ReporterStat is one reporter's accepted-report tally as seen by this agent:
// total accepted reports and the negative subset. The audit plane folds these
// into its slander-skew table (DESIGN.md §15).
type ReporterStat struct {
	Reporter pkc.NodeID
	Reports  int64 // accepted reports, any polarity
	Negative int64 // accepted negative reports
}

// Reporters iterates over per-reporter accepted-report stats, SubjectStat
// style: fn is called once per reporter until it returns false. The snapshot
// is taken under the tally lock, but fn runs outside it, so callbacks may
// re-enter the agent freely. Iteration order is unspecified.
func (a *Agent) Reporters(fn func(ReporterStat) bool) {
	a.repMu.Lock()
	stats := make([]ReporterStat, 0, len(a.byReporter))
	for id, n := range a.byReporter {
		stats = append(stats, ReporterStat{Reporter: id, Reports: n, Negative: a.byReporterNeg[id]})
	}
	a.repMu.Unlock()
	for _, s := range stats {
		if !fn(s) {
			return
		}
	}
}

// SubmitReportBatch verifies and stores a batch of signed reports, all from
// the same reporter, amortizing key lookup and signature dispatch across the
// batch (DESIGN.md §11). It returns one outcome per input wire, index-aligned:
// errs[i] == nil means wires[i] was verified and durably appended and
// reports[i] holds its decoded form; otherwise errs[i] is the same typed
// error SubmitReport would have returned for that wire. Outcomes are
// independent — a forged, replayed, or malformed report rejects alone and
// never blocks a valid neighbor from committing.
//
// Signatures are checked with pkc.VerifyBatch; nonces are observed in batch
// order, so a nonce duplicated within one batch stores its first occurrence
// and rejects the rest as replays, exactly as if they had arrived singly.
func (a *Agent) SubmitReportBatch(reporter pkc.NodeID, wires [][]byte) ([]Report, []error) {
	reports := make([]Report, len(wires))
	errs := make([]error, len(wires))
	a.mu.RLock()
	sp, known := a.keys[reporter]
	a.mu.RUnlock()
	// Parse pass: split every wire, filling in per-report parse failures and
	// collecting the verifiable triples for the batch signature check.
	type parsed struct {
		idx      int
		subject  pkc.NodeID
		positive bool
		nonce    pkc.Nonce
	}
	var (
		valid  []parsed
		bodies [][]byte
		sigs   [][]byte
		keys   []ed25519.PublicKey
	)
	for i, w := range wires {
		subject, positive, nonce, body, sig, err := parseReportWire(w)
		if err != nil {
			errs[i] = err
			continue
		}
		if !known {
			errs[i] = ErrUnknownReporter
			continue
		}
		valid = append(valid, parsed{idx: i, subject: subject, positive: positive, nonce: nonce})
		bodies = append(bodies, body)
		sigs = append(sigs, sig)
		keys = append(keys, sp)
	}
	ok := pkc.VerifyBatch(keys, bodies, sigs)
	// Admission pass, in batch order: replay check, then store append. Both
	// run outside the key lock, like the single-report path.
	var accepted, negAccepted int64
	for j, p := range valid {
		if !ok[j] {
			errs[p.idx] = ErrBadSignature
			continue
		}
		if !a.replays.Observe(p.nonce) {
			errs[p.idx] = ErrReplayedReport
			continue
		}
		rec := repstore.Record{Reporter: reporter, Subject: p.subject, Positive: p.positive, Nonce: p.nonce, SP: sp, Wire: wires[p.idx]}
		if err := a.store.Append(rec); err != nil {
			// Rejected, not stored: release the nonce so a retry of the same
			// signed report is not misclassified as a replay (see SubmitReport).
			a.replays.Forget(p.nonce)
			errs[p.idx] = err
			continue
		}
		reports[p.idx] = Report{Reporter: reporter, Subject: p.subject, Positive: p.positive, Nonce: p.nonce}
		accepted++
		if !p.positive {
			negAccepted++
		}
	}
	if accepted > 0 {
		a.countAccepted(reporter, accepted, negAccepted)
	}
	return reports, errs
}

// ApplyKeyUpdate processes a §3.5 key rotation: after verifying the update
// against the predecessor's registered key, the public-key list entry and
// any report tallies about the old nodeID move to the new nodeID ("map and
// replace an old nodeid to a new nodeid").
func (a *Agent) ApplyKeyUpdate(wire []byte) (pkc.KeyUpdate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	oldID, err := pkc.PeekKeyUpdateOldID(wire)
	if err != nil {
		return pkc.KeyUpdate{}, err
	}
	oldSP, ok := a.keys[oldID]
	if !ok {
		return pkc.KeyUpdate{}, ErrUnknownReporter
	}
	upd, err := pkc.VerifyKeyUpdate(oldSP, wire)
	if err != nil {
		return pkc.KeyUpdate{}, err
	}
	// Tallies about the old nodeID migrate in the store first (durably, when
	// the store is WAL-backed): Merge can fail on WAL I/O, the key-map swap
	// below cannot, so a failure leaves both keys and tallies untouched —
	// the caller can tell nothing applied. The verified update wire and the
	// old key ride along as the lineage certificate, so a proof bundle
	// spanning this rotation can prove the old→new link to any verifier.
	if err := a.store.MergeCertified(upd.OldID, upd.NewID, oldSP, wire); err != nil {
		return pkc.KeyUpdate{}, err
	}
	delete(a.keys, upd.OldID)
	a.keys[upd.NewID] = upd.NewSP
	return upd, nil
}

// AttachSource registers a replica store under key; its tallies merge into
// every served trust value. Re-attaching a key replaces the store.
func (a *Agent) AttachSource(key string, st *repstore.Store) {
	a.srcMu.Lock()
	defer a.srcMu.Unlock()
	if a.sources == nil {
		a.sources = make(map[string]*repstore.Store)
	}
	a.sources[key] = st
}

// DetachSource removes a replica store registered with AttachSource.
func (a *Agent) DetachSource(key string) {
	a.srcMu.Lock()
	defer a.srcMu.Unlock()
	delete(a.sources, key)
}

// SourceCount returns how many replica stores are attached.
func (a *Agent) SourceCount() int {
	a.srcMu.RLock()
	defer a.srcMu.RUnlock()
	return len(a.sources)
}

// CombinedTally sums the subject's raw counts across the agent's own store
// and every attached replica source. ok is false when no store holds any
// report about the subject.
func (a *Agent) CombinedTally(subject pkc.NodeID) (pos, neg int, ok bool) {
	pos, neg, ok = a.store.Tally(subject)
	a.srcMu.RLock()
	defer a.srcMu.RUnlock()
	for _, st := range a.sources {
		if p, n, has := st.Tally(subject); has {
			pos += p
			neg += n
			ok = true
		}
	}
	return pos, neg, ok
}

// TrustValue computes the agent's estimate for subject from stored reports:
// the Laplace-smoothed positive fraction (p+1)/(p+n+2) over the combined
// tally (own store plus attached replica sources). ok is false when the
// agent has no report about the subject and therefore no opinion.
func (a *Agent) TrustValue(subject pkc.NodeID) (trust.Value, bool) {
	pos, neg, ok := a.CombinedTally(subject)
	if !ok {
		return 0, false
	}
	return trust.Value(float64(pos+1) / float64(pos+neg+2)), true
}

// ReportCount returns the total number of accepted reports.
func (a *Agent) ReportCount() int { return a.store.ReportCount() }

// SubjectCount returns how many distinct subjects have reports.
func (a *Agent) SubjectCount() int { return a.store.SubjectCount() }

// String summarizes the agent for logs.
func (a *Agent) String() string {
	a.mu.RLock()
	nkeys := len(a.keys)
	a.mu.RUnlock()
	return fmt.Sprintf("agent %s: %d keys, %d reports on %d subjects",
		a.self.ID.Short(), nkeys, a.store.ReportCount(), a.store.SubjectCount())
}

// DecodeNonceHint extracts the nonce from a signed report without verifying
// it; transports use it for early deduplication.
func DecodeNonceHint(wire []byte) (pkc.Nonce, error) {
	_, _, nonce, _, _, err := parseReportWire(wire)
	return nonce, err
}
