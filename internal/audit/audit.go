// Package audit implements hiREP's self-healing trust plane (DESIGN.md §15).
//
// The proof subsystem (§14) made agent misbehavior detectable: a Lying
// verdict from proof.Verify is provable, attributable misbehavior by the
// agent key that signed the bundle. This package makes detection actionable.
// An auditor that catches a lying agent packages the offending bundle into a
// signed, self-contained advisory and gossips it to its peers; every receiver
// re-runs proof.Verify on the embedded bundle before acting, so an advisory
// transfers proof, not opinion — nobody can frame an agent with a bare
// accusation, and a fabricated advisory is rejected and counted, never acted
// on.
//
// The auditor loop itself (sweep scheduling, quarantine lifecycle, gossip)
// lives in internal/node; this package holds the pieces with no node
// dependency: the advisory format and its verification contract, plus the
// per-reporter negative-skew table behind slander detection.
package audit

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"hirep/internal/agentdir"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/wire"
)

// SigDomain is the domain-separation prefix of every signature this package
// produces.
const SigDomain = "hirep/audit/v1"

var advisorySigPrefix = []byte(SigDomain + "/advisory\x00")

// Errors returned by Verify. All of them mean the advisory must be discarded
// without acting on it; they differ in what (if anything) they say about the
// auditor that signed it.
var (
	// ErrUnsigned: the advisory is not authenticated by its auditor
	// signature. Transport corruption is indistinguishable from forgery, so
	// nothing is pinned on anyone.
	ErrUnsigned = errors.New("audit: advisory not authenticated by its auditor signature")
	// ErrNoEvidence: the advisory is authentic but its embedded bundle is
	// missing, malformed, or not agent-authenticated — the accusation carries
	// no proof. The signing auditor vouched for a bare accusation.
	ErrNoEvidence = errors.New("audit: advisory carries no verifiable proof bundle")
	// ErrNotLying: the embedded bundle verifies but its verdict is not Lying
	// — the "evidence" exonerates the accused.
	ErrNotLying = errors.New("audit: embedded bundle does not prove lying")
	// ErrWrongAccused: the bundle proves lying, but by a different agent key
	// than the advisory accuses.
	ErrWrongAccused = errors.New("audit: embedded bundle was signed by a different agent than accused")
	// ErrCorrupt: malformed advisory encoding.
	ErrCorrupt = errors.New("audit: malformed advisory encoding")
)

// Codec bounds. An advisory is gossiped inside one onion-inner frame, so the
// whole encoding must stay under wire.MaxFrame with sealing overhead; the
// individual bounds keep a hostile advisory from ballooning decode work.
const (
	maxReasonLen   = 512
	maxSuspects    = 32
	maxBundleBytes = wire.MaxFrame
)

// SuspectReporter is advisory metadata naming a reporter whose accepted
// reports at the audited agent skew heavily negative — the §3.6 slander
// heuristic. Unlike the accusation itself it is NOT proven by the advisory
// (the skew is the auditor's observation, not recomputable by receivers);
// consumers treat it as a hint to prioritize their own auditing, never as
// grounds for action.
type SuspectReporter struct {
	Reporter pkc.NodeID
	Negative uint64 // negative reports accepted from this reporter
	Total    uint64 // all reports accepted from this reporter
}

// Skew is the fraction of this reporter's accepted reports that is negative.
func (s SuspectReporter) Skew() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Negative) / float64(s.Total)
}

// Advisory is a signed, self-contained lying-agent accusation. The offending
// proof bundle rides inside, so a receiver needs nothing but the advisory
// bytes to re-derive the verdict.
type Advisory struct {
	// Accused is the node ID of the agent the bundle convicts. It is
	// redundant with the bundle's own AgentSP — Verify cross-checks them —
	// but naming it in the signed header lets receivers index and dedup
	// without decoding the bundle first.
	Accused pkc.NodeID
	// Reason is the proof.Result reason string of the auditor's own
	// verification, for logs; receivers recompute their own.
	Reason string
	// Issued is the auditor's wall-clock unix time at issuance, advisory
	// only (receivers do not enforce freshness — the proof inside does not
	// age: a signed lie stays a lie).
	Issued uint64
	// Bundle is the encoded offending proof bundle (proof.DecodeBundle).
	Bundle []byte
	// Suspects is optional slander metadata; see SuspectReporter.
	Suspects []SuspectReporter
	// AuditorSP / AuditorSig authenticate the advisory. The auditor stakes
	// its own identity on the accusation: a receiver that finds the embedded
	// bundle missing or exonerating has caught the *auditor* misbehaving.
	AuditorSP  []byte
	AuditorSig []byte
}

// AuditorID returns the node ID of the auditor that signed the advisory.
func (a *Advisory) AuditorID() pkc.NodeID { return pkc.DeriveNodeID(a.AuditorSP) }

// signedPart builds the byte string AuditorSig covers: the header plus a
// digest of the bundle, binding the accusation to exactly one bundle.
func (a *Advisory) signedPart() []byte {
	digest := sha256.Sum256(a.Bundle)
	var e wire.Encoder
	e.Bytes(advisorySigPrefix).Bytes(a.Accused[:]).String(a.Reason).U64(a.Issued)
	e.Bytes(digest[:])
	e.U64(uint64(len(a.Suspects)))
	for _, s := range a.Suspects {
		e.Bytes(s.Reporter[:]).U64(s.Negative).U64(s.Total)
	}
	return e.Encode()
}

// Sign attests the advisory as auditor.
func (a *Advisory) Sign(auditor *pkc.Identity) {
	a.AuditorSP = append([]byte(nil), auditor.Sign.Public...)
	a.AuditorSig = auditor.SignMessage(a.signedPart())
}

// Verify checks the advisory end to end: auditor signature, embedded bundle
// authenticity, re-derived Lying verdict, and accused-vs-signer match. On
// success it returns the decoded bundle and the receiver's own verification
// result, so callers act on what they verified rather than on what the
// advisory claims. The embedded bundle is judged by v, the verifier the node
// reads with, so evidence it has already checked is not checked again.
func (a *Advisory) Verify(v *proof.Verifier) (*proof.Bundle, proof.Result, error) {
	if len(a.AuditorSP) != ed25519.PublicKeySize ||
		!pkc.Verify(a.AuditorSP, a.signedPart(), a.AuditorSig) {
		return nil, proof.Result{}, ErrUnsigned
	}
	b, err := proof.DecodeBundle(a.Bundle)
	if err != nil {
		return nil, proof.Result{}, fmt.Errorf("%w: %v", ErrNoEvidence, err)
	}
	res, err := v.Verify(b)
	if err != nil {
		return nil, proof.Result{}, fmt.Errorf("%w: %v", ErrNoEvidence, err)
	}
	if res.Verdict != proof.Lying {
		return nil, proof.Result{}, fmt.Errorf("%w: verdict %s", ErrNotLying, res.Verdict)
	}
	if b.AgentID() != a.Accused {
		return nil, proof.Result{}, ErrWrongAccused
	}
	return b, res, nil
}

// Encode serializes the advisory.
func (a *Advisory) Encode() []byte {
	var e wire.Encoder
	e.Bytes(a.Accused[:]).String(a.Reason).U64(a.Issued).Bytes(a.Bundle)
	e.U64(uint64(len(a.Suspects)))
	for _, s := range a.Suspects {
		e.Bytes(s.Reporter[:]).U64(s.Negative).U64(s.Total)
	}
	e.Bytes(a.AuditorSP).Bytes(a.AuditorSig)
	return e.Encode()
}

// Digest is a content hash of the canonical encoding, used by gossip to
// deduplicate re-broadcasts.
func (a *Advisory) Digest() [sha256.Size]byte { return sha256.Sum256(a.Encode()) }

// DecodeAdvisory parses an advisory. It enforces the codec bounds but does
// not authenticate anything — callers must Verify before acting.
func DecodeAdvisory(p []byte) (*Advisory, error) {
	d := wire.NewDecoder(p)
	a := &Advisory{}
	id := d.Bytes()
	if len(id) != pkc.NodeIDSize {
		return nil, fmt.Errorf("%w: bad accused id", ErrCorrupt)
	}
	copy(a.Accused[:], id)
	a.Reason = d.String()
	a.Issued = d.U64()
	a.Bundle = append([]byte(nil), d.Bytes()...)
	n := d.U64()
	if n > maxSuspects {
		return nil, fmt.Errorf("%w: %d suspects", ErrCorrupt, n)
	}
	if len(a.Reason) > maxReasonLen || len(a.Bundle) > maxBundleBytes {
		return nil, fmt.Errorf("%w: oversized field", ErrCorrupt)
	}
	if n > 0 {
		a.Suspects = make([]SuspectReporter, n)
		for i := range a.Suspects {
			rid := d.Bytes()
			if len(rid) != pkc.NodeIDSize {
				return nil, fmt.Errorf("%w: bad suspect id", ErrCorrupt)
			}
			copy(a.Suspects[i].Reporter[:], rid)
			a.Suspects[i].Negative = d.U64()
			a.Suspects[i].Total = d.U64()
		}
	}
	a.AuditorSP = append([]byte(nil), d.Bytes()...)
	a.AuditorSig = append([]byte(nil), d.Bytes()...)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return a, nil
}

// SkewTable accumulates per-reporter report polarity observed during audits,
// feeding slander detection: a reporter whose accepted reports skew heavily
// negative across subjects is a slander suspect (ROADMAP item 3 groundwork).
// Not safe for concurrent use; the auditor owns one per sweep series.
type SkewTable struct {
	byReporter map[pkc.NodeID]*SuspectReporter
}

// NewSkewTable returns an empty table.
func NewSkewTable() *SkewTable {
	return &SkewTable{byReporter: make(map[pkc.NodeID]*SuspectReporter)}
}

// Observe records one report by reporter with the given polarity.
func (t *SkewTable) Observe(reporter pkc.NodeID, positive bool) {
	s := t.byReporter[reporter]
	if s == nil {
		s = &SuspectReporter{Reporter: reporter}
		t.byReporter[reporter] = s
	}
	s.Total++
	if !positive {
		s.Negative++
	}
}

// Add folds a pre-aggregated per-reporter tally into the table — the bulk
// path for agents that already keep admission counts (agentdir.Reporters).
func (t *SkewTable) Add(reporter pkc.NodeID, negative, total uint64) {
	s := t.byReporter[reporter]
	if s == nil {
		s = &SuspectReporter{Reporter: reporter}
		t.byReporter[reporter] = s
	}
	s.Total += total
	s.Negative += negative
}

// ObserveBundle folds every report in a bundle's evidence into the table.
// Callers pass bundles that already passed proof.Verify, so the wires are
// known-parseable; a malformed one is skipped defensively.
func (t *SkewTable) ObserveBundle(b *proof.Bundle) {
	for _, ev := range b.Evidence {
		if _, positive, _, _, _, err := agentdir.ParseReportWire(ev.Wire); err == nil {
			t.Observe(ev.Reporter, positive)
		}
	}
}

// Suspects returns reporters with at least minReports accepted reports and a
// negative fraction of at least minSkew, sorted by skew (then volume)
// descending and capped at the advisory metadata limit.
func (t *SkewTable) Suspects(minReports uint64, minSkew float64) []SuspectReporter {
	var out []SuspectReporter
	for _, s := range t.byReporter {
		if s.Total >= minReports && s.Skew() >= minSkew {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].Skew(), out[j].Skew()
		if si != sj {
			return si > sj
		}
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Reporter.String() < out[j].Reporter.String()
	})
	if len(out) > maxSuspects {
		out = out[:maxSuspects]
	}
	return out
}
