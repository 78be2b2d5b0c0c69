// Package proof is hiREP's verifiable-read subsystem (DESIGN.md §14).
//
// In the base protocol a querier must trust its agents' arithmetic: a
// RequestTrust answer is a bare tally the agent could have fabricated
// (§3.5.3 gives reporters signatures, but the agent serves sums). This
// package exports reputation instead as evidence anyone can re-score: a
// proof bundle packs a subject's published tally together with the retained
// signed report wires backing it and the agent's signed attestation over
// both. Verify recomputes the tally from the evidence and checks every
// report signature and reporter→nodeID binding, so the bundle is
// self-verifying — and, crucially, self-incriminating: an agent whose
// published tally disagrees with its own signed evidence is provably lying,
// not merely suspected. That property is what makes the read path cacheable
// at untrusted edges (see TrustSnapshot and the node's proof-cache mode):
// a cache can withhold or stale-serve a bundle, but it cannot alter one.
package proof

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"

	"hirep/internal/agentdir"
	"hirep/internal/metrics"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/wire"
)

// SigDomain is the domain-separation prefix of every signature this package
// produces, so a proof attestation can never be replayed as (or collide
// with) a report, key update, or any future signed blob.
const SigDomain = "hirep/proof/v1"

var (
	bundleSigPrefix = []byte(SigDomain + "/bundle\x00")
	snapSigPrefix   = []byte(SigDomain + "/snapshot\x00")
)

// Errors returned by the package.
var (
	// ErrUnverifiable means the bundle (or snapshot) is not authenticated:
	// it is malformed or its agent signature does not verify. Nothing in it
	// can be pinned on the agent — a cache or transport may have corrupted
	// it — so it carries no verdict, unlike a Lying bundle, whose every byte
	// the agent signed.
	ErrUnverifiable = errors.New("proof: bundle not authenticated by its agent signature")
	ErrCorrupt      = errors.New("proof: malformed encoding")
	ErrExpired      = errors.New("proof: trust snapshot expired")
)

// Verdict classifies an authenticated bundle against its own evidence.
type Verdict int

const (
	// Matching: the bundle claims completeness and the evidence exactly
	// reproduces the published tally. The strongest read hiREP offers — the
	// querier holds cryptographic ground truth, agent honesty not assumed.
	Matching Verdict = iota
	// Partial: the bundle declares its evidence incomplete (retention cap,
	// tallies merged in without their wires) and the evidence it does carry
	// is valid and consistent — it re-sums to no more than the published
	// tally. The unevidenced remainder is taken on the agent's signature
	// alone, like a classic RequestTrust answer.
	Partial
	// Lying: the agent signed a bundle its own evidence contradicts — a
	// tally the wires do not reproduce, a forged or duplicated report, an
	// unresolvable subject. Provable misbehavior, attributable to the agent
	// key that signed the attestation.
	Lying
)

func (v Verdict) String() string {
	switch v {
	case Matching:
		return "matching"
	case Partial:
		return "partial"
	case Lying:
		return "provably-lying"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Evidence is one signed report inside a bundle: the wire bytes exactly as
// the reporter signed them, plus the reporter's public key and ID.
type Evidence struct {
	Reporter pkc.NodeID
	SP       []byte
	Wire     []byte
}

// LineageLink is one §3.5 identity succession inside a bundle: Old merged
// into New, proven by Wire — a pkc key-update message signed by the old
// identity's key OldSP. Verify re-checks that certificate on every link, so
// the agent's word is never what authenticates a succession.
type LineageLink struct {
	Old, New pkc.NodeID
	OldSP    []byte
	Wire     []byte
}

// Bundle is a self-verifying reputation export for one subject.
type Bundle struct {
	Subject pkc.NodeID
	// Pos/Neg is the tally the agent publishes — the claim the evidence is
	// checked against.
	Pos, Neg uint64
	// Epoch is the agent's store epoch at assembly (repstore.WALEpoch), a
	// coarse monotonic age marker for ordering proofs from the same agent.
	Epoch uint64
	// Partial declares the evidence incomplete. An honest agent sets it
	// whenever retention dropped wires; a complete bundle claiming Partial
	// is valid (merely weak), but a Partial tally exceeding its evidence is
	// not checkable and a non-Partial mismatch is proof of lying.
	Partial  bool
	Evidence []Evidence
	// Lineage carries the old→new identity-merge links (§3.5 key rotations)
	// a verifier needs to accept evidence signed over pre-rotation subject
	// IDs. Each link ships its key-update certificate — the old identity's
	// signing key and the update wire the old key signed — and Verify
	// re-checks it, so a link is only as good as the rotated-away key's own
	// authorization: an agent cannot fabricate a link to launder unrelated
	// evidence into a subject's tally, and shipping one anyway is a provable
	// lie (the link is inside the signed attestation).
	Lineage []LineageLink
	// AgentSP / AgentSig authenticate the bundle: AgentSig is the agent's
	// Ed25519 signature over the attestation header (domain tag, subject,
	// tally, epoch, partial flag, evidence digest).
	AgentSP  []byte
	AgentSig []byte
}

// AgentID returns the node ID of the agent that signed the bundle.
func (b *Bundle) AgentID() pkc.NodeID { return pkc.DeriveNodeID(b.AgentSP) }

// evidenceDigest hashes the canonical encoding of the evidence and lineage
// lists. The attestation signs this digest rather than the lists themselves,
// keeping the signed header small and the binding exact.
func (b *Bundle) evidenceDigest() [sha256.Size]byte {
	var e wire.Encoder
	e.U64(uint64(len(b.Evidence)))
	for _, ev := range b.Evidence {
		e.Bytes(ev.Reporter[:]).Bytes(ev.SP).Bytes(ev.Wire)
	}
	e.U64(uint64(len(b.Lineage)))
	for _, l := range b.Lineage {
		e.Bytes(l.Old[:]).Bytes(l.New[:]).Bytes(l.OldSP).Bytes(l.Wire)
	}
	return sha256.Sum256(e.Encode())
}

// attestation builds the byte string AgentSig covers.
func (b *Bundle) attestation() []byte {
	digest := b.evidenceDigest()
	var e wire.Encoder
	e.Bytes(bundleSigPrefix).Bytes(b.Subject[:]).U64(b.Pos).U64(b.Neg).U64(b.Epoch)
	e.Bool(b.Partial)
	e.Bytes(digest[:])
	return e.Encode()
}

// AssembleUnsigned builds a bundle for subject from the store's tally,
// evidence log, and merge lineage, without signing it. The tally and
// evidence are read under one shard lock (repstore.SubjectProof) so the pair
// is mutually consistent. A subject the store holds nothing about yields the
// empty bundle — zero tally, zero evidence — which verifies Matching: "I
// know nothing" is also an attestable claim.
func AssembleUnsigned(st *repstore.Store, subject pkc.NodeID, epoch uint64) *Bundle {
	b := &Bundle{Subject: subject, Epoch: epoch}
	pos, neg, evs, truncated, ok := st.SubjectProof(subject)
	if !ok {
		return b
	}
	b.Pos, b.Neg = uint64(pos), uint64(neg)
	b.Evidence = make([]Evidence, len(evs))
	for i, e := range evs {
		b.Evidence[i] = Evidence{Reporter: e.Reporter, SP: e.SP, Wire: e.Wire}
	}
	// Only certified links are exportable: a link without its key-update
	// certificate proves nothing to a verifier, and shipping it would read
	// as a fabrication. Evidence that resolves to the subject only through a
	// dropped uncertified link is withheld with it — the bundle goes Partial
	// (the unevidenced remainder rides on the agent's signature), never
	// falsely Lying.
	rel, droppedLink := relevantLineage(st.LineageLinks(), b)
	b.Lineage = rel
	if droppedLink {
		lineage := make(map[pkc.NodeID]pkc.NodeID, len(rel))
		for _, l := range rel {
			lineage[l.Old] = l.New
		}
		kept := b.Evidence[:0]
		for _, ev := range b.Evidence {
			ws, _, _, _, _, err := agentdir.ParseReportWire(ev.Wire)
			if err == nil && resolvesTo(ws, b.Subject, lineage) {
				kept = append(kept, ev)
			}
		}
		b.Evidence = kept
	}
	// Partial whenever the evidence cannot reproduce the whole tally — the
	// cap dropped wires, counts arrived without evidence (merged tallies,
	// retention enabled after ingest started), or an uncertified lineage
	// link forced evidence to be withheld above.
	b.Partial = truncated || uint64(len(b.Evidence)) != b.Pos+b.Neg
	return b
}

// relevantLineage filters the store's full lineage table to the links a
// verifier of this bundle could need: every certified link on a chain ending
// at the bundle's subject. Shipping unrelated rotations would leak other
// identities' history for no verification value. dropped reports that a
// relevant link had to be withheld for lacking its certificate.
func relevantLineage(links []repstore.LineageLink, b *Bundle) (out []LineageLink, dropped bool) {
	if len(links) == 0 {
		return nil, false
	}
	// Walk backwards from the subject: a link (old → new) is relevant if new
	// is the subject or already known-relevant.
	relevant := map[pkc.NodeID]bool{b.Subject: true}
	for changed := true; changed; {
		changed = false
		for _, l := range links {
			if relevant[l.New] && !relevant[l.Old] {
				relevant[l.Old] = true
				changed = true
			}
		}
	}
	for _, l := range links {
		if !relevant[l.New] {
			continue
		}
		if !l.Certified() {
			dropped = true
			continue
		}
		out = append(out, LineageLink{Old: l.Old, New: l.New, OldSP: l.OldSP, Wire: l.Wire})
	}
	return out, dropped
}

// Sign attests the bundle as agent: the attestation header (including the
// evidence digest) is signed with the agent's report-signing key.
func (b *Bundle) Sign(agent *pkc.Identity) {
	b.AgentSP = append([]byte(nil), agent.Sign.Public...)
	b.AgentSig = agent.SignMessage(b.attestation())
}

// Assemble builds and signs a bundle — the honest agent's serving path.
func Assemble(st *repstore.Store, agent *pkc.Identity, subject pkc.NodeID, epoch uint64) *Bundle {
	b := AssembleUnsigned(st, subject, epoch)
	b.Sign(agent)
	return b
}

// Result is the outcome of verifying an authenticated bundle.
type Result struct {
	Verdict Verdict
	// Pos/Neg is the tally recomputed from the valid evidence — the number
	// a querier should trust over the published one when they differ.
	Pos, Neg uint64
	// Reason explains a Partial or Lying verdict for logs and audits.
	Reason string
}

// maxLineageHops bounds subject resolution through lineage links, so a
// crafted link cycle cannot loop the verifier.
const maxLineageHops = 32

// Verify checks a bundle end to end. The error is non-nil only when the
// bundle is not authenticated (ErrUnverifiable) — nothing then is pinned on
// the agent. With a nil error the Result's verdict classifies the agent's
// own signed statement: Matching (evidence reproduces the tally), Partial
// (declared-incomplete evidence, consistent as far as it goes), or Lying
// (the evidence contradicts the published tally — provable misbehavior by
// the agent identified by b.AgentID()).
//
// Verify remembers nothing: every signature in the bundle is checked on
// every call. It is the entry point for one-shot callers and the reference a
// Verifier is tested against.
func Verify(b *Bundle) (Result, error) { return verify(b, pkc.Verify) }

// Verifier is Verify for a caller that reads bundles again and again. A
// subject's evidence log is append-only and capped, so consecutive bundles
// about it repeat all but their newest wires; a Verifier remembers which
// evidence-wire and key-update signatures already passed Ed25519 and runs it
// only on the ones it has not seen. Everything else Verify checks — the
// attestation, every binding, subject resolution, nonce uniqueness, the
// tally — runs on every call, in the same order, so the two agree on every
// input in Result and error. The attestation itself is new on every issue
// and is checked directly, never remembered. Safe for concurrent use.
type Verifier struct{ sigs *pkc.SigMemo }

// NewVerifier returns a Verifier with an empty memo that counts its hits and
// misses in reg (sig_memo_hits_total, sig_memo_misses_total).
func NewVerifier(reg *metrics.Registry) *Verifier {
	return &Verifier{sigs: pkc.NewSigMemo(reg)}
}

// Verify is proof.Verify answered, where it can be, from what v has already
// verified.
func (v *Verifier) Verify(b *Bundle) (Result, error) { return verify(b, v.sigs.Verify) }

// verify is the one walk behind Verify and Verifier.Verify; sigOK checks the
// bundle's long-lived signatures — key-updates and evidence wires.
func verify(b *Bundle, sigOK func(sp ed25519.PublicKey, msg, sig []byte) bool) (Result, error) {
	if len(b.AgentSP) != ed25519.PublicKeySize ||
		!pkc.Verify(b.AgentSP, b.attestation(), b.AgentSig) {
		return Result{}, ErrUnverifiable
	}
	lying := func(reason string, args ...any) (Result, error) {
		return Result{Verdict: Lying, Reason: fmt.Sprintf(reason, args...)}, nil
	}
	// A lineage link counts only if the rotated-away key itself authorized
	// the succession: the shipped key-update wire must verify under the old
	// identity's key and bind exactly this old→new pair. The agent signed the
	// link into its attestation, so an unauthorized one is not a malformed
	// bundle — it is a fabricated succession, provable misbehavior.
	lineage := make(map[pkc.NodeID]pkc.NodeID, len(b.Lineage))
	for i, l := range b.Lineage {
		upd, body, sig, err := pkc.ParseKeyUpdate(l.Wire)
		if err != nil || !sigOK(l.OldSP, body, sig) || !pkc.VerifyBinding(upd.OldID, l.OldSP) ||
			upd.OldID != l.Old || upd.NewID != l.New {
			return lying("lineage link %d: succession %s→%s not authorized by the old identity's key",
				i, l.Old.Short(), l.New.Short())
		}
		lineage[l.Old] = l.New
	}
	type nonceKey struct {
		rep   pkc.NodeID
		nonce pkc.Nonce
	}
	seen := make(map[nonceKey]bool, len(b.Evidence))
	var pos, neg uint64
	for i, ev := range b.Evidence {
		subject, positive, nonce, body, sig, err := agentdir.ParseReportWire(ev.Wire)
		if err != nil {
			return lying("evidence %d: malformed report wire", i)
		}
		if !pkc.VerifyBinding(ev.Reporter, ev.SP) {
			return lying("evidence %d: reporter key does not hash to reporter id", i)
		}
		if !sigOK(ev.SP, body, sig) {
			return lying("evidence %d: report signature invalid", i)
		}
		if !resolvesTo(subject, b.Subject, lineage) {
			return lying("evidence %d: report subject %s does not resolve to bundle subject", i, subject.Short())
		}
		// An agent enforces nonce uniqueness at ingest, so a duplicate here
		// is tally inflation, not an accident.
		k := nonceKey{rep: ev.Reporter, nonce: nonce}
		if seen[k] {
			return lying("evidence %d: duplicated report nonce", i)
		}
		seen[k] = true
		if positive {
			pos++
		} else {
			neg++
		}
	}
	res := Result{Pos: pos, Neg: neg}
	switch {
	case !b.Partial && (pos != b.Pos || neg != b.Neg):
		res.Verdict = Lying
		res.Reason = fmt.Sprintf("published tally %d/%d but evidence recomputes %d/%d", b.Pos, b.Neg, pos, neg)
	case b.Partial && (pos > b.Pos || neg > b.Neg):
		// Partial may under-evidence the tally, never over-evidence it:
		// more valid signed reports than the published count is inflation
		// in the other direction.
		res.Verdict = Lying
		res.Reason = fmt.Sprintf("partial bundle's evidence %d/%d exceeds published tally %d/%d", pos, neg, b.Pos, b.Neg)
	case b.Partial:
		res.Verdict = Partial
		res.Reason = fmt.Sprintf("evidence covers %d of %d published reports", pos+neg, b.Pos+b.Neg)
	default:
		res.Verdict = Matching
	}
	return res, nil
}

// resolvesTo reports whether from equals to, directly or through a chain of
// lineage links (old identities merged into newer ones).
func resolvesTo(from, to pkc.NodeID, lineage map[pkc.NodeID]pkc.NodeID) bool {
	for hop := 0; hop <= maxLineageHops; hop++ {
		if from == to {
			return true
		}
		next, ok := lineage[from]
		if !ok {
			return false
		}
		from = next
	}
	return false
}
