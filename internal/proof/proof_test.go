package proof

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hirep/internal/agentdir"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
)

func ident(t *testing.T) *pkc.Identity {
	t.Helper()
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func nonce(t *testing.T) pkc.Nonce {
	t.Helper()
	n, err := pkc.NewNonce(nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// submit signs a report as reporter and runs it through the agent's full
// ingest path (signature check, replay cache, store append with evidence).
func submit(t *testing.T, a *agentdir.Agent, reporter *pkc.Identity, subject pkc.NodeID, positive bool) {
	t.Helper()
	w := agentdir.SignReport(reporter, subject, positive, nonce(t))
	if _, err := a.SubmitReport(reporter.ID, w); err != nil {
		t.Fatal(err)
	}
}

// resign reattests a (possibly tampered) bundle as agent — the dishonest
// agent's move: the signature is always valid, the content is the lie.
func resign(b *Bundle, agent *pkc.Identity) *Bundle {
	c := *b
	c.Evidence = append([]Evidence(nil), b.Evidence...)
	c.Lineage = append([]LineageLink(nil), b.Lineage...)
	return &c
}

func mustVerdict(t *testing.T, b *Bundle, want Verdict, reasonFrag string) Result {
	t.Helper()
	res, err := Verify(b)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Verdict != want {
		t.Fatalf("verdict %v (reason %q), want %v", res.Verdict, res.Reason, want)
	}
	if reasonFrag != "" && !strings.Contains(res.Reason, reasonFrag) {
		t.Fatalf("reason %q does not mention %q", res.Reason, reasonFrag)
	}
	return res
}

func TestBundleRoundTripMatching(t *testing.T) {
	agentID := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 64})
	a := agentdir.NewWithStore(agentID, 0, st)
	defer a.Close()
	subject := ident(t).ID
	reporters := []*pkc.Identity{ident(t), ident(t), ident(t)}
	for _, r := range reporters {
		if err := a.RegisterKey(r.ID, r.Sign.Public); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 9; i++ {
		submit(t, a, reporters[i%3], subject, i%4 != 0)
	}

	b := Assemble(st, agentID, subject, st.WALEpoch())
	if b.Partial {
		t.Fatal("complete bundle marked partial")
	}
	res := mustVerdict(t, b, Matching, "")
	if res.Pos != b.Pos || res.Neg != b.Neg || b.Pos+b.Neg != 9 {
		t.Fatalf("recomputed %d/%d vs published %d/%d", res.Pos, res.Neg, b.Pos, b.Neg)
	}
	if b.AgentID() != agentID.ID {
		t.Fatal("bundle agent ID mismatch")
	}

	// Canonical codec: decode(encode) is byte-identical.
	enc := b.Encode()
	dec, err := DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("bundle encoding not canonical")
	}
	mustVerdict(t, dec, Matching, "")
}

func TestUnknownSubjectEmptyBundle(t *testing.T) {
	agentID := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 8})
	defer st.Close()
	b := Assemble(st, agentID, ident(t).ID, st.WALEpoch())
	if b.Pos != 0 || b.Neg != 0 || len(b.Evidence) != 0 || b.Partial {
		t.Fatalf("empty bundle carries state: %+v", b)
	}
	mustVerdict(t, b, Matching, "")
}

func TestCappedBundlePartialNeverLying(t *testing.T) {
	agentID := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 4})
	a := agentdir.NewWithStore(agentID, 0, st)
	defer a.Close()
	subject := ident(t).ID
	r := ident(t)
	if err := a.RegisterKey(r.ID, r.Sign.Public); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		submit(t, a, r, subject, true)
	}
	b := Assemble(st, agentID, subject, st.WALEpoch())
	if !b.Partial || len(b.Evidence) != 4 || b.Pos != 12 {
		t.Fatalf("capped bundle: partial=%v evs=%d pos=%d", b.Partial, len(b.Evidence), b.Pos)
	}
	res := mustVerdict(t, b, Partial, "covers 4 of 12")
	if res.Pos != 4 {
		t.Fatalf("partial recomputed %d, want 4", res.Pos)
	}
}

func TestTamperVerdicts(t *testing.T) {
	agentID := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 64})
	a := agentdir.NewWithStore(agentID, 0, st)
	defer a.Close()
	subject := ident(t).ID
	r := ident(t)
	other := ident(t)
	if err := a.RegisterKey(r.ID, r.Sign.Public); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		submit(t, a, r, subject, true)
	}
	honest := Assemble(st, agentID, subject, st.WALEpoch())
	mustVerdict(t, honest, Matching, "")

	t.Run("inflated tally", func(t *testing.T) {
		b := resign(honest, agentID)
		b.Pos += 3
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "published tally")
	})
	t.Run("duplicated report", func(t *testing.T) {
		b := resign(honest, agentID)
		b.Evidence = append(b.Evidence, b.Evidence[0])
		b.Pos++
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "duplicated report nonce")
	})
	t.Run("suppressed report", func(t *testing.T) {
		// Dropping a wire while keeping the tally and completeness claim:
		// censorship of a report it attested to holding.
		b := resign(honest, agentID)
		b.Evidence = b.Evidence[:len(b.Evidence)-1]
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "evidence recomputes")
	})
	t.Run("forged report signature", func(t *testing.T) {
		b := resign(honest, agentID)
		w := append([]byte(nil), b.Evidence[0].Wire...)
		w[len(w)-1] ^= 1
		b.Evidence[0].Wire = w
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "report signature invalid")
	})
	t.Run("unbound reporter key", func(t *testing.T) {
		b := resign(honest, agentID)
		b.Evidence[0].SP = append([]byte(nil), other.Sign.Public...)
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "does not hash to reporter id")
	})
	t.Run("laundered foreign evidence", func(t *testing.T) {
		// A valid signed report about a different subject, counted into this
		// subject's tally with no lineage connecting them.
		b := resign(honest, agentID)
		w := agentdir.SignReport(r, other.ID, true, nonce(t))
		b.Evidence = append(b.Evidence, Evidence{Reporter: r.ID, SP: append([]byte(nil), r.Sign.Public...), Wire: w})
		b.Pos++
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "does not resolve")
	})
	t.Run("partial over-evidence", func(t *testing.T) {
		b := resign(honest, agentID)
		b.Partial = true
		b.Pos = 2 // fewer than the 4 valid wires it still carries
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "exceeds published tally")
	})
	t.Run("weak honest partial", func(t *testing.T) {
		// Declaring completeness away is valid, merely weak — not a lie.
		b := resign(honest, agentID)
		b.Partial = true
		b.Sign(agentID)
		mustVerdict(t, b, Partial, "")
	})
	t.Run("tampered without resigning", func(t *testing.T) {
		b := resign(honest, agentID)
		b.Pos++
		if _, err := Verify(b); !errors.Is(err, ErrUnverifiable) {
			t.Fatalf("err = %v, want ErrUnverifiable", err)
		}
	})
	t.Run("fabricated lineage link", func(t *testing.T) {
		// The laundering attack: a genuine signed report about identity X,
		// pulled into the subject's tally by a lineage link X→subject the
		// agent made up. Without X's key no valid key-update wire for that
		// succession can exist, so the fabricated certificate convicts the
		// agent — it signed the link into its attestation.
		b := resign(honest, agentID)
		b.Evidence = append(b.Evidence, Evidence{
			Reporter: r.ID,
			SP:       append([]byte(nil), r.Sign.Public...),
			Wire:     agentdir.SignReport(r, other.ID, true, nonce(t)),
		})
		b.Pos++
		b.Lineage = append(b.Lineage, LineageLink{
			Old: other.ID, New: subject,
			OldSP: append([]byte(nil), other.Sign.Public...),
			Wire:  []byte("no such rotation ever happened"),
		})
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "not authorized")
	})
	t.Run("replayed foreign rotation cert", func(t *testing.T) {
		// Subtler laundering: the certificate is a REAL key update — but for
		// a different succession. The wire binds old and new IDs under the
		// old key's signature, so retargeting it at the subject fails.
		b := resign(honest, agentID)
		stranger := ident(t)
		_, upd, err := stranger.Rotate(nil)
		if err != nil {
			t.Fatal(err)
		}
		b.Evidence = append(b.Evidence, Evidence{
			Reporter: r.ID,
			SP:       append([]byte(nil), r.Sign.Public...),
			Wire:     agentdir.SignReport(r, stranger.ID, true, nonce(t)),
		})
		b.Pos++
		b.Lineage = append(b.Lineage, LineageLink{
			Old: stranger.ID, New: subject, // cert really names stranger→next, not →subject
			OldSP: append([]byte(nil), stranger.Sign.Public...),
			Wire:  upd,
		})
		b.Sign(agentID)
		mustVerdict(t, b, Lying, "not authorized")
	})
	t.Run("lineage cycle bounded", func(t *testing.T) {
		// resolvesTo must terminate on a crafted link cycle. Certified cycles
		// cannot be minted through the public API (Rotate always derives a
		// fresh identity), so exercise the resolver directly.
		x, y := ident(t).ID, ident(t).ID
		cycle := map[pkc.NodeID]pkc.NodeID{x: y, y: x}
		if resolvesTo(x, ident(t).ID, cycle) {
			t.Fatal("cycle resolved to an unrelated subject")
		}
	})
}

// TestRotationLineageMatching pins the §3.5 rotation story end to end: a
// subject's identity rotates after reports were filed against its old ID; the
// merged bundle ships the old wires plus the lineage link, and Verify accepts
// the old-ID evidence into the new subject's tally.
func TestRotationLineageMatching(t *testing.T) {
	agentID := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 64})
	a := agentdir.NewWithStore(agentID, 0, st)
	defer a.Close()
	subject := ident(t)
	r := ident(t)
	for _, id := range []*pkc.Identity{subject, r} {
		if err := a.RegisterKey(id.ID, id.Sign.Public); err != nil {
			t.Fatal(err)
		}
	}
	submit(t, a, r, subject.ID, true)
	submit(t, a, r, subject.ID, false)

	// Two rotations in a row: Verify must chase the chain, not one hop.
	cur := subject
	for i := 0; i < 2; i++ {
		next, upd, err := cur.Rotate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ApplyKeyUpdate(upd); err != nil {
			t.Fatal(err)
		}
		submit(t, a, r, next.ID, true)
		cur = next
	}

	b := Assemble(st, agentID, cur.ID, st.WALEpoch())
	if b.Partial || len(b.Evidence) != 4 || len(b.Lineage) != 2 {
		t.Fatalf("merged bundle: partial=%v evs=%d lineage=%d", b.Partial, len(b.Evidence), len(b.Lineage))
	}
	res := mustVerdict(t, b, Matching, "")
	if res.Pos != 3 || res.Neg != 1 {
		t.Fatalf("recomputed %d/%d, want 3/1", res.Pos, res.Neg)
	}
	// The old ID's bundle is now empty: its state moved.
	mustVerdict(t, Assemble(st, agentID, subject.ID, st.WALEpoch()), Matching, "")

	// An unrelated subject's bundle does not leak the rotation chain.
	unrelated := ident(t).ID
	submit(t, a, r, unrelated, true)
	if ub := Assemble(st, agentID, unrelated, st.WALEpoch()); len(ub.Lineage) != 0 {
		t.Fatalf("unrelated bundle leaks %d lineage links", len(ub.Lineage))
	}
}

// TestUncertifiedMergePartial pins the assembly-side half of the lineage
// trust model: a bare Store.Merge records a link with no key-update
// certificate, which a bundle cannot prove. Assembly withholds both the link
// and the evidence that resolves only through it, and the bundle goes
// Partial — the merged-in remainder rides on the agent's signature alone —
// rather than shipping an unprovable link or being misjudged Lying.
func TestUncertifiedMergePartial(t *testing.T) {
	agentID := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 64})
	a := agentdir.NewWithStore(agentID, 0, st)
	defer a.Close()
	oldSub, newSub, r := ident(t), ident(t), ident(t)
	for _, id := range []*pkc.Identity{oldSub, newSub, r} {
		if err := a.RegisterKey(id.ID, id.Sign.Public); err != nil {
			t.Fatal(err)
		}
	}
	submit(t, a, r, oldSub.ID, true)
	submit(t, a, r, oldSub.ID, true)
	submit(t, a, r, newSub.ID, false)
	// A store-level merge with no certificate (no §3.5 key update backs it).
	if err := st.Merge(oldSub.ID, newSub.ID); err != nil {
		t.Fatal(err)
	}
	b := Assemble(st, agentID, newSub.ID, st.WALEpoch())
	if len(b.Lineage) != 0 {
		t.Fatalf("bundle ships %d uncertified lineage links", len(b.Lineage))
	}
	if !b.Partial || len(b.Evidence) != 1 {
		t.Fatalf("partial=%v evs=%d, want the orphaned old-ID evidence withheld", b.Partial, len(b.Evidence))
	}
	if b.Pos != 2 || b.Neg != 1 {
		t.Fatalf("published tally %d/%d, want 2/1 (merge still counts)", b.Pos, b.Neg)
	}
	res := mustVerdict(t, b, Partial, "")
	if res.Pos != 0 || res.Neg != 1 {
		t.Fatalf("evidence recomputes %d/%d, want 0/1", res.Pos, res.Neg)
	}
}

// TestShardTransferPreservesProof pins the replica catch-up story: after a
// subject's shard is exported from one agent's store and imported into a
// fresh one (ImportShard, the anti-entropy path), the receiving agent
// assembles a bundle that still verifies Matching — evidence and lineage
// travel with the tally.
func TestShardTransferPreservesProof(t *testing.T) {
	oldAgent, newAgent := ident(t), ident(t)
	src, _ := repstore.Open("", repstore.Options{Shards: 4, EvidenceCap: 64})
	a := agentdir.NewWithStore(oldAgent, 0, src)
	defer a.Close()
	subject := ident(t)
	r := ident(t)
	for _, id := range []*pkc.Identity{subject, r} {
		if err := a.RegisterKey(id.ID, id.Sign.Public); err != nil {
			t.Fatal(err)
		}
	}
	submit(t, a, r, subject.ID, true)
	submit(t, a, r, subject.ID, true)
	next, upd, err := subject.Rotate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyKeyUpdate(upd); err != nil {
		t.Fatal(err)
	}
	submit(t, a, r, next.ID, false)

	dst, _ := repstore.Open("", repstore.Options{Shards: 4, EvidenceCap: 64})
	defer dst.Close()
	for i := 0; i < dst.ShardCount(); i++ {
		if err := dst.ImportShard(i, src.ExportShard(i)); err != nil {
			t.Fatal(err)
		}
	}
	b := Assemble(dst, newAgent, next.ID, dst.WALEpoch())
	if b.Partial || len(b.Evidence) != 3 || len(b.Lineage) != 1 {
		t.Fatalf("post-import bundle: partial=%v evs=%d lineage=%d", b.Partial, len(b.Evidence), len(b.Lineage))
	}
	res := mustVerdict(t, b, Matching, "")
	if res.Pos != 2 || res.Neg != 1 {
		t.Fatalf("post-import recomputed %d/%d", res.Pos, res.Neg)
	}
	if b.AgentID() != newAgent.ID {
		t.Fatal("bundle not attributed to the receiving agent")
	}
}

func TestTrustSnapshot(t *testing.T) {
	agentID := ident(t)
	subject := ident(t).ID
	ts := NewTrustSnapshot(agentID, subject, 7, 2, 5, 1000)
	if err := ts.Verify(999); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if err := ts.Verify(1001); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired snapshot: err = %v", err)
	}
	if got := float64(ts.Trust()); got != 8.0/11.0 {
		t.Fatalf("Trust() = %v, want %v", got, 8.0/11.0)
	}
	if ts.AgentID() != agentID.ID {
		t.Fatal("snapshot agent ID mismatch")
	}

	enc := ts.Encode()
	dec, err := DecodeTrustSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("snapshot encoding not canonical")
	}
	if err := dec.Verify(999); err != nil {
		t.Fatalf("decoded snapshot rejected: %v", err)
	}

	dec.Pos++
	if err := dec.Verify(999); !errors.Is(err, ErrUnverifiable) {
		t.Fatalf("tampered snapshot: err = %v", err)
	}
}

// copyDir clones a live store directory file by file — the crash simulation:
// whatever bytes hit the filesystem exist, nothing in memory does.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	clone := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		src, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(clone, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(dst, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return clone
}

// TestProofPropertyRandomInterleavings is the subsystem's property test:
// under random interleavings of report ingest, subject key rotation, store
// compaction, and kill-9 crash recovery, every bundle an honest agent
// assembles must verify — Matching whenever the evidence log is complete,
// never Lying — and its published tally must equal an independently tracked
// shadow tally.
func TestProofPropertyRandomInterleavings(t *testing.T) {
	const (
		runs = 6
		ops  = 60
	)
	caps := []int{3, 16, 256}
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(int64(1000 + run)))
		cap := caps[run%len(caps)]
		dir := t.TempDir()
		opts := repstore.Options{NoSync: true, CompactAfter: -1, EvidenceCap: cap}
		st, err := repstore.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		agentID := ident(t)
		a := agentdir.NewWithStore(agentID, 0, st)

		reporters := []*pkc.Identity{ident(t), ident(t), ident(t)}
		subjects := []*pkc.Identity{ident(t), ident(t)}
		register := func() {
			for _, id := range append(append([]*pkc.Identity(nil), reporters...), subjects...) {
				if err := a.RegisterKey(id.ID, id.Sign.Public); err != nil {
					t.Fatal(err)
				}
			}
		}
		register()

		// Shadow model: expected tally per live subject identity.
		type tally struct{ pos, neg int }
		shadow := map[pkc.NodeID]*tally{subjects[0].ID: {}, subjects[1].ID: {}}

		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 6: // ingest
				si := rng.Intn(len(subjects))
				positive := rng.Intn(3) != 0
				submit(t, a, reporters[rng.Intn(len(reporters))], subjects[si].ID, positive)
				if positive {
					shadow[subjects[si].ID].pos++
				} else {
					shadow[subjects[si].ID].neg++
				}
			case r < 7: // rotate a subject identity
				si := rng.Intn(len(subjects))
				next, upd, err := subjects[si].Rotate(nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := a.ApplyKeyUpdate(upd); err != nil {
					t.Fatal(err)
				}
				shadow[next.ID] = shadow[subjects[si].ID]
				delete(shadow, subjects[si].ID)
				subjects[si] = next
			case r < 8: // compact into a snapshot
				if err := st.Snapshot(); err != nil {
					t.Fatal(err)
				}
			default: // kill -9 and recover from the copied directory
				dir = copyDir(t, dir)
				st, err = repstore.Open(dir, opts)
				if err != nil {
					t.Fatalf("run %d op %d: crash reopen: %v", run, op, err)
				}
				a = agentdir.NewWithStore(agentID, 0, st)
				register()
			}
		}

		for _, s := range subjects {
			want := shadow[s.ID]
			b := Assemble(st, agentID, s.ID, st.WALEpoch())
			if int(b.Pos) != want.pos || int(b.Neg) != want.neg {
				t.Fatalf("run %d: published %d/%d, shadow %d/%d", run, b.Pos, b.Neg, want.pos, want.neg)
			}
			res, err := Verify(b)
			if err != nil {
				t.Fatalf("run %d: honest bundle unverifiable: %v", run, err)
			}
			if res.Verdict == Lying {
				t.Fatalf("run %d: honest bundle judged lying: %s", run, res.Reason)
			}
			complete := want.pos+want.neg <= cap
			if complete && res.Verdict != Matching {
				t.Fatalf("run %d: complete bundle verdict %v (%s)", run, res.Verdict, res.Reason)
			}
			if res.Pos > b.Pos || res.Neg > b.Neg {
				t.Fatalf("run %d: evidence %d/%d exceeds published %d/%d", run, res.Pos, res.Neg, b.Pos, b.Neg)
			}
			// The wire round trip preserves the verdict.
			dec, err := DecodeBundle(b.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if res2, err := Verify(dec); err != nil || res2.Verdict != res.Verdict {
				t.Fatalf("run %d: verdict changed over the wire: %v/%v", run, res2.Verdict, err)
			}
		}
		a.Close()
	}
}
