package proof

import (
	"errors"
	"strings"
	"testing"

	"hirep/internal/agentdir"
	"hirep/internal/metrics"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
)

func sigMisses(reg *metrics.Registry) int64 { return reg.Snapshot()["sig_memo_misses_total"] }

// agree checks one bundle three ways — plain Verify, a Verifier that has
// never seen any of it, and warm, which has — and demands the same Result
// (Reason included) and the same error from all of them, twice over: the
// second round finds the cold verifier holding whatever the first stored.
func agree(t *testing.T, warm *Verifier, b *Bundle) (Result, error) {
	t.Helper()
	want, wantErr := Verify(b)
	cold := NewVerifier(metrics.NewRegistry())
	for round := 1; round <= 2; round++ {
		for name, v := range map[string]*Verifier{"cold": cold, "warm": warm} {
			got, err := v.Verify(b)
			if got != want || err != wantErr {
				t.Fatalf("round %d, %s verifier: (%+v, %v), plain Verify: (%+v, %v)", round, name, got, err, want, wantErr)
			}
		}
	}
	return want, wantErr
}

// TestVerifierAgreesWithVerify is the differential test: over a corpus of
// honest and mutated bundles, memoised-cold, memoised-warm and plain
// verification return equal Result and error.
func TestVerifierAgreesWithVerify(t *testing.T) {
	agentID := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 64})
	a := agentdir.NewWithStore(agentID, 0, st)
	defer a.Close()
	old, r, other := ident(t), ident(t), ident(t)
	for _, id := range []*pkc.Identity{old, r} {
		if err := a.RegisterKey(id.ID, id.Sign.Public); err != nil {
			t.Fatal(err)
		}
	}
	// Reports against the subject before and after it rotates its key, so the
	// honest bundle carries a certified lineage link as well as evidence.
	submit(t, a, r, old.ID, true)
	submit(t, a, r, old.ID, false)
	cur, upd, err := old.Rotate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyKeyUpdate(upd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		submit(t, a, r, cur.ID, true)
	}
	subject := cur.ID
	honest := Assemble(st, agentID, subject, st.WALEpoch())
	if len(honest.Evidence) != 6 || len(honest.Lineage) != 1 || honest.Partial {
		t.Fatalf("honest bundle: %d wires, %d links, partial=%v", len(honest.Evidence), len(honest.Lineage), honest.Partial)
	}
	reg := metrics.NewRegistry()
	warm := NewVerifier(reg)
	if res, err := warm.Verify(honest); err != nil || res.Verdict != Matching {
		t.Fatalf("honest bundle: %+v, %v", res, err)
	}
	if got := sigMisses(reg); got != 7 {
		t.Fatalf("cold verify of 6 wires + 1 link ran %d signature checks, want 7", got)
	}

	flipLast := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)-1] ^= 1
		return c
	}
	forgeWire := func(b *Bundle, i int) { b.Evidence[i].Wire = flipLast(b.Evidence[i].Wire) }
	unbind := func(b *Bundle, i int) { b.Evidence[i].SP = append([]byte(nil), other.Sign.Public...) }
	foreign := func(about pkc.NodeID) Evidence {
		return Evidence{Reporter: r.ID, SP: append([]byte(nil), r.Sign.Public...),
			Wire: agentdir.SignReport(r, about, true, nonce(t))}
	}
	stranger := ident(t)
	_, strangerUpd, err := stranger.Rotate(nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func(b *Bundle)
		unsign  bool // leave the attestation stale
		verdict Verdict
		reason  string
	}{
		{name: "honest, valid lineage", mutate: func(*Bundle) {}, verdict: Matching},
		{name: "empty", mutate: func(b *Bundle) { *b = Bundle{Subject: subject, Epoch: b.Epoch} }, verdict: Matching},
		{name: "bad attestation", mutate: func(b *Bundle) { b.Pos++ }, unsign: true},
		{name: "bad wire", mutate: func(b *Bundle) { forgeWire(b, 2) }, verdict: Lying, reason: "evidence 2: report signature invalid"},
		{name: "bad first wire", mutate: func(b *Bundle) { forgeWire(b, 0) }, verdict: Lying, reason: "evidence 0: report signature invalid"},
		{name: "malformed wire", mutate: func(b *Bundle) { b.Evidence[3].Wire = b.Evidence[3].Wire[:40] }, verdict: Lying, reason: "evidence 3: malformed report wire"},
		{name: "bad binding", mutate: func(b *Bundle) { unbind(b, 1) }, verdict: Lying, reason: "evidence 1: reporter key does not hash"},
		{name: "short key, bound", mutate: func(b *Bundle) {
			b.Evidence[4].SP = b.Evidence[4].SP[:31]
			b.Evidence[4].Reporter = pkc.DeriveNodeID(b.Evidence[4].SP)
		}, verdict: Lying, reason: "evidence 4: report signature invalid"},
		{name: "wrong subject", mutate: func(b *Bundle) {
			b.Evidence = append(b.Evidence, foreign(other.ID))
			b.Pos++
		}, verdict: Lying, reason: "evidence 6: report subject"},
		{name: "duplicated nonce", mutate: func(b *Bundle) {
			b.Evidence = append(b.Evidence, b.Evidence[2])
			b.Pos++
		}, verdict: Lying, reason: "evidence 6: duplicated report nonce"},
		{name: "inflated tally", mutate: func(b *Bundle) { b.Pos += 3 }, verdict: Lying, reason: "published tally 8/1"},
		{name: "deflated tally", mutate: func(b *Bundle) { b.Neg-- }, verdict: Lying, reason: "published tally 5/0"},
		{name: "suppressed wire", mutate: func(b *Bundle) { b.Evidence = b.Evidence[:5] }, verdict: Lying, reason: "evidence recomputes 4/1"},
		{name: "honest partial", mutate: func(b *Bundle) { b.Partial = true; b.Evidence = b.Evidence[2:]; b.Lineage = nil }, verdict: Partial, reason: "covers 4 of 6"},
		{name: "partial over-evidence", mutate: func(b *Bundle) { b.Partial = true; b.Pos = 2 }, verdict: Lying, reason: "exceeds published tally"},
		{name: "lineage withheld", mutate: func(b *Bundle) { b.Lineage = nil }, verdict: Lying, reason: "evidence 0: report subject"},
		{name: "forged lineage, garbage cert", mutate: func(b *Bundle) {
			b.Lineage[0].Wire = []byte("no such rotation ever happened")
		}, verdict: Lying, reason: "lineage link 0"},
		{name: "forged lineage, cert bit flipped", mutate: func(b *Bundle) {
			b.Lineage[0].Wire = flipLast(b.Lineage[0].Wire)
		}, verdict: Lying, reason: "lineage link 0"},
		{name: "forged lineage, wrong old key", mutate: func(b *Bundle) {
			b.Lineage[0].OldSP = append([]byte(nil), other.Sign.Public...)
		}, verdict: Lying, reason: "lineage link 0"},
		{name: "forged lineage, retargeted cert", mutate: func(b *Bundle) {
			b.Evidence = append(b.Evidence, foreign(stranger.ID))
			b.Pos++
			b.Lineage = append(b.Lineage, LineageLink{Old: stranger.ID, New: subject,
				OldSP: append([]byte(nil), stranger.Sign.Public...), Wire: strangerUpd})
		}, verdict: Lying, reason: "lineage link 1"},
		{name: "two failures: binding at 1 before signature at 4", mutate: func(b *Bundle) { forgeWire(b, 4); unbind(b, 1) },
			verdict: Lying, reason: "evidence 1: reporter key does not hash"},
		{name: "two failures: signature at 1 before duplicate at 6", mutate: func(b *Bundle) {
			forgeWire(b, 1)
			b.Evidence = append(b.Evidence, b.Evidence[0])
		}, verdict: Lying, reason: "evidence 1: report signature invalid"},
		{name: "two failures: signatures at 2 and 5", mutate: func(b *Bundle) { forgeWire(b, 5); forgeWire(b, 2) },
			verdict: Lying, reason: "evidence 2: report signature invalid"},
		{name: "two failures: lineage before evidence", mutate: func(b *Bundle) {
			forgeWire(b, 0)
			b.Lineage[0].Wire = flipLast(b.Lineage[0].Wire)
		}, verdict: Lying, reason: "lineage link 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := resign(honest, agentID)
			tc.mutate(b)
			if !tc.unsign {
				b.Sign(agentID)
			}
			res, err := agree(t, warm, b)
			if tc.unsign {
				if !errors.Is(err, ErrUnverifiable) {
					t.Fatalf("err = %v, want ErrUnverifiable", err)
				}
				return
			}
			if err != nil || res.Verdict != tc.verdict || !strings.Contains(res.Reason, tc.reason) {
				t.Fatalf("(%+v, %v), want %v mentioning %q", res, err, tc.verdict, tc.reason)
			}
		})
	}
}

// TestVerifierWarmCostsNoSignatures: a second verification of the same
// bundle runs no evidence or key-update signature check, a bundle that grew
// by one wire runs one, and a forged wire among memoised ones is a miss
// every time it is presented — never a stored answer.
func TestVerifierWarmCostsNoSignatures(t *testing.T) {
	agentID := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 64})
	a := agentdir.NewWithStore(agentID, 0, st)
	defer a.Close()
	subject, r := ident(t).ID, ident(t)
	if err := a.RegisterKey(r.ID, r.Sign.Public); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		submit(t, a, r, subject, i%3 != 0)
	}
	reg := metrics.NewRegistry()
	v := NewVerifier(reg)
	verify := func(b *Bundle, want Verdict) int64 {
		t.Helper()
		before := sigMisses(reg)
		res, err := v.Verify(b)
		if err != nil || res.Verdict != want {
			t.Fatalf("(%+v, %v), want %v", res, err, want)
		}
		return sigMisses(reg) - before
	}
	b := Assemble(st, agentID, subject, st.WALEpoch())
	if got := verify(b, Matching); got != 20 {
		t.Fatalf("cold verify ran %d signature checks, want 20", got)
	}
	if got := verify(b, Matching); got != 0 {
		t.Fatalf("warm verify ran %d signature checks, want 0", got)
	}
	// A re-issued bundle (new epoch, new attestation) over the same evidence
	// is still warm: the attestation is checked directly, not through the memo.
	if got := verify(Assemble(st, agentID, subject, st.WALEpoch()+1), Matching); got != 0 {
		t.Fatalf("re-issued bundle ran %d signature checks, want 0", got)
	}
	submit(t, a, r, subject, true)
	grown := Assemble(st, agentID, subject, st.WALEpoch())
	if got := verify(grown, Matching); got != 1 {
		t.Fatalf("bundle grown by one wire ran %d signature checks, want 1", got)
	}
	forged := resign(grown, agentID)
	w := append([]byte(nil), forged.Evidence[7].Wire...)
	w[len(w)-1] ^= 1
	forged.Evidence[7].Wire = w
	forged.Sign(agentID)
	for i := 0; i < 3; i++ {
		if got := verify(forged, Lying); got != 1 {
			t.Fatalf("presentation %d of a forged wire ran %d signature checks, want 1", i+1, got)
		}
	}
	// An unauthenticated bundle is refused before any of its wires is looked at.
	stale := resign(grown, agentID)
	stale.Pos++
	hits := reg.Snapshot()["sig_memo_hits_total"]
	if _, err := v.Verify(stale); !errors.Is(err, ErrUnverifiable) {
		t.Fatalf("err = %v, want ErrUnverifiable", err)
	}
	if reg.Snapshot()["sig_memo_hits_total"] != hits {
		t.Fatal("unauthenticated bundle reached the memo")
	}
}
