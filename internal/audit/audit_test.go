package audit

import (
	"bytes"
	"errors"
	"testing"

	"hirep/internal/agentdir"
	"hirep/internal/metrics"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/repstore"
)

func newVerifier() *proof.Verifier { return proof.NewVerifier(metrics.NewRegistry()) }

func ident(t testing.TB) *pkc.Identity {
	t.Helper()
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func nonce(t testing.TB) pkc.Nonce {
	t.Helper()
	n, err := pkc.NewNonce(nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// lyingBundle builds a bundle whose published tally disagrees with its own
// evidence — the provable lie the advisory format exists to carry. The agent
// signature is valid; the content is the lie.
func lyingBundle(t testing.TB) (*proof.Bundle, *pkc.Identity) {
	t.Helper()
	agent := ident(t)
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: 64})
	a := agentdir.NewWithStore(agent, 0, st)
	t.Cleanup(func() { a.Close() })
	subject := ident(t).ID
	reporter := ident(t)
	if err := a.RegisterKey(reporter.ID, reporter.Sign.Public); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w := agentdir.SignReport(reporter, subject, i%2 == 0, nonce(t))
		if _, err := a.SubmitReport(reporter.ID, w); err != nil {
			t.Fatal(err)
		}
	}
	b := proof.AssembleUnsigned(st, subject, st.WALEpoch())
	b.Pos += 2
	b.Sign(agent)
	res, err := proof.Verify(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != proof.Lying {
		t.Fatalf("tampered bundle verdict %v, want Lying", res.Verdict)
	}
	return b, agent
}

// matchingBundle builds an honest (empty) signed bundle: verifies Matching.
func matchingBundle(t testing.TB) (*proof.Bundle, *pkc.Identity) {
	t.Helper()
	agent := ident(t)
	b := &proof.Bundle{Subject: ident(t).ID, Epoch: 3}
	b.Sign(agent)
	return b, agent
}

func signedAdvisory(t testing.TB) (*Advisory, *pkc.Identity, *pkc.Identity) {
	t.Helper()
	b, agent := lyingBundle(t)
	auditor := ident(t)
	adv := &Advisory{
		Accused: b.AgentID(),
		Reason:  "tally mismatch",
		Issued:  1234,
		Bundle:  b.Encode(),
		Suspects: []SuspectReporter{
			{Reporter: ident(t).ID, Negative: 9, Total: 10},
		},
	}
	adv.Sign(auditor)
	return adv, agent, auditor
}

func TestAdvisoryRoundTrip(t *testing.T) {
	adv, agent, auditor := signedAdvisory(t)
	if adv.AuditorID() != auditor.ID {
		t.Fatal("AuditorID mismatch")
	}

	b, res, err := adv.Verify(newVerifier())
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Verdict != proof.Lying {
		t.Fatalf("receiver re-derived verdict %v, want Lying", res.Verdict)
	}
	if b.AgentID() != agent.ID {
		t.Fatal("embedded bundle convicts wrong agent")
	}

	enc := adv.Encode()
	dec, err := DecodeAdvisory(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("advisory encoding not canonical")
	}
	if dec.Digest() != adv.Digest() {
		t.Fatal("digest not stable across decode")
	}
	if _, _, err := dec.Verify(newVerifier()); err != nil {
		t.Fatalf("decoded advisory fails Verify: %v", err)
	}
	if len(dec.Suspects) != 1 || dec.Suspects[0].Skew() != 0.9 {
		t.Fatalf("suspect metadata lost: %+v", dec.Suspects)
	}
}

// TestAdvisoryFraming: each way an advisory can fail to prove its accusation
// maps to the right typed error, and none of them verify — the framing
// resistance contract (nobody can convict an agent without a provable lie).
func TestAdvisoryFraming(t *testing.T) {
	auditor := ident(t)

	t.Run("unsigned", func(t *testing.T) {
		b, _ := lyingBundle(t)
		adv := &Advisory{Accused: b.AgentID(), Bundle: b.Encode()}
		if _, _, err := adv.Verify(newVerifier()); !errors.Is(err, ErrUnsigned) {
			t.Fatalf("err %v, want ErrUnsigned", err)
		}
	})

	t.Run("tampered-after-signing", func(t *testing.T) {
		adv, _, _ := signedAdvisory(t)
		adv.Reason = "edited accusation"
		if _, _, err := adv.Verify(newVerifier()); !errors.Is(err, ErrUnsigned) {
			t.Fatalf("err %v, want ErrUnsigned", err)
		}
	})

	t.Run("bare-accusation", func(t *testing.T) {
		adv := &Advisory{Accused: ident(t).ID, Bundle: []byte("not a bundle")}
		adv.Sign(auditor)
		if _, _, err := adv.Verify(newVerifier()); !errors.Is(err, ErrNoEvidence) {
			t.Fatalf("err %v, want ErrNoEvidence", err)
		}
	})

	t.Run("exonerating-bundle", func(t *testing.T) {
		b, agent := matchingBundle(t)
		adv := &Advisory{Accused: agent.ID, Bundle: b.Encode()}
		adv.Sign(auditor)
		if _, _, err := adv.Verify(newVerifier()); !errors.Is(err, ErrNotLying) {
			t.Fatalf("err %v, want ErrNotLying", err)
		}
	})

	t.Run("wrong-accused", func(t *testing.T) {
		b, _ := lyingBundle(t)
		framed := ident(t).ID // innocent bystander named in the accusation
		adv := &Advisory{Accused: framed, Bundle: b.Encode()}
		adv.Sign(auditor)
		if _, _, err := adv.Verify(newVerifier()); !errors.Is(err, ErrWrongAccused) {
			t.Fatalf("err %v, want ErrWrongAccused", err)
		}
	})
}

func TestDecodeAdvisoryBounds(t *testing.T) {
	adv, _, _ := signedAdvisory(t)

	long := make([]byte, maxReasonLen+1)
	for i := range long {
		long[i] = 'x'
	}
	adv.Reason = string(long)
	if _, err := DecodeAdvisory(adv.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized reason: err %v, want ErrCorrupt", err)
	}

	adv, _, _ = signedAdvisory(t)
	adv.Suspects = make([]SuspectReporter, maxSuspects+1)
	if _, err := DecodeAdvisory(adv.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized suspect list: err %v, want ErrCorrupt", err)
	}

	adv, _, _ = signedAdvisory(t)
	if _, err := DecodeAdvisory(append(adv.Encode(), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: err %v, want ErrCorrupt", err)
	}
	if _, err := DecodeAdvisory(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSkewTable(t *testing.T) {
	tbl := NewSkewTable()
	slanderer := ident(t).ID
	honest := ident(t).ID
	quiet := ident(t).ID

	for i := 0; i < 10; i++ {
		tbl.Observe(slanderer, i == 0) // 9/10 negative
	}
	tbl.Add(honest, 2, 20) // 0.1 skew, bulk path
	tbl.Observe(quiet, false)

	sus := tbl.Suspects(8, 0.9)
	if len(sus) != 1 || sus[0].Reporter != slanderer {
		t.Fatalf("suspects %+v, want just the slanderer", sus)
	}
	if sus[0].Negative != 9 || sus[0].Total != 10 {
		t.Fatalf("tally %d/%d, want 9/10", sus[0].Negative, sus[0].Total)
	}
	// quiet is 100% negative but below the volume floor; honest is below skew.
	if got := tbl.Suspects(1, 0.95); len(got) != 1 || got[0].Reporter != quiet {
		t.Fatalf("volume floor off: %+v", got)
	}
}

func TestSkewTableObserveBundle(t *testing.T) {
	b, _ := lyingBundle(t) // evidence: 2 positive, 2 negative from one reporter
	tbl := NewSkewTable()
	tbl.ObserveBundle(b)
	sus := tbl.Suspects(1, 0.5)
	if len(sus) != 1 || sus[0].Total != 4 || sus[0].Negative != 2 {
		t.Fatalf("bundle fold: %+v, want one reporter at 2/4", sus)
	}
}
