package proof

import (
	"testing"

	"hirep/internal/agentdir"
	"hirep/internal/metrics"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
)

// benchEvidence is the evidence-log depth the serving benchmarks run at — a
// subject at the default retention cap hirepnode documents (-evidence 256).
const benchEvidence = 256

// benchStore builds an agent store holding one subject with benchEvidence
// retained signed wires. Signing happens here, once: the benchmarks measure
// assembly and verification, not ed25519 key generation.
func benchStore(b *testing.B) (*repstore.Store, *pkc.Identity, pkc.NodeID) {
	b.Helper()
	agentID, err := pkc.NewIdentity(nil)
	if err != nil {
		b.Fatal(err)
	}
	st, _ := repstore.Open("", repstore.Options{EvidenceCap: benchEvidence})
	a := agentdir.NewWithStore(agentID, 0, st)
	reporters := make([]*pkc.Identity, 8)
	for i := range reporters {
		r, err := pkc.NewIdentity(nil)
		if err != nil {
			b.Fatal(err)
		}
		reporters[i] = r
		if err := a.RegisterKey(r.ID, r.Sign.Public); err != nil {
			b.Fatal(err)
		}
	}
	subject, err := pkc.NewIdentity(nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchEvidence; i++ {
		n, err := pkc.NewNonce(nil)
		if err != nil {
			b.Fatal(err)
		}
		r := reporters[i%len(reporters)]
		w := agentdir.SignReport(r, subject.ID, i%4 != 0, n)
		if _, err := a.SubmitReport(r.ID, w); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() { a.Close() })
	return st, agentID, subject.ID
}

// BenchmarkProofAssemble measures the agent-side serving cost of one proof
// bundle: evidence copy-out under the shard lock, lineage filtering, one
// sha256 over the evidence, one ed25519 signature.
func BenchmarkProofAssemble(b *testing.B) {
	st, agentID, subject := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle := Assemble(st, agentID, subject, 1)
		if bundle.Pos+bundle.Neg != benchEvidence {
			b.Fatal("short bundle")
		}
	}
}

// BenchmarkProofVerify measures the querier-side cost — the price of not
// trusting the agent — three ways. plain is Verify: one attestation check
// plus, per evidence entry, a sha1 binding, an ed25519 verify, and the tally
// recomputation. cold is a Verifier that has seen none of the bundle: the
// same work plus a sha256 and a memo insert per wire — what a miss costs.
// warm is a Verifier that has seen all of it: the ed25519 verifies become
// sha256 lookups, everything else still runs. verify.sh gates warm at no
// more than a tenth of cold.
func BenchmarkProofVerify(b *testing.B) {
	st, agentID, subject := benchStore(b)
	bundle := Assemble(st, agentID, subject, 1)
	run := func(b *testing.B, verify func() (Result, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := verify()
			if err != nil || res.Verdict != Matching {
				b.Fatalf("verdict %v err %v", res.Verdict, err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) {
		run(b, func() (Result, error) { return Verify(bundle) })
	})
	b.Run("cold", func(b *testing.B) {
		reg := metrics.NewRegistry()
		run(b, func() (Result, error) { return NewVerifier(reg).Verify(bundle) })
	})
	b.Run("warm", func(b *testing.B) {
		v := NewVerifier(metrics.NewRegistry())
		if _, err := v.Verify(bundle); err != nil {
			b.Fatal(err)
		}
		run(b, func() (Result, error) { return v.Verify(bundle) })
	})
}
