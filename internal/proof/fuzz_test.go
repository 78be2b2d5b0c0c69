package proof

import (
	"bytes"
	"testing"

	"hirep/internal/metrics"
	"hirep/internal/pkc"
)

// fuzzIdent derives a deterministic identity for seed corpora (fuzz seeds
// must be stable across runs).
func fuzzIdent(tb testing.TB, b byte) *pkc.Identity {
	tb.Helper()
	// Oversized on purpose: key generation may reject candidates and read on.
	seed := bytes.Repeat([]byte{b, b ^ 0x5a, ^b}, 512)
	id, err := pkc.NewIdentity(bytes.NewReader(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return id
}

// FuzzDecodeProofBundle is the bundle codec contract: DecodeBundle either
// rejects the input or accepts it into a bundle whose re-encoding is
// byte-identical — the canonical form caches deduplicate by. Every bundle it
// accepts is also verified three ways — plain Verify, a Verifier new to it,
// and one that has seen the whole corpus so far — which must agree on Result
// and error.
func FuzzDecodeProofBundle(f *testing.F) {
	agent := fuzzIdent(f, 1)
	reporter := fuzzIdent(f, 2)
	subject := fuzzIdent(f, 3).ID

	empty := &Bundle{Subject: subject, Epoch: 7}
	empty.Sign(agent)
	f.Add(empty.Encode())

	var nn pkc.Nonce
	wireBytes := make([]byte, 0, 101)
	wireBytes = append(wireBytes, subject[:]...)
	wireBytes = append(wireBytes, 1)
	wireBytes = append(wireBytes, nn[:]...)
	wireBytes = append(wireBytes, reporter.SignMessage(wireBytes)...)
	// A structurally valid lineage entry; the certificate bytes need not
	// verify for codec fuzzing, only round-trip.
	rotated, updWire, err := reporter.Rotate(bytes.NewReader(bytes.Repeat([]byte{0x77, 0x2d, 0x88}, 1024)))
	if err != nil {
		f.Fatal(err)
	}
	full := &Bundle{
		Subject: subject, Pos: 1, Epoch: 9, Partial: true,
		Evidence: []Evidence{{Reporter: reporter.ID, SP: reporter.Sign.Public, Wire: wireBytes}},
		Lineage: []LineageLink{{
			Old: reporter.ID, New: rotated.ID,
			OldSP: reporter.Sign.Public, Wire: updWire,
		}},
	}
	full.Sign(agent)
	f.Add(full.Encode())
	// The same bundle with its wire forged: Lying, with the lineage memoised.
	forged := *full
	forged.Evidence = []Evidence{full.Evidence[0]}
	forged.Evidence[0].Wire = append([]byte(nil), wireBytes...)
	forged.Evidence[0].Wire[len(wireBytes)-1] ^= 1
	forged.Sign(agent)
	f.Add(forged.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	warm := NewVerifier(metrics.NewRegistry())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			return
		}
		if !bytes.Equal(b.Encode(), data) {
			t.Fatalf("accepted non-canonical bundle encoding: %x", data)
		}
		agree(t, warm, b)
	})
}

// FuzzDecodeTrustSnapshot holds the same canonical-form contract for the
// snapshot codec.
func FuzzDecodeTrustSnapshot(f *testing.F) {
	agent := fuzzIdent(f, 4)
	subject := fuzzIdent(f, 5).ID
	ts := NewTrustSnapshot(agent, subject, 3, 1, 2, 1234)
	f.Add(ts.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xaa}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := DecodeTrustSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(ts.Encode(), data) {
			t.Fatalf("accepted non-canonical snapshot encoding: %x", data)
		}
	})
}
