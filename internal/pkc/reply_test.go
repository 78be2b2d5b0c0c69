package pkc

import (
	"bytes"
	"crypto/ecdh"
	"crypto/sha256"
	"testing"
)

// sealedRequest seals msg to id and opens it there, returning both ends'
// reply keys.
func sealedRequest(t *testing.T, id *Identity, msg []byte) (box []byte, asker, answerer ReplyKey) {
	t.Helper()
	box, asker, err := SealRequest(id.Anon.Public, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, answerer, err := id.Anon.OpenRequest(box)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("OpenRequest: %q, %v", got, err)
	}
	return box, asker, answerer
}

func TestRequestReplyRoundTrip(t *testing.T) {
	agent := mustIdentity(t)
	reqBox, asker, answerer := sealedRequest(t, agent, []byte("what do you make of subject 7?"))
	if asker != answerer {
		t.Fatal("the two ends of one sealed request derived different reply keys")
	}
	if plain, err := agent.Anon.Open(reqBox); err != nil || string(plain) != "what do you make of subject 7?" {
		t.Fatalf("a request box is a Seal box, but Open says %q, %v", plain, err)
	}
	for _, msg := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("trust"), 100)} {
		box, err := answerer.Seal(msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(box) != len(msg)+replyOverhead {
			t.Fatalf("reply box for %d bytes is %d long, want %d", len(msg), len(box), len(msg)+replyOverhead)
		}
		if h, ok := ReplyHandleOf(box); !ok || h != asker.Handle() {
			t.Fatal("reply box does not lead with the handle the asker holds")
		}
		got, err := asker.Open(box)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("reply round trip of %d bytes: %q, %v", len(msg), got, err)
		}
	}
	if _, ok := ReplyHandleOf(make([]byte, replyOverhead-1)); ok {
		t.Fatal("a box too short to hold a tag has a handle")
	}
}

// TestReplyKeyDomainSeparation: the request key and the reply key come from
// one secret and must not open each other's boxes, in either direction and
// under either reading of the bytes.
func TestReplyKeyDomainSeparation(t *testing.T) {
	agent := mustIdentity(t)
	reqBox, asker, answerer := sealedRequest(t, agent, []byte("request"))
	replyBox, err := answerer.Seal([]byte("reply"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asker.Open(reqBox); err == nil {
		t.Fatal("a request box opened under the reply key")
	}
	if _, err := agent.Anon.Open(replyBox); err == nil {
		t.Fatal("a reply box opened under the request key")
	}
	// The same, with the framing out of the way: the request's AEAD key
	// against the reply's ciphertext.
	requestKeyed := asker
	_, shared, err := agent.Anon.openShared(reqBox)
	if err != nil {
		t.Fatal(err)
	}
	requestKeyed.key = sha256.Sum256(shared)
	if _, err := requestKeyed.Open(replyBox); err == nil {
		t.Fatal("the request key opens a reply box: the two keys are not separated")
	}
	if asker.key == requestKeyed.key || bytes.Contains(reqBox, asker.handle[:]) {
		t.Fatal("reply key or handle is readable off the request")
	}
}

// TestReplyKeyPerRequestAndRecipient: a reply opens only under the key of
// the request it answers — not another request's to the same agent, and not
// what a different recipient derives.
func TestReplyKeyPerRequestAndRecipient(t *testing.T) {
	agent, other := mustIdentity(t), mustIdentity(t)
	reqBox, asker, answerer := sealedRequest(t, agent, []byte("q"))
	_, asker2, _ := sealedRequest(t, agent, []byte("q"))
	if asker == asker2 || asker.Handle() == asker2.Handle() {
		t.Fatal("two requests share a reply key or handle")
	}
	box, err := answerer.Seal([]byte("a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asker2.Open(box); err == nil {
		t.Fatal("a reply opened under another request's key")
	}
	if _, _, err := other.Anon.OpenRequest(reqBox); err == nil {
		t.Fatal("a different recipient opened the request")
	}
	// What the other recipient derives from the same ephemeral key: a
	// different secret, so a different reply key and handle.
	ephPub, err := ecdh.X25519().NewPublicKey(reqBox[:sealEphLen])
	if err != nil {
		t.Fatal(err)
	}
	otherShared, err := other.Anon.private.ECDH(ephPub)
	if err != nil {
		t.Fatal(err)
	}
	derived := deriveReplyKey(otherShared, reqBox[:sealEphLen])
	if derived.Handle() == asker.Handle() {
		t.Fatal("a different recipient derived the request's reply handle")
	}
	if _, err := derived.Open(box); err == nil {
		t.Fatal("a reply opened under a different recipient's derivation")
	}
}

func TestReplyOpenTamperDetection(t *testing.T) {
	agent := mustIdentity(t)
	_, asker, answerer := sealedRequest(t, agent, nil)
	box, err := answerer.Seal([]byte("authentic answer"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(box); bit++ {
		mutated := append([]byte(nil), box...)
		mutated[bit/8] ^= 1 << (bit % 8)
		if _, err := asker.Open(mutated); err == nil {
			t.Fatalf("bit %d of byte %d flipped and the reply still opened", bit%8, bit/8)
		}
	}
	for n := 0; n < len(box); n++ {
		if _, err := asker.Open(box[:n]); err == nil {
			t.Fatalf("reply truncated to %d bytes opened", n)
		}
	}
}

// TestReplyNoncesDistinct: a replayed request makes the agent answer twice
// under one key, so the reply nonce must not repeat.
func TestReplyNoncesDistinct(t *testing.T) {
	agent := mustIdentity(t)
	_, asker, answerer := sealedRequest(t, agent, nil)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		box, err := answerer.Seal([]byte("same answer"), nil)
		if err != nil {
			t.Fatal(err)
		}
		nonce := string(box[ReplyHandleSize : ReplyHandleSize+sealNonceLen])
		if seen[nonce] {
			t.Fatal("two replies under one key share a GCM nonce")
		}
		seen[nonce] = true
		if _, err := asker.Open(box); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkExchangeSeal prices the two boxes of one sealed exchange, each
// sealed and opened once: the request pays for the X25519 agreement on both
// ends, the reply rides on it.
func BenchmarkExchangeSeal(b *testing.B) {
	agent, err := NewIdentity(nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.Run("request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			box, _, err := SealRequest(agent.Anon.Public, msg, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := agent.Anon.OpenRequest(box); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reply", func(b *testing.B) {
		_, key, err := SealRequest(agent.Anon.Public, msg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			box, err := key.Seal(msg, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := key.Open(box); err != nil {
				b.Fatal(err)
			}
		}
	})
}
