package pkc

import (
	"bytes"
	"crypto/ed25519"
	"strings"
	"testing"
	"testing/quick"
)

func mustIdentity(t *testing.T) *Identity {
	t.Helper()
	id, err := NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestNodeIDDerivation(t *testing.T) {
	id := mustIdentity(t)
	if !VerifyBinding(id.ID, id.Sign.Public) {
		t.Fatal("identity's own binding fails")
	}
	other := mustIdentity(t)
	if VerifyBinding(id.ID, other.Sign.Public) {
		t.Fatal("foreign key accepted for nodeID — MITM substitution possible")
	}
}

func TestNodeIDStringRoundTrip(t *testing.T) {
	id := mustIdentity(t)
	parsed, err := ParseNodeID(id.ID.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != id.ID {
		t.Fatal("ParseNodeID(String()) mismatch")
	}
}

func TestParseNodeIDErrors(t *testing.T) {
	if _, err := ParseNodeID("zz"); err == nil {
		t.Error("non-hex accepted")
	}
	if _, err := ParseNodeID("abcd"); err == nil {
		t.Error("short hex accepted")
	}
	if _, err := ParseNodeID(strings.Repeat("ab", 21)); err == nil {
		t.Error("long hex accepted")
	}
}

func TestNodeIDZero(t *testing.T) {
	var z NodeID
	if !z.IsZero() {
		t.Error("zero ID not zero")
	}
	if mustIdentity(t).ID.IsZero() {
		t.Error("real ID reported zero")
	}
	if len(z.Short()) != 8 {
		t.Error("Short should be 8 hex chars")
	}
}

func TestSignVerify(t *testing.T) {
	id := mustIdentity(t)
	msg := []byte("transaction result: success")
	sig := id.SignMessage(msg)
	if !Verify(id.Sign.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(id.Sign.Public, []byte("tampered"), sig) {
		t.Fatal("signature valid for different message")
	}
	other := mustIdentity(t)
	if Verify(other.Sign.Public, msg, sig) {
		t.Fatal("signature valid under wrong key — spoofing possible")
	}
}

func TestVerifyMalformedKey(t *testing.T) {
	if Verify(ed25519.PublicKey([]byte("short")), []byte("m"), []byte("s")) {
		t.Fatal("malformed key verified")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	id := mustIdentity(t)
	for _, msg := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("onion"), 100)} {
		box, err := Seal(id.Anon.Public, msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := id.Anon.Open(box)
		if err != nil {
			t.Fatalf("Open failed for %d-byte msg: %v", len(msg), err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip mismatch: %q != %q", got, msg)
		}
	}
}

func TestSealWrongRecipient(t *testing.T) {
	alice, bob := mustIdentity(t), mustIdentity(t)
	box, err := Seal(alice.Anon.Public, []byte("for alice only"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Anon.Open(box); err == nil {
		t.Fatal("bob opened alice's box — onion layer not confidential")
	}
}

func TestOpenTamperDetection(t *testing.T) {
	id := mustIdentity(t)
	box, err := Seal(id.Anon.Public, []byte("authentic"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 31, 40, len(box) - 1} {
		mutated := append([]byte(nil), box...)
		mutated[i] ^= 0x40
		if _, err := id.Anon.Open(mutated); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestOpenTruncated(t *testing.T) {
	id := mustIdentity(t)
	box, _ := Seal(id.Anon.Public, []byte("data"), nil)
	for _, n := range []int{0, 10, 31, 43} {
		if _, err := id.Anon.Open(box[:n]); err == nil {
			t.Fatalf("truncated box of %d bytes accepted", n)
		}
	}
}

func TestSealOverheadConstant(t *testing.T) {
	id := mustIdentity(t)
	oh := SealOverhead()
	for _, n := range []int{0, 1, 100, 4096} {
		box, err := Seal(id.Anon.Public, make([]byte, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(box) != n+oh {
			t.Fatalf("overhead for %d-byte msg: %d, want %d", n, len(box)-n, oh)
		}
	}
}

// TestSealGeometryMatchesAEAD pins the box-geometry constants to what the
// AEAD Seal and Open actually run reports.
func TestSealGeometryMatchesAEAD(t *testing.T) {
	aead, err := newAEAD([32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if aead.NonceSize() != sealNonceLen || aead.Overhead() != sealTagLen {
		t.Fatalf("AEAD nonce/tag = %d/%d, constants say %d/%d",
			aead.NonceSize(), aead.Overhead(), sealNonceLen, sealTagLen)
	}
	id := mustIdentity(t)
	if n := len(id.Anon.Public.Bytes()); n != sealEphLen {
		t.Fatalf("X25519 public key is %d bytes, constant says %d", n, sealEphLen)
	}
}

func TestSealNilKey(t *testing.T) {
	if _, err := Seal(nil, []byte("x"), nil); err == nil {
		t.Fatal("Seal with nil key accepted")
	}
	var kp AnonKeyPair
	if _, err := kp.Open([]byte("xxxx")); err == nil {
		t.Fatal("Open with zero key pair accepted")
	}
}

func TestSealPropertyRoundTrip(t *testing.T) {
	id := mustIdentity(t)
	f := func(msg []byte) bool {
		box, err := Seal(id.Anon.Public, msg, nil)
		if err != nil {
			return false
		}
		got, err := id.Anon.Open(box)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNonceUniqueness(t *testing.T) {
	seen := map[Nonce]bool{}
	for i := 0; i < 1000; i++ {
		n, err := NewNonce(nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[n] {
			t.Fatal("duplicate nonce from crypto source")
		}
		seen[n] = true
	}
}

func TestReplayCacheDetectsReplay(t *testing.T) {
	c := NewReplayCache(100)
	n, _ := NewNonce(nil)
	if !c.Observe(n) {
		t.Fatal("fresh nonce rejected")
	}
	if c.Observe(n) {
		t.Fatal("replayed nonce accepted")
	}
}

func TestReplayCacheEviction(t *testing.T) {
	c := NewReplayCache(4)
	var ns []Nonce
	for i := 0; i < 10; i++ {
		n, _ := NewNonce(nil)
		ns = append(ns, n)
		c.Observe(n)
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, cap 4", c.Len())
	}
	// Oldest must have been evicted: re-observing it reports fresh.
	if !c.Observe(ns[0]) {
		t.Fatal("evicted nonce still remembered")
	}
	// Newest must still be remembered.
	if c.Observe(ns[9]) {
		t.Fatal("recent nonce forgotten")
	}
}

func TestReplayCacheConcurrent(t *testing.T) {
	c := NewReplayCache(1024)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				n, _ := NewNonce(nil)
				c.Observe(n)
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Len() > 1024 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

func TestReplayCacheRefreshOnReplay(t *testing.T) {
	// A replay attempt refreshes the nonce's recency: an attacker replaying
	// a stolen message cannot simply wait for the nonce to age out of a FIFO
	// window, because each attempt pushes it back to the front of the queue.
	c := NewReplayCache(4)
	var ns []Nonce
	for i := 0; i < 4; i++ {
		n, _ := NewNonce(nil)
		ns = append(ns, n)
		c.Observe(n)
	}
	if c.Observe(ns[0]) {
		t.Fatal("replayed nonce accepted")
	}
	// Three fresh nonces overflow the cache three times. The eviction order
	// must be ns[1], ns[2], ns[3] — ns[0] was re-observed most recently.
	for i := 0; i < 3; i++ {
		n, _ := NewNonce(nil)
		if !c.Observe(n) {
			t.Fatal("fresh nonce rejected")
		}
	}
	if c.Observe(ns[0]) {
		t.Fatal("recently-replayed nonce was evicted ahead of older ones")
	}
	if !c.Observe(ns[1]) {
		t.Fatal("least-recently-observed nonce survived eviction")
	}
}

func TestReplayCacheDupFloodBounded(t *testing.T) {
	// Replaying the same nonce forever must not grow memory: stranded queue
	// entries are swept, keeping the queue O(cap).
	c := NewReplayCache(8)
	n, _ := NewNonce(nil)
	c.Observe(n)
	for i := 0; i < 10_000; i++ {
		if c.Observe(n) {
			t.Fatal("replay accepted")
		}
		if live := len(c.order) - c.head; live > 2*c.cap {
			t.Fatalf("queue grew to %d live entries (cap %d)", live, c.cap)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d nonces, want 1", c.Len())
	}
}

func TestReplayCacheForget(t *testing.T) {
	// Forget returns a nonce to circulation: the pattern is Observe, fail to
	// commit the guarded message downstream, Forget, and the legitimate
	// retry must then be admitted as fresh.
	c := NewReplayCache(4)
	n, _ := NewNonce(nil)
	if !c.Observe(n) {
		t.Fatal("fresh nonce rejected")
	}
	c.Forget(n)
	if c.Len() != 0 {
		t.Fatalf("cache holds %d nonces after Forget, want 0", c.Len())
	}
	if !c.Observe(n) {
		t.Fatal("forgotten nonce still rejected")
	}
	if c.Observe(n) {
		t.Fatal("re-observed nonce accepted twice")
	}
	// Forgetting an absent nonce is a no-op, and the stranded queue entry
	// left by Forget must not confuse eviction accounting at overflow.
	c.Forget(Nonce{0xAA})
	for i := 0; i < 10; i++ {
		f, _ := NewNonce(nil)
		c.Observe(f)
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries after overflow, cap 4", c.Len())
	}
}

func TestReplayCacheMinimumCapacity(t *testing.T) {
	c := NewReplayCache(0)
	n1, _ := NewNonce(nil)
	n2, _ := NewNonce(nil)
	if !c.Observe(n1) || !c.Observe(n2) {
		t.Fatal("cap-1 cache should admit successive fresh nonces")
	}
}

func TestIdentityKeysDistinct(t *testing.T) {
	a, b := mustIdentity(t), mustIdentity(t)
	if a.ID == b.ID {
		t.Fatal("two identities share a nodeID")
	}
	if bytes.Equal(a.Sign.Public, b.Sign.Public) {
		t.Fatal("two identities share SP")
	}
}
