package onion

import (
	"errors"
	"testing"

	"hirep/internal/pkc"
)

func ident(t testing.TB) *pkc.Identity {
	t.Helper()
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// buildChain creates an owner plus n relays and the onion over them.
func buildChain(t *testing.T, n int, seq uint64) (owner *pkc.Identity, relays []*pkc.Identity, o *Onion) {
	t.Helper()
	owner = ident(t)
	route := make([]Relay, n)
	relays = make([]*pkc.Identity, n)
	for i := 0; i < n; i++ {
		relays[i] = ident(t)
		route[i] = Relay{Addr: relays[i].ID.String(), AP: relays[i].Anon.Public}
	}
	o, err := Build(owner, "owner-addr", route, seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	return owner, relays, o
}

// traverse peels the onion along the relay chain and returns the addresses
// visited, ending at the owner's exit peel.
func traverse(t *testing.T, owner *pkc.Identity, relays []*pkc.Identity, o *Onion) []string {
	t.Helper()
	var visited []string
	blob := o.Blob
	addr := o.Entry
	for _, r := range relays {
		if addr != r.ID.String() {
			t.Fatalf("expected to be at relay %s, at %s", r.ID.Short(), addr)
		}
		res, err := Peel(r.Anon, blob)
		if err != nil {
			t.Fatalf("relay peel: %v", err)
		}
		if res.Exit {
			t.Fatal("relay saw exit marker — destination leaked")
		}
		visited = append(visited, addr)
		addr, blob = res.Next, res.Inner
	}
	if addr != "owner-addr" {
		t.Fatalf("final forward went to %q, want owner-addr", addr)
	}
	res, err := Peel(owner.Anon, blob)
	if err != nil {
		t.Fatalf("owner peel: %v", err)
	}
	if !res.Exit {
		t.Fatal("owner did not detect exit")
	}
	return visited
}

func TestOnionTraversal(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10} {
		owner, relays, o := buildChain(t, n, 7)
		visited := traverse(t, owner, relays, o)
		if len(visited) != n {
			t.Fatalf("%d relays visited, want %d", len(visited), n)
		}
	}
}

func TestOnionSignature(t *testing.T) {
	owner, _, o := buildChain(t, 3, 1)
	if err := o.VerifySig(owner.Sign.Public); err != nil {
		t.Fatalf("genuine onion rejected: %v", err)
	}
	stranger := ident(t)
	if err := o.VerifySig(stranger.Sign.Public); err == nil {
		t.Fatal("onion verified under wrong key")
	}
	o.Seq++
	if err := o.VerifySig(owner.Sign.Public); err == nil {
		t.Fatal("sequence tampering undetected")
	}
}

func TestOnionBlobTamper(t *testing.T) {
	owner, relays, o := buildChain(t, 2, 1)
	o.Blob[10] ^= 1
	if err := o.VerifySig(owner.Sign.Public); err == nil {
		t.Fatal("blob tampering passed signature check")
	}
	if _, err := Peel(relays[0].Anon, o.Blob); err == nil {
		t.Fatal("tampered layer peeled successfully")
	}
}

func TestPeelWrongKey(t *testing.T) {
	_, relays, o := buildChain(t, 2, 1)
	// Second relay cannot peel the outer layer.
	if _, err := Peel(relays[1].Anon, o.Blob); !errors.Is(err, ErrNotForUs) {
		t.Fatalf("wrong relay peeled outer layer: %v", err)
	}
}

func TestRelayCannotSeeDestination(t *testing.T) {
	// The relay adjacent to the owner gets a layer that looks like any relay
	// layer: Next is an address, Inner is ciphertext. It must not learn that
	// the next hop is the destination.
	owner, relays, o := buildChain(t, 1, 1)
	res, err := Peel(relays[0].Anon, o.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit {
		t.Fatal("adjacent relay learned it borders the destination")
	}
	if res.Next != "owner-addr" {
		t.Fatalf("next hop %q", res.Next)
	}
	// The inner blob must not be peelable by the relay.
	if _, err := Peel(relays[0].Anon, res.Inner); err == nil {
		t.Fatal("relay peeled the owner's layer")
	}
	// But the owner can.
	final, err := Peel(owner.Anon, res.Inner)
	if err != nil || !final.Exit {
		t.Fatalf("owner exit peel failed: %v exit=%v", err, final.Exit)
	}
}

func TestBuildValidation(t *testing.T) {
	owner := ident(t)
	if _, err := Build(owner, "a", nil, 0, nil); !errors.Is(err, ErrNoRelays) {
		t.Error("empty route accepted")
	}
	r := ident(t)
	if _, err := Build(owner, "", []Relay{{Addr: "x", AP: r.Anon.Public}}, 0, nil); err == nil {
		t.Error("empty owner address accepted")
	}
	if _, err := Build(owner, "a", []Relay{{Addr: "", AP: r.Anon.Public}}, 0, nil); err == nil {
		t.Error("hop without address accepted")
	}
	if _, err := Build(owner, "a", []Relay{{Addr: "x", AP: nil}}, 0, nil); err == nil {
		t.Error("hop without key accepted")
	}
}

func TestAgeTracker(t *testing.T) {
	owner, _, o1 := buildChain(t, 1, 5)
	tr := NewAgeTracker()
	if err := tr.Accept(owner.ID, o1); err != nil {
		t.Fatal(err)
	}
	// Same seq is allowed (non-decreasing).
	if err := tr.Accept(owner.ID, o1); err != nil {
		t.Fatalf("equal seq rejected: %v", err)
	}
	route := []Relay{{Addr: "r", AP: ident(t).Anon.Public}}
	newer, _ := Build(owner, "owner-addr", route, 9, nil)
	if err := tr.Accept(owner.ID, newer); err != nil {
		t.Fatalf("newer onion rejected: %v", err)
	}
	older, _ := Build(owner, "owner-addr", route, 3, nil)
	if err := tr.Accept(owner.ID, older); !errors.Is(err, ErrStaleOnion) {
		t.Fatalf("stale onion accepted: %v", err)
	}
	// Trackers are per-builder: another node's low seq is fine.
	other := ident(t)
	oOther, _ := Build(other, "other-addr", route, 0, nil)
	if err := tr.Accept(other.ID, oOther); err != nil {
		t.Fatalf("independent builder affected: %v", err)
	}
}

func TestPeelGarbage(t *testing.T) {
	id := ident(t)
	for _, blob := range [][]byte{nil, {}, []byte("short"), make([]byte, 200)} {
		if _, err := Peel(id.Anon, blob); err == nil {
			t.Fatalf("garbage blob of %d bytes peeled", len(blob))
		}
	}
}

func TestHandshakeFullExchange(t *testing.T) {
	p, k := ident(t), ident(t)
	// 1. P -> K
	reqWire := EncodeRelayRequest(RelayRequest{AP: p.Anon.Public, Addr: "p-addr"})
	req, err := DecodeRelayRequest(reqWire)
	if err != nil {
		t.Fatal(err)
	}
	if req.Addr != "p-addr" {
		t.Fatalf("request addr %q", req.Addr)
	}
	// 2. K -> P
	ans, err := AnswerRelayRequest(k, "k-addr", req, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := OpenRelayResponse(p, ans.Response)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Addr != "k-addr" || resp.Nonce != ans.Nonce {
		t.Fatal("response fields corrupted")
	}
	// 3. P -> K
	verify, err := BuildKeyVerify(p, "p-addr", resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	replays := pkc.NewReplayCache(16)
	confirm, err := VerifyAndConfirm(k, "k-addr", ans.Nonce, verify, replays, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4. K -> P
	if err := OpenConfirm(p, ans.Nonce, confirm); err != nil {
		t.Fatalf("confirmation rejected: %v", err)
	}
	// Replay of message 3 must now fail.
	if _, err := VerifyAndConfirm(k, "k-addr", ans.Nonce, verify, replays, nil); err == nil {
		t.Fatal("replayed key-verify accepted")
	}
}

func TestHandshakeMITMDetected(t *testing.T) {
	// A MITM intercepts message 2 and substitutes its own key. P builds its
	// verify under the MITM key; the MITM cannot produce a confirmation that
	// opens under P's expectations via the honest relay.
	p, k, mitm := ident(t), ident(t), ident(t)
	req := RelayRequest{AP: p.Anon.Public, Addr: "p-addr"}
	ans, _ := AnswerRelayRequest(k, "k-addr", req, nil)
	resp, _ := OpenRelayResponse(p, ans.Response)
	// MITM substitutes its key but cannot know the sealed nonce unless it
	// also re-seals message 2; emulate a full substitution:
	forged := RelayResponse{AP: mitm.Anon.Public, Addr: resp.Addr, Nonce: resp.Nonce}
	verify, _ := BuildKeyVerify(p, "p-addr", forged, nil)
	// Honest relay cannot open a verify sealed to the MITM key.
	if _, err := VerifyAndConfirm(k, "k-addr", ans.Nonce, verify, nil, nil); err == nil {
		t.Fatal("relay accepted verify sealed to MITM key")
	}
	// MITM can open it, but its confirmation is built over the forged
	// context; P's check still passes only if nonce and literal match — the
	// point of the handshake is that P's subsequent onion layers sealed to
	// the MITM key never reach the honest relay chain. Verify at least that
	// a confirmation from a third party with the wrong nonce is rejected.
	wrongNonce, _ := pkc.NewNonce(nil)
	conf, err := VerifyAndConfirm(mitm, "k-addr", wrongNonce, verify, nil, nil)
	if err == nil {
		if err := OpenConfirm(p, resp.Nonce, conf); err == nil {
			t.Fatal("confirmation with mismatched nonce accepted")
		}
	}
}

func TestHandshakeDecodeErrors(t *testing.T) {
	if _, err := DecodeRelayRequest([]byte{}); err == nil {
		t.Error("empty request decoded")
	}
	if _, err := DecodeRelayRequest([]byte{tagRelayResponse, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("wrong tag decoded")
	}
	p := ident(t)
	if _, err := OpenRelayResponse(p, []byte("garbage")); err == nil {
		t.Error("garbage response opened")
	}
	if err := OpenConfirm(p, pkc.Nonce{}, []byte("garbage")); err == nil {
		t.Error("garbage confirm opened")
	}
}

func TestOnionSizeGrowsPerHop(t *testing.T) {
	_, _, o1 := buildChain(t, 1, 0)
	_, _, o5 := buildChain(t, 5, 0)
	if len(o5.Blob) <= len(o1.Blob) {
		t.Fatal("onion size should grow with route length")
	}
}
