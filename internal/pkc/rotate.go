package pkc

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
)

// This file implements the key-update mechanism of §3.5: "This assumption
// [uncrackable keys] can be loosed by allowing peers to update their public
// key pair periodically. New public keys signed by current private key can be
// sent out ... It is also easy for a peer who receives the update message to
// map and replace an old nodeid to a new nodeid."
//
// A KeyUpdate binds a successor identity to a predecessor: it carries the
// new signature and anonymity public keys and is signed with the OLD private
// key, so only the holder of the old identity can issue it. Receivers remap
// state (public-key lists, report tallies, expertise) from the old nodeID to
// the new one.

// ErrBadUpdate marks an invalid or forged key update.
var ErrBadUpdate = errors.New("pkc: invalid key update")

var keyUpdateMagic = []byte("hirep/key-update/v1")

// KeyUpdate is a verified identity succession.
type KeyUpdate struct {
	OldID NodeID
	NewID NodeID
	NewSP ed25519.PublicKey
	NewAP []byte // X25519 public key bytes of the new anonymity key
}

// Rotate derives a fresh identity and the signed update message announcing
// it. The old identity remains usable until peers have applied the update.
func (id *Identity) Rotate(r io.Reader) (*Identity, []byte, error) {
	next, err := NewIdentity(r)
	if err != nil {
		return nil, nil, err
	}
	body := encodeKeyUpdate(id.ID, next.Sign.Public, next.Anon.Public.Bytes())
	sig := id.SignMessage(body)
	wire := make([]byte, 0, len(body)+len(sig))
	wire = append(wire, body...)
	wire = append(wire, sig...)
	return next, wire, nil
}

func encodeKeyUpdate(oldID NodeID, newSP ed25519.PublicKey, newAP []byte) []byte {
	out := make([]byte, 0, len(keyUpdateMagic)+NodeIDSize+len(newSP)+1+len(newAP))
	out = append(out, keyUpdateMagic...)
	out = append(out, oldID[:]...)
	out = append(out, newSP...)
	out = append(out, byte(len(newAP)))
	return append(out, newAP...)
}

// PeekKeyUpdateOldID extracts the claimed predecessor nodeID from a key
// update's fixed-layout prefix WITHOUT verifying anything; callers use it to
// look up the predecessor's key, then call VerifyKeyUpdate.
func PeekKeyUpdateOldID(wire []byte) (NodeID, error) {
	var id NodeID
	if len(wire) < len(keyUpdateMagic)+NodeIDSize {
		return id, ErrBadUpdate
	}
	for i := range keyUpdateMagic {
		if wire[i] != keyUpdateMagic[i] {
			return id, ErrBadUpdate
		}
	}
	copy(id[:], wire[len(keyUpdateMagic):])
	return id, nil
}

// ParseKeyUpdate splits a key-update message into the succession it claims
// and the (body, sig) pair the predecessor's key must have signed, WITHOUT
// verifying anything: VerifyKeyUpdate is the checked entry point, and a caller
// that checks the signature by other means (proof's memoising verifier) must
// also check that the signing key hashes to OldID. body and sig alias wire.
func ParseKeyUpdate(wire []byte) (upd KeyUpdate, body, sig []byte, err error) {
	minLen := len(keyUpdateMagic) + NodeIDSize + ed25519.PublicKeySize + 1
	if len(wire) < minLen+ed25519.SignatureSize {
		return KeyUpdate{}, nil, nil, ErrBadUpdate
	}
	// Parse from the front to find the AP length, then split signature.
	p := len(keyUpdateMagic)
	for i := range keyUpdateMagic {
		if wire[i] != keyUpdateMagic[i] {
			return KeyUpdate{}, nil, nil, ErrBadUpdate
		}
	}
	copy(upd.OldID[:], wire[p:])
	p += NodeIDSize
	newSP := ed25519.PublicKey(wire[p : p+ed25519.PublicKeySize])
	p += ed25519.PublicKeySize
	apLen := int(wire[p])
	p++
	if len(wire) != p+apLen+ed25519.SignatureSize {
		return KeyUpdate{}, nil, nil, ErrBadUpdate
	}
	upd.NewID = DeriveNodeID(newSP)
	upd.NewSP = append(ed25519.PublicKey(nil), newSP...)
	upd.NewAP = append([]byte(nil), wire[p:p+apLen]...)
	return upd, wire[:p+apLen], wire[p+apLen:], nil
}

// VerifyKeyUpdate checks a key-update message against the predecessor's
// known signature public key (oldSP) and returns the parsed succession. The
// caller must already hold oldSP for the claimed old nodeID — exactly the
// state an agent's public-key list provides.
func VerifyKeyUpdate(oldSP ed25519.PublicKey, wire []byte) (KeyUpdate, error) {
	upd, body, sig, err := ParseKeyUpdate(wire)
	if err != nil {
		return KeyUpdate{}, err
	}
	if !Verify(oldSP, body, sig) {
		return KeyUpdate{}, fmt.Errorf("%w: signature", ErrBadUpdate)
	}
	if DeriveNodeID(oldSP) != upd.OldID {
		return KeyUpdate{}, fmt.Errorf("%w: old id binding", ErrBadUpdate)
	}
	return upd, nil
}
