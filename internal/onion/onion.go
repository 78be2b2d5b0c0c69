// Package onion implements hiREP's onion-routing layer (§3.3 of the paper).
//
// A peer P that wants to receive messages anonymously builds an onion over a
// chain of relays K_1..K_k:
//
//	(((((((fakeonion)AP_p)Addr_p)AP_1)Addr_1) ... AP_k)Addr_k, sq) SR_p
//
// The onion is handed (inside trusted-agent list entries or trust requests)
// to a party who wants to reach P. That party sends the onion payload to the
// entry relay; each relay peels one layer with its anonymity private key,
// learns only the next hop address, and forwards. P's own layer is formatted
// exactly like a relay layer, so even the relay adjacent to P cannot tell
// that P is the destination; P discovers it is the endpoint by finding the
// fake-onion marker inside its layer.
//
// Onions carry a non-decreasing sequence number sq indicating their age and
// are signed by the builder's signature key SR_p, so a receiver holding SP_p
// can verify authenticity and discard stale onions.
package onion

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hirep/internal/pkc"
)

// Errors returned by this package.
var (
	ErrNotForUs   = errors.New("onion: layer not addressed to this key")
	ErrBadOnion   = errors.New("onion: malformed onion")
	ErrBadSig     = errors.New("onion: signature verification failed")
	ErrStaleOnion = errors.New("onion: sequence number is older than last seen")
	ErrNoRelays   = errors.New("onion: route needs at least one relay")
)

// fakeMarker begins the innermost ("fake onion") layer; finding it after a
// peel tells the holder that it is the destination, not a relay.
var fakeMarker = []byte("hirep/fake-onion/v1")

// Relay describes one onion-route hop: where to forward and which anonymity
// key seals that hop's layer.
type Relay struct {
	Addr string          // transport address (simnet node id or host:port)
	AP   *ecdh.PublicKey // relay's anonymity public key
}

// Onion is the complete signed onion a peer publishes so others can reach it
// anonymously.
type Onion struct {
	Entry string // address of the outermost relay, where senders inject
	Blob  []byte // layered ciphertext handed to the entry relay
	Seq   uint64 // non-decreasing age indicator
	Sig   []byte // Ed25519 signature over Blob and Seq by the builder
}

// Hops in an onion cannot be counted by an observer; builders track their own
// route length for diagnostics.

// Build constructs an onion for owner, reachable at ownerAddress, over route
// (outermost relay first, the relay closest to the owner last). Live nodes
// pass host:port as the address; the simulator passes its node id. seq is the
// onion's sequence number; builders must use non-decreasing values. rand may
// be nil for crypto/rand.
func Build(owner *pkc.Identity, ownerAddress string, route []Relay, seq uint64, rand io.Reader) (*Onion, error) {
	if len(route) == 0 {
		return nil, ErrNoRelays
	}
	if ownerAddress == "" {
		return nil, fmt.Errorf("%w: empty owner address", ErrBadOnion)
	}
	for i, r := range route {
		if r.AP == nil || r.Addr == "" {
			return nil, fmt.Errorf("%w: hop %d incomplete", ErrBadOnion, i)
		}
	}
	// Innermost: the fake onion, sealed to the owner itself so the owner's
	// layer is indistinguishable from a relay layer.
	blob, err := pkc.Seal(owner.Anon.Public, encodeLayer("", fakeMarker), rand)
	if err != nil {
		return nil, fmt.Errorf("onion: seal fake core: %w", err)
	}
	// The relay closest to the owner must forward to the owner's address:
	// route is outermost-first, so iterate from the innermost relay outwards.
	next := ownerAddress
	for i := len(route) - 1; i >= 0; i-- {
		blob, err = pkc.Seal(route[i].AP, encodeLayer(next, blob), rand)
		if err != nil {
			return nil, fmt.Errorf("onion: seal hop %d: %w", i, err)
		}
		next = route[i].Addr
	}
	o := &Onion{Entry: route[0].Addr, Blob: blob, Seq: seq}
	o.Sig = owner.SignMessage(o.signedBytes())
	return o, nil
}

// BuildExit constructs a single-layer onion that exits at target rather than
// at the builder: target's peel yields Exit=true. It lets a node hand an
// onion-inner frame to a neighbor known only by address and anonymity key,
// reusing the relay transport path without the neighbor publishing a reply
// onion first. The builder signs the onion as usual; rand may be nil for
// crypto/rand.
func BuildExit(owner *pkc.Identity, target Relay, seq uint64, rand io.Reader) (*Onion, error) {
	if target.AP == nil || target.Addr == "" {
		return nil, fmt.Errorf("%w: incomplete exit target", ErrBadOnion)
	}
	blob, err := pkc.Seal(target.AP, encodeLayer("", fakeMarker), rand)
	if err != nil {
		return nil, fmt.Errorf("onion: seal exit core: %w", err)
	}
	o := &Onion{Entry: target.Addr, Blob: blob, Seq: seq}
	o.Sig = owner.SignMessage(o.signedBytes())
	return o, nil
}

// signedBytes is the byte string covered by the onion signature.
func (o *Onion) signedBytes() []byte {
	buf := make([]byte, 8, 8+len(o.Blob))
	binary.BigEndian.PutUint64(buf, o.Seq)
	return append(buf, o.Blob...)
}

// VerifySig checks the onion's builder signature against sp.
func (o *Onion) VerifySig(sp ed25519.PublicKey) error {
	if !pkc.Verify(sp, o.signedBytes(), o.Sig) {
		return ErrBadSig
	}
	return nil
}

// PeelResult is what a relay (or the destination) learns from one peel.
type PeelResult struct {
	// Exit is true when the peeler is the destination: the fake-onion marker
	// was found and there is nothing to forward.
	Exit bool
	// Next is the address to forward to (empty when Exit).
	Next string
	// Inner is the remaining onion blob to forward (nil when Exit).
	Inner []byte
}

// Peel removes one onion layer using the anonymity key pair kp. Relays call
// this on the blob they receive; the destination's peel yields Exit=true.
func Peel(kp pkc.AnonKeyPair, blob []byte) (PeelResult, error) {
	plain, err := kp.Open(blob)
	if err != nil {
		return PeelResult{}, ErrNotForUs
	}
	next, payload, err := decodeLayer(plain)
	if err != nil {
		return PeelResult{}, err
	}
	if next == "" && hasPrefix(payload, fakeMarker) {
		return PeelResult{Exit: true}, nil
	}
	return PeelResult{Next: next, Inner: payload}, nil
}

func hasPrefix(b, prefix []byte) bool {
	if len(b) < len(prefix) {
		return false
	}
	for i := range prefix {
		if b[i] != prefix[i] {
			return false
		}
	}
	return true
}

// encodeLayer packs (next-hop address, payload) into one plaintext layer:
// u16 address length || address || payload.
func encodeLayer(next string, payload []byte) []byte {
	out := make([]byte, 2+len(next)+len(payload))
	binary.BigEndian.PutUint16(out, uint16(len(next)))
	copy(out[2:], next)
	copy(out[2+len(next):], payload)
	return out
}

func decodeLayer(b []byte) (next string, payload []byte, err error) {
	if len(b) < 2 {
		return "", nil, ErrBadOnion
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, ErrBadOnion
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// AgeTracker enforces the non-decreasing sequence-number rule per builder.
// Receivers keep one tracker per nodeID they accept onions from.
type AgeTracker struct {
	last map[pkc.NodeID]uint64
}

// NewAgeTracker returns an empty tracker.
func NewAgeTracker() *AgeTracker { return &AgeTracker{last: make(map[pkc.NodeID]uint64)} }

// Accept validates o's sequence number for builder id and records it.
// An onion older than the newest seen from the same builder is rejected.
func (t *AgeTracker) Accept(id pkc.NodeID, o *Onion) error {
	if last, ok := t.last[id]; ok && o.Seq < last {
		return fmt.Errorf("%w: seq %d < last %d", ErrStaleOnion, o.Seq, last)
	}
	t.last[id] = o.Seq
	return nil
}
