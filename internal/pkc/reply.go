package pkc

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
)

// A request that expects an answer does not need a second key agreement for
// it: both ends of a sealed request already hold the X25519 secret the
// request was keyed from. SealRequest and OpenRequest are Seal and Open that
// also derive, from that secret, the key the one answer is sealed under and
// the handle the requestor finds it by. This is the shape HPKE and
// Oblivious-HTTP responses use.
//
//	request key   SHA-256(shared)                        (Seal, unchanged)
//	reply key     SHA-256("hirep reply key" ‖ shared ‖ ephPub)
//	reply handle  SHA-256("hirep reply handle" ‖ shared ‖ ephPub)[:16]
//
// Neither derived value is computable from the request box, which shows only
// ephPub.

// ReplyHandleSize is the byte length of a reply handle.
const ReplyHandleSize = 16

// ReplyHandle names one sealed request to the two ends that hold its secret.
// It leads the reply box in clear so the requestor can find the request it
// answers before doing any cryptography.
type ReplyHandle [ReplyHandleSize]byte

// ReplyKey is what both ends of one sealed request hold for its answer. It
// is good for that one request: every SealRequest draws a fresh ephemeral
// key, so no two requests share a ReplyKey.
type ReplyKey struct {
	key    [sha256.Size]byte
	handle ReplyHandle
}

const (
	replyKeyLabel    = "hirep reply key"
	replyHandleLabel = "hirep reply handle"

	// replyOverhead is the number of bytes ReplyKey.Seal adds to a plaintext.
	replyOverhead = ReplyHandleSize + sealNonceLen + sealTagLen
)

// SealRequest is Seal for a request that expects an answer: box opens with
// OpenRequest (or Open), and the ReplyKey returned here opens the answer.
func SealRequest(ap *ecdh.PublicKey, plaintext []byte, r io.Reader) ([]byte, ReplyKey, error) {
	box, shared, err := sealShared(ap, plaintext, r)
	if err != nil {
		return nil, ReplyKey{}, err
	}
	return box, deriveReplyKey(shared, box[:sealEphLen]), nil
}

// OpenRequest is Open for a SealRequest box, also returning the ReplyKey the
// answer must be sealed under.
func (kp AnonKeyPair) OpenRequest(box []byte) ([]byte, ReplyKey, error) {
	plain, shared, err := kp.openShared(box)
	if err != nil {
		return nil, ReplyKey{}, err
	}
	return plain, deriveReplyKey(shared, box[:sealEphLen]), nil
}

func deriveReplyKey(shared, ephPub []byte) ReplyKey {
	k := ReplyKey{key: deriveLabelled(replyKeyLabel, shared, ephPub)}
	h := deriveLabelled(replyHandleLabel, shared, ephPub)
	copy(k.handle[:], h[:])
	return k
}

func deriveLabelled(label string, shared, ephPub []byte) [sha256.Size]byte {
	var buf [len(replyHandleLabel) + 2*sealEphLen]byte // holds the longer label without allocating
	return sha256.Sum256(append(append(append(buf[:0], label...), shared...), ephPub...))
}

// Handle returns the handle that leads every reply box sealed under k.
func (k ReplyKey) Handle() ReplyHandle { return k.handle }

// Seal encrypts the answer to the request k was derived from. Output layout:
//
//	handle (16) || GCM nonce (12) || ciphertext+tag
//
// with the handle as associated data. The nonce is random, not a counter: a
// replayed request makes the agent answer twice under one key.
func (k ReplyKey) Seal(plaintext []byte, r io.Reader) ([]byte, error) {
	if r == nil {
		r = rand.Reader
	}
	aead, err := newAEAD(k.key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, ReplyHandleSize+sealNonceLen, replyOverhead+len(plaintext))
	copy(out, k.handle[:])
	nonce := out[ReplyHandleSize:]
	if _, err := io.ReadFull(r, nonce); err != nil {
		return nil, fmt.Errorf("pkc: nonce: %w", err)
	}
	return aead.Seal(out, nonce, plaintext, k.handle[:]), nil
}

// Open decrypts a reply box sealed under k. The handle the box carries is
// the associated data, so a box relabelled with another request's handle
// does not open.
func (k ReplyKey) Open(box []byte) ([]byte, error) {
	if len(box) < replyOverhead {
		return nil, ErrBadCiphertext
	}
	aead, err := newAEAD(k.key)
	if err != nil {
		return nil, err
	}
	handle, nonce, ct := box[:ReplyHandleSize], box[ReplyHandleSize:ReplyHandleSize+sealNonceLen], box[ReplyHandleSize+sealNonceLen:]
	plain, err := aead.Open(nil, nonce, ct, handle)
	if err != nil {
		return nil, ErrBadCiphertext
	}
	return plain, nil
}

// ReplyHandleOf reads the handle a reply box carries; ok is false when box
// is too short to be one. It does no cryptography.
func ReplyHandleOf(box []byte) (h ReplyHandle, ok bool) {
	if len(box) < replyOverhead {
		return h, false
	}
	copy(h[:], box)
	return h, true
}
