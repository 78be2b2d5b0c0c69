package pkc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
)

// Seal box geometry. The AES-GCM sizes are the standard ones cipher.NewGCM
// uses; a test checks them against a real cipher.AEAD.
const (
	sealEphLen   = 32 // X25519 public key
	sealNonceLen = 12 // GCM standard nonce
	sealTagLen   = 16 // GCM tag
)

// Seal encrypts plaintext to the anonymity public key ap so that only the
// holder of the matching private key can read it. It is the "AP_x( ... )"
// operation the paper uses for onion layers and relay handshakes.
//
// Construction: an ephemeral X25519 key agrees a shared secret with ap; the
// SHA-256 of the shared secret keys AES-256-GCM. Output layout:
//
//	ephemeral public key (32) || GCM nonce (12) || ciphertext+tag
func Seal(ap *ecdh.PublicKey, plaintext []byte, r io.Reader) ([]byte, error) {
	box, _, err := sealShared(ap, plaintext, r)
	return box, err
}

// sealShared is Seal, also returning the X25519 secret the box is keyed
// from so SealRequest can derive the reply key without a second agreement.
func sealShared(ap *ecdh.PublicKey, plaintext []byte, r io.Reader) (box, shared []byte, err error) {
	if ap == nil {
		return nil, nil, ErrBadKey
	}
	if r == nil {
		r = rand.Reader
	}
	eph, err := ecdh.X25519().GenerateKey(r)
	if err != nil {
		return nil, nil, fmt.Errorf("pkc: ephemeral key: %w", err)
	}
	shared, err = eph.ECDH(ap)
	if err != nil {
		return nil, nil, fmt.Errorf("pkc: ecdh: %w", err)
	}
	aead, err := newAEAD(sha256.Sum256(shared))
	if err != nil {
		return nil, nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(r, nonce); err != nil {
		return nil, nil, fmt.Errorf("pkc: nonce: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	out := make([]byte, 0, len(ephPub)+len(nonce)+len(plaintext)+aead.Overhead())
	out = append(out, ephPub...)
	out = append(out, nonce...)
	out = aead.Seal(out, nonce, plaintext, ephPub)
	return out, shared, nil
}

// Open decrypts a Seal output with the anonymity private key in kp.
func (kp AnonKeyPair) Open(box []byte) ([]byte, error) {
	plain, _, err := kp.openShared(box)
	return plain, err
}

// openShared is Open, also returning the X25519 secret the box was keyed
// from (see sealShared).
func (kp AnonKeyPair) openShared(box []byte) (plain, shared []byte, err error) {
	if kp.private == nil {
		return nil, nil, ErrBadKey
	}
	if len(box) < SealOverhead() {
		return nil, nil, ErrBadCiphertext
	}
	ephPub, err := ecdh.X25519().NewPublicKey(box[:sealEphLen])
	if err != nil {
		return nil, nil, ErrBadCiphertext
	}
	shared, err = kp.private.ECDH(ephPub)
	if err != nil {
		return nil, nil, ErrBadCiphertext
	}
	aead, err := newAEAD(sha256.Sum256(shared))
	if err != nil {
		return nil, nil, err
	}
	nonce := box[sealEphLen : sealEphLen+sealNonceLen]
	plain, err = aead.Open(nil, nonce, box[sealEphLen+sealNonceLen:], box[:sealEphLen])
	if err != nil {
		return nil, nil, ErrBadCiphertext
	}
	return plain, shared, nil
}

// SealOverhead is the number of bytes Seal adds to a plaintext.
func SealOverhead() int { return sealEphLen + sealNonceLen + sealTagLen }

// newAEAD keys AES-256-GCM.
func newAEAD(key [sha256.Size]byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("pkc: aes: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pkc: gcm: %w", err)
	}
	return aead, nil
}
