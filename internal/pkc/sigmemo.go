package pkc

import (
	"crypto/ed25519"
	"crypto/sha256"
	"sync"

	"hirep/internal/metrics"
)

// A signed report is written once and then read for as long as an agent
// retains it: every proof bundle about a subject carries the same evidence
// wires as the last one, plus the few that arrived since. SigMemo remembers
// which (key, message, signature) triples already passed Ed25519, so a
// verifier pays for a wire the first time it sees it and not again.

// sigMemoCapacity bounds the memo (entries): 64 subjects at the documented
// evidence cap of 256 wires, or a thousand at the 16 the benchmark preloads. A
// full memo evicts its oldest insertion, so a stream of distinct valid
// signatures costs the real check plus one lookup and never grows it.
const sigMemoCapacity = 16384

// sigDigest names one signature question: SHA-256 over the public key, the
// signature, then the message. Key and signature are fixed-width, so the
// concatenation parses one way and every byte the Ed25519 check reads is in
// the digest.
type sigDigest [sha256.Size]byte

// SigMemo is a fixed-capacity, concurrency-safe set of signature checks that
// succeeded. Failures are never stored: a forged or mismatched triple is
// re-examined every time it is presented. The memo is node-local state and
// nothing about it travels.
type SigMemo struct {
	mu   sync.Mutex
	set  map[sigDigest]struct{}
	ring []sigDigest // insertion order; once full, ring[next] is the oldest
	next int
	cap  int

	hits, misses *metrics.Counter
}

// NewSigMemo returns an empty memo counting its hits and misses in reg; a
// miss is one real Ed25519 verification.
func NewSigMemo(reg *metrics.Registry) *SigMemo { return newSigMemo(reg, sigMemoCapacity) }

// newSigMemo lets tests overflow a small memo without 10×sigMemoCapacity
// signatures.
func newSigMemo(reg *metrics.Registry, capacity int) *SigMemo {
	return &SigMemo{
		set:    make(map[sigDigest]struct{}),
		cap:    capacity,
		hits:   reg.Counter("sig_memo_hits_total"),
		misses: reg.Counter("sig_memo_misses_total"),
	}
}

// Verify is pkc.Verify answered from the memo where it can be: a triple that
// verified before is true without running Ed25519, any other is checked and,
// if it passes, remembered. A key or signature of the wrong length is false
// without a lookup, as Verify rejects it without running Ed25519.
func (m *SigMemo) Verify(sp ed25519.PublicKey, msg, sig []byte) bool {
	if len(sp) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	h := sha256.New()
	h.Write(sp)
	h.Write(sig)
	h.Write(msg)
	var d sigDigest
	h.Sum(d[:0])

	m.mu.Lock()
	_, hit := m.set[d]
	m.mu.Unlock()
	if hit {
		m.hits.Inc()
		return true
	}
	m.misses.Inc()
	if !ed25519.Verify(sp, msg, sig) {
		return false
	}
	m.mu.Lock()
	m.put(d)
	m.mu.Unlock()
	return true
}

// put records d, evicting the oldest insertion from a full memo. Callers
// hold m.mu.
func (m *SigMemo) put(d sigDigest) {
	if _, ok := m.set[d]; ok {
		return // a concurrent miss stored it first
	}
	if len(m.ring) < m.cap {
		m.ring = append(m.ring, d)
	} else {
		delete(m.set, m.ring[m.next])
		m.ring[m.next] = d
		m.next = (m.next + 1) % m.cap
	}
	m.set[d] = struct{}{}
}
