package onion

import (
	"crypto/ed25519"
	"sync"

	"hirep/internal/metrics"
	"hirep/internal/pkc"
)

// An onion is built once and then carried by every message sent through it,
// so a relay peels — and an endpoint verifies — the byte-identical blob again
// and again. Memo remembers those two answers. Only the onion is memoised;
// the sealed payload that travels beside it is new on every message and is
// never looked at here.

const (
	// memoCapacity bounds each of the memo's two tables (entries). A full
	// table evicts its oldest insertion, so a flood of distinct valid blobs —
	// anyone can Seal to a relay's AP — costs the cold path plus one lookup
	// and never grows the memo.
	memoCapacity = 1024
	// maxMemoBlob is the largest blob worth remembering: a 20-hop onion is
	// under 2 KiB, while a frame may carry up to wire.MaxFrame. Together with
	// memoCapacity it caps what a flood can pin at a few MiB per memo.
	maxMemoBlob = 2048
)

// peelKey is the full content of one peel question: who opened which blob.
// Keying on the anonymity key means an entry is unreachable as soon as its
// identity leaves the holder's key set.
type peelKey struct {
	ap   [32]byte
	blob string
}

// sigKey is the full content of one signature question; every byte the
// Ed25519 check reads is in it.
type sigKey struct {
	sp   [ed25519.PublicKeySize]byte
	sig  [ed25519.SignatureSize]byte
	seq  uint64
	blob string
}

// fifoMap is a map bounded to cap keys: inserting into a full map evicts the
// oldest insertion. Build one with newFifoMap.
type fifoMap[K comparable, V any] struct {
	cap  int
	m    map[K]V
	ring []K // insertion order; once full, ring[next] is the oldest
	next int
}

func newFifoMap[K comparable, V any](capacity int) fifoMap[K, V] {
	return fifoMap[K, V]{cap: capacity, m: make(map[K]V)}
}

func (f *fifoMap[K, V]) put(k K, v V) {
	if _, ok := f.m[k]; ok {
		return // a concurrent miss stored it first
	}
	if len(f.ring) < f.cap {
		f.ring = append(f.ring, k)
	} else {
		delete(f.m, f.ring[f.next])
		f.ring[f.next] = k
		f.next = (f.next + 1) % f.cap
	}
	f.m[k] = v
}

// Memo is a fixed-capacity, concurrency-safe memo of successful peels and
// onion signature checks. A lookup matches on full content, never on a
// digest; failures are never stored, so a wrong key or a forged signature is
// re-examined every time. Staleness (AgeTracker.Accept) depends on what else
// the receiver has seen and is not this type's business.
type Memo struct {
	mu    sync.Mutex
	peels fifoMap[peelKey, PeelResult]
	sigs  fifoMap[sigKey, struct{}]

	peelHits, peelMisses *metrics.Counter
	sigHits, sigMisses   *metrics.Counter
}

// NewMemo returns an empty memo counting its hits and misses in reg; a miss
// is one run of the real Peel or VerifySig.
func NewMemo(reg *metrics.Registry) *Memo { return newMemo(reg, memoCapacity) }

// newMemo lets tests overflow a small memo without 10×memoCapacity rounds of
// real cryptography.
func newMemo(reg *metrics.Registry, capacity int) *Memo {
	return &Memo{
		peels:      newFifoMap[peelKey, PeelResult](capacity),
		sigs:       newFifoMap[sigKey, struct{}](capacity),
		peelHits:   reg.Counter("onion_memo_peel_hits_total"),
		peelMisses: reg.Counter("onion_memo_peel_misses_total"),
		sigHits:    reg.Counter("onion_memo_verify_hits_total"),
		sigMisses:  reg.Counter("onion_memo_verify_misses_total"),
	}
}

// Peel is onion.Peel, answered from the memo when kp already peeled this
// exact blob. The returned Inner is shared between callers and must not be
// modified.
func (m *Memo) Peel(kp pkc.AnonKeyPair, blob []byte) (PeelResult, error) {
	var k peelKey
	keep := kp.Public != nil && len(blob) <= maxMemoBlob
	if keep {
		copy(k.ap[:], kp.Public.Bytes())
		m.mu.Lock()
		res, ok := m.peels.m[peelKey{ap: k.ap, blob: string(blob)}] // no copy of blob
		m.mu.Unlock()
		if ok {
			m.peelHits.Inc()
			return res, nil
		}
	}
	m.peelMisses.Inc()
	res, err := Peel(kp, blob)
	if err == nil && keep {
		k.blob = string(blob)
		m.mu.Lock()
		m.peels.put(k, res)
		m.mu.Unlock()
	}
	return res, err
}

// VerifySig is o.VerifySig(sp), answered from the memo when this exact
// (sp, Seq, Blob, Sig) already verified.
func (m *Memo) VerifySig(o *Onion, sp ed25519.PublicKey) error {
	var k sigKey
	keep := len(sp) == len(k.sp) && len(o.Sig) == len(k.sig) && len(o.Blob) <= maxMemoBlob
	if keep {
		copy(k.sp[:], sp)
		copy(k.sig[:], o.Sig)
		k.seq = o.Seq
		m.mu.Lock()
		_, ok := m.sigs.m[sigKey{sp: k.sp, sig: k.sig, seq: k.seq, blob: string(o.Blob)}]
		m.mu.Unlock()
		if ok {
			m.sigHits.Inc()
			return nil
		}
	}
	m.sigMisses.Inc()
	err := o.VerifySig(sp)
	if err == nil && keep {
		k.blob = string(o.Blob)
		m.mu.Lock()
		m.sigs.put(k, struct{}{})
		m.mu.Unlock()
	}
	return err
}
