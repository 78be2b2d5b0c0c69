package pkc

import (
	"crypto/rand"
	"encoding/binary"
	"io"
	"sync"
)

// NonceSize is the byte length of hiREP protocol nonces ("nounce" in the
// paper). Nonces bind a trust-value response to its request and defend the
// relay handshake against replay (§3.3, §3.5).
const NonceSize = 16

// Nonce is a random value echoed in a response to match it to a request.
type Nonce [NonceSize]byte

// NewNonce draws a nonce from r (crypto/rand.Reader when r is nil).
func NewNonce(r io.Reader) (Nonce, error) {
	if r == nil {
		r = rand.Reader
	}
	var n Nonce
	_, err := io.ReadFull(r, n[:])
	return n, err
}

// Uint64 folds the nonce to 8 bytes, for compact logging.
func (n Nonce) Uint64() uint64 { return binary.LittleEndian.Uint64(n[:8]) }

// ReplayCache remembers recently seen nonces so a replayed handshake or
// report is rejected. It holds at most cap nonces, evicting the
// least-recently-OBSERVED: re-seeing a nonce (i.e. an attempted replay)
// refreshes its position, so an attacker hammering a stolen message cannot
// wait for its nonce to age out of a FIFO window — each attempt pushes the
// nonce back to the front. The zero value is unusable; use NewReplayCache.
type ReplayCache struct {
	mu   sync.Mutex
	cap  int
	seen map[Nonce]uint64 // nonce -> seq of its latest observation
	// order is the observation queue; order[:head] is already evicted.
	// Refreshing a nonce appends a new entry and strands the old one; stale
	// entries (seq no longer current in seen) are skipped lazily during
	// eviction. The queue is swept once cap entries have been evicted or
	// 2×cap are pending, so it stays under 3×cap entries.
	order []replayEntry
	head  int
	seq   uint64
}

// replayEntry is one observation in the recency queue.
type replayEntry struct {
	n   Nonce
	seq uint64
}

// NewReplayCache returns a cache bounded to capacity entries (minimum 1).
func NewReplayCache(capacity int) *ReplayCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ReplayCache{
		cap:  capacity,
		seen: make(map[Nonce]uint64, capacity),
	}
}

// Observe records n. It returns false if n was already present — i.e. the
// message is a replay — and true if n is fresh. Either way n becomes the
// most recently observed nonce. Safe for concurrent use.
func (c *ReplayCache) Observe(n Nonce) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, dup := c.seen[n]
	c.seq++
	c.seen[n] = c.seq
	c.order = append(c.order, replayEntry{n: n, seq: c.seq})
	if !dup {
		// Evict the least-recently-observed live nonce, skipping entries
		// stranded by refreshes.
		for len(c.seen) > c.cap {
			e := c.order[c.head]
			c.head++
			if s, ok := c.seen[e.n]; ok && s == e.seq {
				delete(c.seen, e.n)
			}
		}
	}
	// Sweep: compact the live entries to the front of the queue, in place,
	// once the evicted prefix reaches cap (fresh nonces: every append evicts
	// one) or stale entries dominate the pending part (a refreshed nonce
	// strands its old entry).
	if c.head >= c.cap || len(c.order)-c.head >= 2*c.cap {
		live := 0
		for _, e := range c.order[c.head:] {
			if s, ok := c.seen[e.n]; ok && s == e.seq {
				c.order[live] = e
				live++
			}
		}
		c.order, c.head = c.order[:live], 0
	}
	return !dup
}

// Forget drops n from the cache, if present. A caller that Observed a nonce
// and then failed to commit the message it guards (e.g. a WAL append error)
// uses this to return the nonce to circulation, so a legitimate retry of the
// same message is not rejected as a replay. The stranded queue entry is
// skipped by eviction and reclaimed by the lazy sweep.
func (c *ReplayCache) Forget(n Nonce) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.seen, n)
}

// Len returns the number of nonces currently remembered.
func (c *ReplayCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}
