package node

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/wire"
)

// This file carries the verifiable-read subsystem (internal/proof,
// DESIGN.md §14) over the live protocol. A TProofReq is the same sealed
// exchange as a trust request (exchange.go), but the answer is a
// self-verifying proof bundle (or a compact signed trust snapshot) instead of
// a bare tally. The bundle's integrity rests on the issuing agent's
// signature rather than on the path that carried it, so the client's
// verification catches any alteration on the way.

// Proof response kinds carried in the reply body.
const (
	proofKindBundle   = 1 // payload is an encoded proof.Bundle
	proofKindSnapshot = 2 // payload is an encoded proof.TrustSnapshot
)

// defaultSnapshotTTL bounds a snapshot's validity and a proof cache entry's
// lifetime.
const defaultSnapshotTTL = 60 * time.Second

// snapshotClockSkew is how far the client's clock may run ahead of the
// issuing agent's before freshly issued snapshots are misjudged as expired.
// Expires is stamped by the agent but checked against the client's wall
// clock, so with zero tolerance a client a few seconds fast would fail every
// fetch with a permanent (non-retried) ErrBadAgent. The allowance extends a
// snapshot's effective lifetime by the same amount — snapshot freshness
// assumes loosely synchronized clocks.
const snapshotClockSkew = 30 * time.Second

// proofCache is the bounded FIFO payload cache behind Options.ProofCache.
// Entries are the exact signed payload bytes served before — re-serving them
// cannot forge anything, which is the whole §14 point — and expire on the
// snapshot TTL so a cache's staleness is bounded by the same knob as a
// snapshot's.
type proofCache struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration
	m     map[string]proofCacheEntry
	order []string // FIFO eviction order
}

type proofCacheEntry struct {
	payload []byte
	expires time.Time
}

func newProofCache(capacity int, ttl time.Duration) *proofCache {
	return &proofCache{cap: capacity, ttl: ttl, m: make(map[string]proofCacheEntry)}
}

func proofCacheKey(subject pkc.NodeID, kind uint64) string {
	return string(subject[:]) + string([]byte{byte(kind)})
}

func (c *proofCache) get(key string, now time.Time) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || now.After(e.expires) {
		return nil, false
	}
	return e.payload, true
}

// put stores a payload until expires. An overwritten key moves to the back
// of the eviction order — a hot, freshly re-written entry must not be the
// next "oldest" evicted while stale keys keep their slots.
func (c *proofCache) put(key string, payload []byte, expires time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[key]; exists {
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	} else {
		for len(c.order) >= c.cap {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.m, oldest)
		}
	}
	c.order = append(c.order, key)
	c.m[key] = proofCacheEntry{payload: payload, expires: expires}
}

// setProofTamper installs a hook mutating every bundle this agent assembles
// between assembly and signing — the tests' lying agent. The agent then signs
// the mutated claim, which is exactly the misbehavior proof.Verify pins on
// it. Nil restores honesty.
func (n *Node) setProofTamper(fn func(*proof.Bundle)) {
	n.proofMu.Lock()
	n.proofTamper = fn
	n.proofMu.Unlock()
}

// --- client side -----------------------------------------------------------

// RequestTrustProven asks agent for a proof bundle about subject, verifies
// it, and returns both the bundle and the verdict. A non-nil error means no authenticated bundle was obtained
// (transport failure, or a response failing verification — ErrBadAgent). With
// a nil error the Result classifies the issuing agent's own signed statement:
// Matching, Partial, or provably Lying — the caller holds the evidence either
// way and need not trust the path that carried it.
func (n *Node) RequestTrustProven(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion) (*proof.Bundle, proof.Result, error) {
	var (
		b   *proof.Bundle
		res proof.Result
	)
	err := n.retry(0, func(wait time.Duration) error {
		var aerr error
		b, res, aerr = n.requestTrustProvenOnce(agent, subject, replyOnion, wait)
		return aerr
	})
	return b, res, err
}

// requestTrustProvenOnce is one bundle fetch-and-verify under an explicit
// wait budget.
func (n *Node) requestTrustProvenOnce(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, wait time.Duration) (*proof.Bundle, proof.Result, error) {
	kind, payload, err := n.requestProofOnce(agent, subject, replyOnion, false, wait)
	if err != nil {
		return nil, proof.Result{}, err
	}
	if kind != proofKindBundle {
		return nil, proof.Result{}, fmt.Errorf("%w: proof response kind %d", ErrBadAgent, kind)
	}
	b, err := proof.DecodeBundle(payload)
	if err != nil {
		return nil, proof.Result{}, fmt.Errorf("%w: %v", ErrBadAgent, err)
	}
	if b.Subject != subject {
		return nil, proof.Result{}, fmt.Errorf("%w: bundle names the wrong subject", ErrBadAgent)
	}
	res, err := n.proofs.Verify(b)
	if err != nil {
		// Unauthenticated: nothing is pinned on anyone — the responder
		// corrupted or forged it. Either way, bad answer.
		return nil, proof.Result{}, fmt.Errorf("%w: %v", ErrBadAgent, err)
	}
	n.countProofVerdict(res.Verdict)
	return b, res, nil
}

// RequestTrustSnapshot asks agent for a compact signed trust snapshot of
// subject and verifies its signature and TTL. The snapshot's
// tally is taken on the issuing agent's signature — the classic trust model,
// but portable and cacheable.
func (n *Node) RequestTrustSnapshot(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion) (*proof.TrustSnapshot, error) {
	var ts *proof.TrustSnapshot
	err := n.retry(0, func(wait time.Duration) error {
		var aerr error
		ts, aerr = n.requestTrustSnapshotOnce(agent, subject, replyOnion, wait)
		return aerr
	})
	return ts, err
}

func (n *Node) requestTrustSnapshotOnce(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, wait time.Duration) (*proof.TrustSnapshot, error) {
	kind, payload, err := n.requestProofOnce(agent, subject, replyOnion, true, wait)
	if err != nil {
		return nil, err
	}
	if kind != proofKindSnapshot {
		return nil, fmt.Errorf("%w: proof response kind %d", ErrBadAgent, kind)
	}
	ts, err := proof.DecodeTrustSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadAgent, err)
	}
	if ts.Subject != subject {
		return nil, fmt.Errorf("%w: snapshot names the wrong subject", ErrBadAgent)
	}
	if err := ts.Verify(uint64(time.Now().Add(-snapshotClockSkew).Unix())); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadAgent, err)
	}
	return ts, nil
}

// requestProofOnce runs one proof exchange against target and returns the
// reply's kind and payload bytes. Request body: subject, snapshot flag. Reply
// body: subject, kind, payload.
func (n *Node) requestProofOnce(target AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, snapshotOnly bool, wait time.Duration) (uint64, []byte, error) {
	q, err := n.newRequest(replyOnion)
	if err != nil {
		return 0, nil, err
	}
	q.body.Bytes(subject[:]).Bool(snapshotOnly)
	r, err := n.exchange(target, wire.TProofReq, &q, wait)
	if err != nil {
		return 0, nil, err
	}
	subjRaw := r.Bytes()
	kind := r.U64()
	payload := r.Bytes()
	if r.Finish() != nil || !bytes.Equal(subjRaw, subject[:]) {
		return 0, nil, ErrBadAgent
	}
	return kind, payload, nil
}

// countProofVerdict counts one client-side verification outcome.
func (n *Node) countProofVerdict(v proof.Verdict) {
	n.cnt.proofsVerified.Inc()
	switch v {
	case proof.Partial:
		n.cnt.proofsPartial.Inc()
	case proof.Lying:
		n.cnt.proofsLying.Inc()
	}
}

// --- responder side --------------------------------------------------------

// proofRequest is one vetted inbound proof request.
type proofRequest struct {
	request
	subject      pkc.NodeID
	snapshotOnly bool
}

// handleProofReq serves a proof request arriving through this agent's onion
// by assembling (or re-serving a cached) signed bundle or snapshot. A
// non-agent drops the frame.
func (n *Node) handleProofReq(sealed []byte) {
	if n.agent == nil {
		return
	}
	req, err := n.openRequest(sealed)
	if err != nil {
		return
	}
	subject, ok := decodeNodeID(&req.body)
	snapshotOnly := req.body.Bool()
	if !ok || req.body.Finish() != nil {
		return
	}
	// §3.5.2 key learning, exactly like a trust request.
	if err := n.agent.RegisterKey(req.id, req.sp); err != nil {
		return
	}
	n.serveProof(&proofRequest{request: req, subject: subject, snapshotOnly: snapshotOnly})
}

// serveProof answers a proof request from this agent's own store: cached
// payloads are re-served within their TTL, and fresh ones are assembled under
// the store's current WAL epoch (with the tamper hook applied between
// assembly and signing, for the tests' lying agent).
func (n *Node) serveProof(req *proofRequest) {
	kind := uint64(proofKindBundle)
	if req.snapshotOnly {
		kind = proofKindSnapshot
	}
	now := time.Now()
	key := proofCacheKey(req.subject, kind)
	if n.proofCache != nil {
		if payload, ok := n.proofCache.get(key, now); ok {
			n.cnt.proofCacheHits.Inc()
			n.cnt.proofsServed.Inc()
			n.sendProofResp(req, kind, payload)
			return
		}
		n.cnt.proofCacheMisses.Inc()
	}
	st := n.agent.Store()
	b := proof.AssembleUnsigned(st, req.subject, st.WALEpoch())
	n.proofMu.Lock()
	tamper := n.proofTamper
	n.proofMu.Unlock()
	if tamper != nil {
		tamper(b)
	}
	b.Sign(req.self)
	var payload []byte
	if req.snapshotOnly {
		expires := uint64(now.Add(defaultSnapshotTTL).Unix())
		payload = proof.SnapshotFromBundle(req.self, b, expires).Encode()
	} else {
		payload = b.Encode()
	}
	if n.proofCache != nil {
		// A snapshot assembled here carries Expires = now + TTL, so the cache
		// entry and the payload's own validity run out together.
		n.proofCache.put(key, payload, now.Add(n.proofCache.ttl))
	}
	n.cnt.proofsServed.Inc()
	n.sendProofResp(req, kind, payload)
}

// sendProofResp answers one proof request.
func (n *Node) sendProofResp(req *proofRequest, kind uint64, payload []byte) {
	e := req.replyBody()
	e.Bytes(req.subject[:]).U64(kind).Bytes(payload)
	n.reply(&req.request, &e)
}
