package node

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"

	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// This file is the one sealed onion exchange of the live protocol
// (§3.5.1–§3.5.2, DESIGN.md §5.1). Every question a node asks an agent — a
// trust value, a proof bundle or snapshot, a report batch's fate — is the
// same two frames:
//
//	request  = Seal_AP(target)( SP_p, nonce, reply onion, body… )
//	reply    = handle ‖ AEAD_k( signed{ nonce, body… }, SP_target, sig )
//
// where k and handle come out of the X25519 agreement the request was sealed
// with (pkc.SealRequest): the answer costs neither end a second agreement,
// and it only opens if the replier held the key the request was sealed to.
// The request travels through the target's onion under its own inner type;
// the reply travels back through the requestor's onion as wire.TReply, is
// matched to its request by handle before any cryptography, and is accepted
// only if it is signed by exactly the key the request was addressed to. The
// callers in protocol.go, proof.go and batch.go supply nothing but their
// body fields.

// outRequest is one request under construction: the common prefix is
// written and body is open for the caller's fields. self is the identity the
// prefix names, so whatever the caller signs into the body matches it even
// if the node rotates mid-call.
type outRequest struct {
	body  wire.Encoder
	nonce pkc.Nonce
	self  *pkc.Identity
}

// newRequest draws the request nonce and writes the common prefix. The
// reply onion becomes the node's reply route — what the outbox flusher's
// acks come back through — when its Seq is the highest this node has put in
// a request.
func (n *Node) newRequest(replyOnion *onion.Onion) (outRequest, error) {
	q := outRequest{self: n.identity()}
	var err error
	if q.nonce, err = pkc.NewNonce(nil); err != nil {
		return q, err
	}
	q.body.Bytes(q.self.Sign.Public)
	q.body.Bytes(q.nonce[:])
	encodeOnion(&q.body, replyOnion)
	if cur := n.replyRoute.Load(); cur == nil || replyOnion.Seq > cur.Seq {
		n.replyRoute.CompareAndSwap(cur, replyOnion)
	}
	return q, nil
}

// sealedRequest is one request ready to send: the box, and what its reply
// is matched by.
type sealedRequest struct {
	box   []byte
	nonce pkc.Nonce
	key   pkc.ReplyKey
}

// seal seals q to an agent's anonymity key (the paper's SP_e(R) encryption).
func (q *outRequest) seal(ap *ecdh.PublicKey) (sealedRequest, error) {
	box, key, err := pkc.SealRequest(ap, q.body.Encode(), nil)
	return sealedRequest{box: box, nonce: q.nonce, key: key}, err
}

// exchange seals q to target, runs one complete request/reply round trip and
// returns a decoder positioned at the reply body. Single attempt: retry owns
// re-sends, so a dead entry relay costs one dial here, not a nested retry
// storm.
func (n *Node) exchange(target AgentInfo, typ wire.MsgType, q *outRequest, wait time.Duration) (wire.Decoder, error) {
	if n.isClosed() {
		return wire.Decoder{}, ErrClosed
	}
	if err := n.memo.VerifySig(target.Onion, target.SP); err != nil {
		return wire.Decoder{}, resilience.Permanent(fmt.Errorf("node: target onion: %w", err))
	}
	sealed, err := q.seal(target.AP)
	if err != nil {
		return wire.Decoder{}, err
	}
	return n.sendAndAwait(target, typ, sealed, wait)
}

// waiter is one outstanding request: the key it was addressed to, what its
// reply must open under and echo, and the channel the reply body is
// delivered on.
type waiter struct {
	sp    ed25519.PublicKey
	key   pkc.ReplyKey
	nonce pkc.Nonce
	ch    chan wire.Decoder
}

// sendAndAwait registers the waiter for the request's reply handle, sends
// the sealed request through the target's onion and waits for handleReply to
// deliver the reply body. wait bounds the send and the wait together.
func (n *Node) sendAndAwait(target AgentInfo, typ wire.MsgType, q sealedRequest, wait time.Duration) (wire.Decoder, error) {
	deadline := time.Now().Add(wait)
	w := waiter{sp: target.SP, key: q.key, nonce: q.nonce, ch: make(chan wire.Decoder, 1)}
	handle := q.key.Handle()
	n.mu.Lock()
	n.pending[handle] = w
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pending, handle)
		n.mu.Unlock()
	}()
	if err := n.sendThroughOnionTimeout(target.Onion, typ, q.box, wait); err != nil {
		return wire.Decoder{}, err
	}
	// Stopped on return: an abandoned timer would stay live for the full
	// wait, so retained memory would scale with request rate × Timeout.
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case body := <-w.ch:
		return body, nil
	case <-timer.C:
		return wire.Decoder{}, ErrTimeout
	}
}

// handleReply consumes a reply arriving through this node's own onion and
// hands its body to the waiting exchange. A reply whose handle has no waiter
// costs a map miss: it is dropped before any cryptography.
func (n *Node) handleReply(box []byte) {
	handle, ok := pkc.ReplyHandleOf(box)
	if !ok {
		return
	}
	n.mu.Lock()
	w, ok := n.pending[handle]
	n.mu.Unlock()
	if !ok {
		return
	}
	body, ok := w.open(box)
	if !ok {
		return
	}
	select {
	case w.ch <- body:
	default:
	}
}

// open opens a reply box under the waiter's key and vets what is inside: it
// must echo the request nonce, and its outer signature must verify AND be by
// exactly the key the request was addressed to — a third party's valid
// signature is not an answer.
func (w *waiter) open(box []byte) (wire.Decoder, bool) {
	plain, err := w.key.Open(box)
	if err != nil {
		return wire.Decoder{}, false
	}
	r, err := decodeReply(plain)
	if err != nil || r.nonce != w.nonce || !bytes.Equal(w.sp, r.sp) || !pkc.Verify(w.sp, r.signedPart, r.sig) {
		return wire.Decoder{}, false
	}
	return r.body, true
}

// replyEnvelope is a parsed reply plaintext, before signature verification.
type replyEnvelope struct {
	signedPart, sp, sig []byte
	nonce               pkc.Nonce    // leads the signed part
	body                wire.Decoder // positioned behind the nonce
}

// decodeReply parses a reply plaintext written by Node.reply.
func decodeReply(plain []byte) (replyEnvelope, error) {
	d := wire.NewDecoder(plain)
	r := replyEnvelope{signedPart: d.Bytes(), sp: d.Bytes(), sig: d.Bytes()}
	if err := d.Finish(); err != nil {
		return replyEnvelope{}, err
	}
	r.body = *wire.NewDecoder(r.signedPart)
	nonceRaw := r.body.Bytes()
	if len(nonceRaw) != pkc.NonceSize || len(r.sp) != ed25519.PublicKeySize {
		return replyEnvelope{}, ErrBadMessage
	}
	copy(r.nonce[:], nonceRaw)
	return r, nil
}

// retry runs once under the node's retry policy (attempts <= 0 uses the
// policy's budget; probes pass 1), handing it the per-attempt wait.
// Protocol-level verdicts — a closed node, an answer failing verification —
// are permanent and never retried; transient failures (an unreachable entry
// relay, a lost reply) are, with a fresh nonce each.
func (n *Node) retry(attempts int, once func(wait time.Duration) error) error {
	return n.retrier.DoMax(attempts, func(_ int, perAttempt time.Duration) error {
		err := once(n.attemptBudget(perAttempt))
		if errors.Is(err, ErrClosed) || errors.Is(err, ErrBadAgent) {
			return resilience.Permanent(err)
		}
		return err
	})
}

// --- agent side ------------------------------------------------------------

// request is one opened, vetted inbound request: the identity of ours the
// requestor sealed to (it may hold a pre-rotation descriptor, and the reply
// must be signed under that same identity to pass its addressed-key check),
// who asked, how to answer — the key to seal under and the onion to route
// through — and the request body still to be decoded.
type request struct {
	self       *pkc.Identity
	sp         ed25519.PublicKey
	id         pkc.NodeID
	key        pkc.ReplyKey
	nonce      []byte
	replyOnion *onion.Onion
	body       wire.Decoder
}

// openRequest opens a sealed request arriving through this node's onion,
// with the current identity or a grace-period predecessor, and vets its
// common prefix: a well-formed key, a reply onion signed by the requestor —
// without which the node would be a reply reflector — and non-stale.
// ErrBadMessage marks a frame that opened but did not parse.
func (n *Node) openRequest(sealed []byte) (request, error) {
	var (
		self  *pkc.Identity
		plain []byte
		key   pkc.ReplyKey
	)
	for _, id := range n.identities() {
		if p, k, err := id.Anon.OpenRequest(sealed); err == nil {
			self, plain, key = id, p, k
			break
		}
	}
	if self == nil {
		return request{}, pkc.ErrBadCiphertext
	}
	req, err := decodeRequest(plain)
	if err != nil {
		return request{}, err
	}
	req.self, req.key = self, key
	if err := n.memo.VerifySig(req.replyOnion, req.sp); err != nil {
		return request{}, err
	}
	n.mu.Lock()
	err = n.ages.Accept(req.id, req.replyOnion)
	n.mu.Unlock()
	return req, err
}

// decodeRequest parses the common request prefix written by newRequest,
// leaving req.body at the caller-specific fields. SP is copied because the
// agent's key table retains it and must not pin the whole request plaintext.
func decodeRequest(plain []byte) (request, error) {
	d := wire.NewDecoder(plain)
	sp := append([]byte(nil), d.Bytes()...)
	nonce := d.Bytes()
	replyOnion, err := decodeOnion(d)
	if err != nil {
		return request{}, ErrBadMessage
	}
	if len(sp) != ed25519.PublicKeySize || len(nonce) != pkc.NonceSize {
		return request{}, ErrBadMessage
	}
	return request{sp: sp, id: pkc.DeriveNodeID(sp), nonce: nonce, replyOnion: replyOnion, body: *d}, nil
}

// decodeNodeID reads one node-ID field of a request or reply body.
func decodeNodeID(d *wire.Decoder) (id pkc.NodeID, ok bool) {
	raw := d.Bytes()
	if len(raw) != pkc.NodeIDSize {
		return id, false
	}
	copy(id[:], raw)
	return id, true
}

// replyBody starts the signed part of the reply to req: the nonce is
// written and the encoder is open for the handler's fields.
func (req *request) replyBody() wire.Encoder {
	var e wire.Encoder
	e.Bytes(req.nonce)
	return e
}

// reply signs the body under the identity the request was sealed to, seals
// it under the request's reply key and routes it through the reply onion.
func (n *Node) reply(req *request, body *wire.Encoder) {
	if n.isClosed() {
		return
	}
	signedPart := body.Encode()
	var e wire.Encoder
	e.Bytes(signedPart).Bytes(req.self.Sign.Public).Bytes(req.self.SignMessage(signedPart))
	box, err := req.key.Seal(e.Encode(), nil)
	if err != nil {
		return
	}
	_ = n.sendThroughOnion(req.replyOnion, wire.TReply, box)
}
