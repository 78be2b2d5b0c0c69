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
// trust value, a proof bundle or snapshot, a report batch's fate, a replica's
// position — is the same two frames:
//
//	request  = Seal_AP(target)( SP_p, AP_p, nonce, reply onion, body… )
//	reply    = Seal_AP(p)( signed{ nonce, body… }, SP_target, sig )
//
// The request travels through the target's onion under its own inner type;
// the reply travels back through the requestor's onion as wire.TReply and is
// accepted only if it is signed by exactly the key the request was addressed
// to. The callers in protocol.go, proof.go, batch.go and replication.go
// supply nothing but their body fields.

// outRequest is one request under construction: the common prefix is
// written and body is open for the caller's fields. self is the identity the
// prefix names, so whatever the caller signs into the body matches it even
// if the node rotates mid-call.
type outRequest struct {
	body  wire.Encoder
	nonce pkc.Nonce
	self  *pkc.Identity
}

// newRequest draws the request nonce and writes the common prefix.
func (n *Node) newRequest(replyOnion *onion.Onion) (outRequest, error) {
	q := outRequest{self: n.identity()}
	var err error
	if q.nonce, err = pkc.NewNonce(nil); err != nil {
		return q, err
	}
	q.body.Bytes(q.self.Sign.Public)
	q.body.Bytes(q.self.Anon.Public.Bytes())
	q.body.Bytes(q.nonce[:])
	encodeOnion(&q.body, replyOnion)
	return q, nil
}

// exchange seals q to target's anonymity key (the paper's SP_e(R)
// encryption), runs one complete request/reply round trip and returns a
// decoder positioned at the reply body. Single attempt: retry owns re-sends,
// so a dead entry relay costs one dial here, not a nested retry storm.
func (n *Node) exchange(target AgentInfo, typ wire.MsgType, q *outRequest, wait time.Duration) (wire.Decoder, error) {
	if n.isClosed() {
		return wire.Decoder{}, ErrClosed
	}
	if err := n.memo.VerifySig(target.Onion, target.SP); err != nil {
		return wire.Decoder{}, resilience.Permanent(fmt.Errorf("node: target onion: %w", err))
	}
	sealed, err := pkc.Seal(target.AP, q.body.Encode(), nil)
	if err != nil {
		return wire.Decoder{}, err
	}
	return n.sendAndAwait(target, typ, q.nonce, sealed, wait)
}

// waiter is one outstanding request: the key it was addressed to and the
// channel its reply body is delivered on.
type waiter struct {
	sp ed25519.PublicKey
	ch chan wire.Decoder
}

// sendAndAwait registers the waiter for nonce, sends the sealed request
// through the target's onion and waits up to wait for handleReply to deliver
// the reply body.
func (n *Node) sendAndAwait(target AgentInfo, typ wire.MsgType, nonce pkc.Nonce, sealed []byte, wait time.Duration) (wire.Decoder, error) {
	w := waiter{sp: target.SP, ch: make(chan wire.Decoder, 1)}
	n.mu.Lock()
	n.pending[nonce] = w
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pending, nonce)
		n.mu.Unlock()
	}()
	if err := n.sendThroughOnionTimeout(target.Onion, typ, sealed, wait); err != nil {
		return wire.Decoder{}, err
	}
	// Stopped on return: an abandoned timer would stay live for the full
	// wait, so retained memory would scale with request rate × Timeout.
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case body := <-w.ch:
		return body, nil
	case <-timer.C:
		return wire.Decoder{}, ErrTimeout
	}
}

// handleReply consumes a reply arriving through this node's own onion and
// hands its body to the waiting exchange. The outer signature must verify AND
// be by exactly the key the request was addressed to: an edge answers under
// its own key, and a third party's valid signature is not an answer. A reply
// whose nonce has no waiter is dropped before any signature work.
func (n *Node) handleReply(sealed []byte) {
	_, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	r, err := decodeReply(plain)
	if err != nil {
		return
	}
	n.mu.Lock()
	w, ok := n.pending[r.nonce]
	n.mu.Unlock()
	if !ok || !bytes.Equal(w.sp, r.sp) || !pkc.Verify(w.sp, r.signedPart, r.sig) {
		return
	}
	select {
	case w.ch <- r.body:
	default:
	}
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
// Protocol-level verdicts — a closed node, an answer failing verification, a
// wrong-owner redirect — are permanent and never retried; transient failures
// (an unreachable entry relay, a lost reply) are, with a fresh nonce each.
func (n *Node) retry(attempts int, once func(wait time.Duration) error) error {
	return n.retrier.DoMax(attempts, func(_ int, perAttempt time.Duration) error {
		err := once(n.attemptBudget(perAttempt))
		if errors.Is(err, ErrClosed) || errors.Is(err, ErrBadAgent) || errors.Is(err, ErrWrongOwner) {
			return resilience.Permanent(err)
		}
		return err
	})
}

// --- agent side ------------------------------------------------------------

// request is one opened, vetted inbound request: the identity of ours the
// requestor sealed to (it may hold a pre-rotation descriptor, and the reply
// must be signed under that same identity to pass its addressed-key check),
// who asked, how to answer, and the request body still to be decoded.
type request struct {
	self       *pkc.Identity
	sp         ed25519.PublicKey
	id         pkc.NodeID
	ap         *ecdh.PublicKey
	nonce      []byte
	replyOnion *onion.Onion
	body       wire.Decoder
}

// openRequest opens a sealed request arriving through this node's onion and
// vets its common prefix: well-formed keys, a reply onion signed by the
// requestor — without which the node would be a reply reflector — and
// non-stale. ErrBadMessage marks a frame that opened but did not parse.
func (n *Node) openRequest(sealed []byte) (request, error) {
	self, plain, ok := n.openAny(sealed)
	if !ok {
		return request{}, pkc.ErrBadCiphertext
	}
	req, err := decodeRequest(plain)
	if err != nil {
		return request{}, err
	}
	req.self = self
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
	apRaw := d.Bytes()
	nonce := d.Bytes()
	replyOnion, err := decodeOnion(d)
	if err != nil {
		return request{}, ErrBadMessage
	}
	if len(sp) != ed25519.PublicKeySize || len(nonce) != pkc.NonceSize {
		return request{}, ErrBadMessage
	}
	ap, err := ecdh.X25519().NewPublicKey(apRaw)
	if err != nil {
		return request{}, ErrBadMessage
	}
	return request{sp: sp, id: pkc.DeriveNodeID(sp), ap: ap, nonce: nonce, replyOnion: replyOnion, body: *d}, nil
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
// it to the requestor's anonymity key and routes it through the reply onion.
func (n *Node) reply(req *request, body *wire.Encoder) {
	if n.isClosed() {
		return
	}
	signedPart := body.Encode()
	var e wire.Encoder
	e.Bytes(signedPart).Bytes(req.self.Sign.Public).Bytes(req.self.SignMessage(signedPart))
	sealed, err := pkc.Seal(req.ap, e.Encode(), nil)
	if err != nil {
		return
	}
	_ = n.sendThroughOnion(req.replyOnion, wire.TReply, sealed)
}
