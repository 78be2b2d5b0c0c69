package node

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/trust"
	"hirep/internal/wire"
)

// This file implements the client side of the live protocol (§3.3, §3.5) and
// the agent-side handlers for trust requests and reports.

// FetchAnonKey runs the complete Figure 3 handshake against a relay at
// relayAddr and returns the verified relay descriptor for onion building. A
// relay whose key fails confirmation must be discarded (§3.3).
func (n *Node) FetchAnonKey(relayAddr string) (onion.Relay, error) {
	if n.isClosed() {
		return onion.Relay{}, ErrClosed
	}
	self := n.identity()
	// 1 -> 2.
	req := onion.EncodeRelayRequest(onion.RelayRequest{AP: self.Anon.Public, Addr: n.Addr()})
	typ, respWire, err := n.roundTrip(relayAddr, wire.TRelayRequest, req)
	if err != nil {
		return onion.Relay{}, fmt.Errorf("node: relay request: %w", err)
	}
	if typ != wire.TRelayResponse {
		return onion.Relay{}, fmt.Errorf("%w: expected relay response, got %v", ErrBadMessage, typ)
	}
	resp, err := onion.OpenRelayResponse(self, respWire)
	if err != nil {
		return onion.Relay{}, err
	}
	// 3 -> 4.
	verify, err := onion.BuildKeyVerify(self, n.Addr(), resp, nil)
	if err != nil {
		return onion.Relay{}, err
	}
	typ, confirm, err := n.roundTrip(relayAddr, wire.TKeyVerify, verify)
	if err != nil {
		return onion.Relay{}, fmt.Errorf("node: key verify: %w", err)
	}
	if typ != wire.TKeyConfirm {
		return onion.Relay{}, fmt.Errorf("%w: expected key confirm, got %v", ErrBadMessage, typ)
	}
	if err := onion.OpenConfirm(self, resp.Nonce, confirm); err != nil {
		return onion.Relay{}, fmt.Errorf("node: relay key invalid: %w", err)
	}
	return onion.Relay{Addr: resp.Addr, AP: resp.AP}, nil
}

// BuildOnion constructs a fresh signed onion for this node over the verified
// relays (outermost first).
func (n *Node) BuildOnion(route []onion.Relay) (*onion.Onion, error) {
	return onion.Build(n.identity(), n.Addr(), route, n.nextSeq(), nil)
}

// Info returns this node's published descriptor given a fresh onion; agents
// hand it to peers who select them.
func (n *Node) Info(o *onion.Onion) AgentInfo {
	self := n.identity()
	return AgentInfo{SP: self.Sign.Public, AP: self.Anon.Public, Onion: o}
}

// sendThroughOnion wraps a sealed payload in an onion envelope and injects it
// at the onion's entry relay, retrying transient entry-relay failures.
func (n *Node) sendThroughOnion(o *onion.Onion, innerType wire.MsgType, sealed []byte) error {
	var e wire.Encoder
	e.Bytes(o.Blob).U64(uint64(innerType)).Bytes(sealed)
	return n.send(o.Entry, wire.TOnion, e.Encode())
}

// sendThroughOnionTimeout is sendThroughOnion as a single attempt under an
// explicit budget, for callers running their own retry loop.
func (n *Node) sendThroughOnionTimeout(o *onion.Onion, innerType wire.MsgType, sealed []byte, budget time.Duration) error {
	var e wire.Encoder
	e.Bytes(o.Blob).U64(uint64(innerType)).Bytes(sealed)
	return n.sendTimeout(o.Entry, wire.TOnion, e.Encode(), budget)
}

// RequestTrust asks agent for its trust value of subject (§3.5.1/§3.5.2).
// replyOnion is this node's own onion, through which the agent answers. The
// returned hasData is false when the agent has no reports about the subject.
// Transient failures are retried under the node's retry policy.
func (n *Node) RequestTrust(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion) (trust.Value, bool, error) {
	return n.requestTrust(agent, subject, replyOnion, 0, n.timeout())
}

// requestTrust is RequestTrust with the attempt budget and response wait
// exposed: attempts <= 0 uses the retry policy's budget; probes pass 1 and a
// short wait.
func (n *Node) requestTrust(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, attempts int, wait time.Duration) (trust.Value, bool, error) {
	var (
		v       trust.Value
		hasData bool
	)
	err := n.retry(attempts, func(time.Duration) error {
		var aerr error
		v, hasData, aerr = n.requestTrustOnce(agent, subject, replyOnion, wait)
		return aerr
	})
	return v, hasData, err
}

// requestTrustOnce runs one trust exchange. Request body: subject. Reply
// body: subject, value, hasData.
func (n *Node) requestTrustOnce(agent AgentInfo, subject pkc.NodeID, replyOnion *onion.Onion, wait time.Duration) (trust.Value, bool, error) {
	q, err := n.newRequest(replyOnion)
	if err != nil {
		return 0, false, err
	}
	q.body.Bytes(subject[:])
	r, err := n.exchange(agent, wire.TTrustReq, &q, wait)
	if err != nil {
		return 0, false, err
	}
	subjRaw := r.Bytes()
	value := trust.Value(math.Float64frombits(r.U64()))
	hasData := r.Bool()
	if r.Finish() != nil || !bytes.Equal(subjRaw, subject[:]) || !value.Valid() {
		return 0, false, ErrBadAgent
	}
	return value, hasData, nil
}

// reportTransaction sends a signed transaction report about subject to agent
// through its onion as one unacknowledged TReport (§3.5.3): the fast path of
// CompleteTransaction, taken only under the rule in reportOrDefer.
func (n *Node) reportTransaction(agent AgentInfo, subject pkc.NodeID, positive bool) error {
	if n.isClosed() {
		return ErrClosed
	}
	nonce, err := pkc.NewNonce(nil)
	if err != nil {
		return err
	}
	self := n.identity()
	reportWire := agentdir.SignReport(self, subject, positive, nonce)
	var e wire.Encoder
	e.Bytes(self.ID[:])
	e.Bytes(reportWire)
	sealed, err := pkc.Seal(agent.AP, e.Encode(), nil)
	if err != nil {
		return err
	}
	return n.sendThroughOnion(agent.Onion, wire.TReport, sealed)
}

// --- agent-side handlers -------------------------------------------------

// handleTrustReq serves a trust-value request arriving through this agent's
// onion (§3.5.2).
func (n *Node) handleTrustReq(sealed []byte) {
	if n.agent == nil {
		return
	}
	req, err := n.openRequest(sealed)
	if err != nil {
		return
	}
	subject, ok := decodeNodeID(&req.body)
	if !ok || req.body.Finish() != nil {
		return
	}
	// §3.5.2: "E will add the nodeid and public key of P to its public key
	// list if P's nodeid is not in the list."
	if err := n.agent.RegisterKey(req.id, req.sp); err != nil {
		return
	}
	value, hasData := trust.Value(0.5), false // uninformed prior, flagged to the requestor
	if v, ok := n.agent.TrustValue(subject); ok {
		value, hasData = v, true
	}
	n.cnt.trustServed.Inc()
	e := req.replyBody()
	e.Bytes(subject[:]).U64(math.Float64bits(float64(value))).Bool(hasData)
	n.reply(&req, &e)
}

// handleReport stores a signed transaction report (§3.5.3).
func (n *Node) handleReport(sealed []byte) {
	if n.agent == nil {
		return
	}
	_, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	d := wire.NewDecoder(plain)
	idRaw := d.Bytes()
	reportWire := d.Bytes()
	if d.Finish() != nil || len(idRaw) != pkc.NodeIDSize {
		return
	}
	var reporter pkc.NodeID
	copy(reporter[:], idRaw)
	// Every outcome is counted by reason, so replayed, mis-keyed, and
	// store-failed reports are visible even on this unacked path.
	_, err := n.agent.SubmitReport(reporter, reportWire)
	n.countIngest(statusFromSubmitError(err))
}

// encodeOnion serializes an onion into an encoder.
func encodeOnion(e *wire.Encoder, o *onion.Onion) {
	e.String(o.Entry).Bytes(o.Blob).U64(o.Seq).Bytes(o.Sig)
}

// decodeOnion reads an onion written by encodeOnion.
func decodeOnion(d *wire.Decoder) (*onion.Onion, error) {
	o := &onion.Onion{
		Entry: d.String(),
		Blob:  append([]byte(nil), d.Bytes()...),
		Seq:   d.U64(),
		Sig:   append([]byte(nil), d.Bytes()...),
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if o.Entry == "" || len(o.Blob) == 0 {
		return nil, ErrBadMessage
	}
	return o, nil
}
