package node

import (
	"errors"
	"testing"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/wire"
)

// exchangeKind is one kind of request the sealed exchange carries, reduced to
// what the shared path sees: an inner type and a request body.
type exchangeKind struct {
	name string
	typ  wire.MsgType
	body func(q *outRequest)
}

func exchangeKinds() []exchangeKind {
	var subject pkc.NodeID
	subject[0] = 7
	return []exchangeKind{
		{"trust", wire.TTrustReq, func(q *outRequest) {
			q.body.Bytes(subject[:])
		}},
		{"snapshot", wire.TProofReq, func(q *outRequest) {
			q.body.Bytes(subject[:]).Bool(true)
		}},
		{"report batch", wire.TReportBatch, func(q *outRequest) {
			rn, _ := pkc.NewNonce(nil)
			encodeBatchBody(&q.body, [][]byte{agentdir.SignReport(q.self, subject, true, rn)}, nil)
		}},
		{"replication status", wire.TReplStatusReq, func(q *outRequest) {
			q.body.Bytes(subject[:]).Bool(false)
		}},
	}
}

// TestExchangeAddressedKeyAndRotation drives every kind of request through
// the shared exchange: an honest agent's reply is delivered; the same validly
// signed reply is dropped — the caller times out — when the request was
// addressed to a different key; and an agent that rotated mid-conversation
// still answers a request sealed to its previous identity under that
// identity, so the addressed-key check passes.
func TestExchangeAddressedKeyAndRotation(t *testing.T) {
	nodes := fleet(t, 3, 1)
	agentNode, peer, relay := nodes[0], nodes[1], nodes[2]
	ao, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(ao)
	replyOnion, err := peer.BuildOnion(fetchRoute(t, peer, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	stranger, _ := pkc.NewIdentity(nil)
	misaddressed := info
	misaddressed.SP = stranger.Sign.Public
	build := func(k exchangeKind) *outRequest {
		t.Helper()
		q, err := peer.newRequest(replyOnion)
		if err != nil {
			t.Fatal(err)
		}
		k.body(&q)
		return &q
	}

	for _, k := range exchangeKinds() {
		if _, err := peer.exchange(info, k.typ, build(k), 5*time.Second); err != nil {
			t.Fatalf("%s: honest exchange: %v", k.name, err)
		}
		// The agent answers under its own key; the waiter expects the
		// stranger's. sendAndAwait is entered directly because exchange
		// would refuse the descriptor (its onion is not signed by SP).
		q := build(k)
		sealed, err := pkc.Seal(info.AP, q.body.Encode(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.sendAndAwait(misaddressed, k.typ, q.nonce, sealed, 400*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: reply signed by a key other than the addressed one: got %v, want timeout", k.name, err)
		}
	}

	if _, _, err := agentNode.RotateIdentity(nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range exchangeKinds() {
		if _, err := peer.exchange(info, k.typ, build(k), 5*time.Second); err != nil {
			t.Fatalf("%s: exchange with a rotated agent via its old descriptor: %v", k.name, err)
		}
	}
}

// TestReplyWithoutWaiterDropped pins handleReply's two drop paths: a validly
// signed reply whose nonce has no waiter, and a second reply for a waiter
// that already holds one (or has left), are discarded without blocking the
// session handler that delivered them.
func TestReplyWithoutWaiterDropped(t *testing.T) {
	peer := fleet(t, 1, 0)[0]
	agent, _ := pkc.NewIdentity(nil)
	nonce, _ := pkc.NewNonce(nil)
	var signed wire.Encoder
	signed.Bytes(nonce[:]).U64(42)
	var e wire.Encoder
	e.Bytes(signed.Encode()).Bytes(agent.Sign.Public).Bytes(agent.SignMessage(signed.Encode()))
	sealed, err := pkc.Seal(peer.AnonPublic(), e.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(step string) {
		t.Helper()
		done := make(chan struct{})
		go func() { peer.handleReply(sealed); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: handleReply blocked", step)
		}
	}
	deliver("no waiter")

	w := waiter{sp: agent.Sign.Public, ch: make(chan wire.Decoder, 1)}
	peer.mu.Lock()
	peer.pending[nonce] = w
	peer.mu.Unlock()
	deliver("first reply")
	deliver("duplicate reply")
	if body := <-w.ch; body.U64() != 42 || body.Finish() != nil {
		t.Fatal("waiter received a mangled reply body")
	}
	select {
	case <-w.ch:
		t.Fatal("duplicate reply was delivered")
	default:
	}
	peer.mu.Lock()
	delete(peer.pending, nonce)
	peer.mu.Unlock()
	deliver("reply after the waiter left")
}

// FuzzDecodeRequest throws arbitrary bytes at the parsers an agent runs on an
// opened request — the common prefix, then the report-batch body behind it
// (the one body with attacker-sized counts). Neither may panic or
// over-allocate, and whatever they accept must be well-formed.
func FuzzDecodeRequest(f *testing.F) {
	self, err := pkc.NewIdentity(nil)
	if err != nil {
		f.Fatal(err)
	}
	var subject pkc.NodeID
	nonce, _ := pkc.NewNonce(nil)
	ro := &onion.Onion{Entry: "127.0.0.1:1", Blob: []byte{1, 2, 3}, Seq: 1, Sig: []byte{4}}
	sol, _, _ := pkc.MintAdmission(self.ID, 4, nil)
	for _, s := range [][]byte{nil, sol[:]} {
		var e wire.Encoder
		e.Bytes(self.Sign.Public).Bytes(self.Anon.Public.Bytes()).Bytes(nonce[:])
		encodeOnion(&e, ro)
		encodeBatchBody(&e, [][]byte{agentdir.SignReport(self, subject, true, nonce)}, s)
		f.Add(e.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		if len(req.sp) == 0 || req.ap == nil || req.replyOnion == nil || len(req.nonce) != pkc.NonceSize {
			t.Fatal("accepted prefix with missing fields")
		}
		reports, sol, err := decodeBatchBody(&req.body)
		if err != nil {
			return
		}
		if len(reports) == 0 || len(reports) > MaxBatchReports {
			t.Fatalf("accepted batch with %d reports", len(reports))
		}
		if len(sol) != 0 && len(sol) != pkc.AdmissionSolutionSize {
			t.Fatalf("accepted solution of %d bytes", len(sol))
		}
	})
}

// FuzzDecodeReply throws arbitrary bytes at the parsers a requestor runs on
// an opened reply — the envelope, then the batch-ack body with its demanded
// admission difficulty. Accepted values must be in range.
func FuzzDecodeReply(f *testing.F) {
	self, err := pkc.NewIdentity(nil)
	if err != nil {
		f.Fatal(err)
	}
	nonce, _ := pkc.NewNonce(nil)
	for _, bits := range []int{0, 12} {
		var signed wire.Encoder
		signed.Bytes(nonce[:])
		encodeBatchAck(&signed, []ReportStatus{StatusAdmissionRequired}, bits)
		var e wire.Encoder
		e.Bytes(signed.Encode()).Bytes(self.Sign.Public).Bytes(self.SignMessage(signed.Encode()))
		f.Add(e.Encode())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeReply(data)
		if err != nil {
			return
		}
		if len(r.sp) == 0 {
			t.Fatal("accepted reply with missing fields")
		}
		if a, err := decodeBatchAck(&r.body, 1); err == nil {
			if len(a.statuses) != 1 || a.bits < 0 || a.bits > 256 {
				t.Fatalf("accepted ack with %d statuses, difficulty %d", len(a.statuses), a.bits)
			}
		}
	})
}
