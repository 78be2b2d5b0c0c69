package node

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/transport"
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
			encodeBatchBody(&q.body, [][]byte{agentdir.SignReport(q.self, subject, true, rn)})
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

	for _, k := range exchangeKinds() {
		if _, err := peer.exchange(info, k.typ, buildRequest(t, peer, replyOnion, k), 5*time.Second); err != nil {
			t.Fatalf("%s: honest exchange: %v", k.name, err)
		}
		// The agent answers under its own key; the waiter expects the
		// stranger's. sendAndAwait is entered directly because exchange
		// would refuse the descriptor (its onion is not signed by SP).
		sealed, err := buildRequest(t, peer, replyOnion, k).seal(info.AP)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.sendAndAwait(misaddressed, k.typ, sealed, 400*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: reply signed by a key other than the addressed one: got %v, want timeout", k.name, err)
		}
	}

	if _, _, err := agentNode.RotateIdentity(nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range exchangeKinds() {
		if _, err := peer.exchange(info, k.typ, buildRequest(t, peer, replyOnion, k), 5*time.Second); err != nil {
			t.Fatalf("%s: exchange with a rotated agent via its old descriptor: %v", k.name, err)
		}
	}
}

// buildRequest starts peer's request of kind k: common prefix plus body.
func buildRequest(t *testing.T, peer *Node, replyOnion *onion.Onion, k exchangeKind) *outRequest {
	t.Helper()
	q, err := peer.newRequest(replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	k.body(&q)
	return &q
}

// replyTap listens where a requestor's reply onion says the requestor does:
// the last relay hands it every reply frame, and the test decides what the
// requestor gets to see.
type replyTap struct {
	ln     net.Listener
	frames chan []byte // TOnion payloads, as the last relay sent them
}

func newReplyTap(t *testing.T) *replyTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Buffered so a handler never outlives the test waiting on a reader.
	tap := &replyTap{ln: ln, frames: make(chan []byte, 64)}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				transport.ServeConn(c, transport.ServerConfig{}, func(typ wire.MsgType, payload []byte, _ transport.Responder) {
					if typ == wire.TOnion {
						tap.frames <- payload
					}
				})
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return tap
}

// replyOnion builds a reply onion of peer's over route that ends at the tap.
func (tap *replyTap) replyOnion(t *testing.T, peer *Node, route []onion.Relay) *onion.Onion {
	t.Helper()
	o, err := onion.Build(peer.identity(), tap.ln.Addr().String(), route, peer.nextSeq(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// next returns the next reply frame to reach the tap and the reply box in it.
func (tap *replyTap) next(t *testing.T) (frame, box []byte) {
	t.Helper()
	select {
	case frame = <-tap.frames:
	case <-time.After(5 * time.Second):
		t.Fatal("no reply frame reached the tap")
	}
	d := wire.NewDecoder(frame)
	_, typ, box := d.Bytes(), wire.MsgType(d.U64()), d.Bytes()
	if d.Finish() != nil || typ != wire.TReply {
		t.Fatalf("tap received a malformed or non-reply frame (inner type %v)", typ)
	}
	return frame, box
}

// tappedPair is an agent, a requestor and the one relay both route through,
// with a tap standing where the requestor's reply onions end.
func tappedPair(t *testing.T) (peer *Node, info AgentInfo, tap *replyTap, route []onion.Relay) {
	t.Helper()
	nodes := fleet(t, 3, 1)
	agentNode, peer, relay := nodes[0], nodes[1], nodes[2]
	ao, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	return peer, agentNode.Info(ao), newReplyTap(t), fetchRoute(t, peer, []*Node{relay})
}

// TestExchangeReplayedReplyDropped records the agent's genuine reply to one
// exchange of every kind and shows it to a later one in place of that one's
// own: verbatim (an unknown handle by then), relabelled with the later
// request's handle (the handle is authenticated), and — the later request's
// own genuine answer this time — sealed the way replies used to be, to the
// requestor's anonymity key. None is an answer: the later exchange times out.
func TestExchangeReplayedReplyDropped(t *testing.T) {
	peer, info, tap, route := tappedPair(t)
	replyOnion := tap.replyOnion(t, peer, route)
	for _, k := range exchangeKinds() {
		res := make(chan error, 1)
		q := buildRequest(t, peer, replyOnion, k)
		go func() {
			_, err := peer.exchange(info, k.typ, q, 5*time.Second)
			res <- err
		}()
		frame, recorded := tap.next(t)
		peer.handleOnion(frame)
		if err := <-res; err != nil {
			t.Fatalf("%s: recorded exchange: %v", k.name, err)
		}

		sealed, err := buildRequest(t, peer, replyOnion, k).seal(info.AP)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := peer.sendAndAwait(info, k.typ, sealed, 400*time.Millisecond)
			res <- err
		}()
		_, genuine := tap.next(t)
		handle := sealed.key.Handle()
		if h, ok := pkc.ReplyHandleOf(genuine); !ok || h != handle {
			t.Fatalf("%s: the agent's reply does not lead with the request's handle", k.name)
		}
		peer.handleReply(recorded)
		peer.handleReply(append(append([]byte(nil), handle[:]...), recorded[len(handle):]...))
		plain, err := sealed.key.Open(genuine)
		if err != nil {
			t.Fatalf("%s: the agent's reply does not open under the request's reply key: %v", k.name, err)
		}
		oldWay, err := pkc.Seal(peer.anonPublic(), plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		peer.handleReply(oldWay)
		if err := <-res; !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: replayed, relabelled or AP-sealed reply: got %v, want timeout", k.name, err)
		}
	}
}

// TestExchangeOutlivesRequestorRotation holds the reply to every kind of
// request at the tap while the requestor rotates its identity out of the
// grace window: no anonymity key the requestor held when it asked is left,
// and the exchange still completes, because the reply is keyed from the
// request and not sealed to AP_p. (The reply onion's own last layer is sealed
// to the old AP and would no longer peel, so the box is handed to the
// exchange directly.)
func TestExchangeOutlivesRequestorRotation(t *testing.T) {
	peer, info, tap, route := tappedPair(t)
	for _, k := range exchangeKinds() {
		replyOnion := tap.replyOnion(t, peer, route) // signed by the identity that asks
		res := make(chan error, 1)
		q := buildRequest(t, peer, replyOnion, k)
		go func() {
			_, err := peer.exchange(info, k.typ, q, 5*time.Second)
			res <- err
		}()
		_, box := tap.next(t)
		for i := 0; i <= maxPrevIdentities; i++ {
			if _, _, err := peer.RotateIdentity(nil); err != nil {
				t.Fatal(err)
			}
		}
		peer.handleReply(box)
		if err := <-res; err != nil {
			t.Fatalf("%s: exchange across %d requestor rotations: %v", k.name, maxPrevIdentities+1, err)
		}
	}
}

// TestSendAndAwaitOneBudget pins wait as the bound on the send and the wait
// for the reply together: a send that used up half of it leaves the reply
// the other half, not a fresh full wait.
func TestSendAndAwaitOneBudget(t *testing.T) {
	const dialDelay, wait = 500 * time.Millisecond, time.Second
	peer, err := Listen("127.0.0.1:0", Options{Timeout: 5 * time.Second,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			time.Sleep(dialDelay)
			return net.DialTimeout("tcp", addr, timeout)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	sink := fleet(t, 1, 0)[0] // not an agent: the request is never answered
	o, err := onion.BuildExit(peer.identity(), onion.Relay{Addr: sink.Addr(), AP: sink.anonPublic()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := peer.newRequest(o)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := q.seal(sink.anonPublic())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = peer.sendAndAwait(sink.Info(o), wire.TTrustReq, sealed, wait)
	if took := time.Since(start); !errors.Is(err, ErrTimeout) || took < wait || took > wait+dialDelay/2 {
		t.Fatalf("sendAndAwait under a %v budget with a %v dial: %v after %v", wait, dialDelay, err, took)
	}
}

// TestReplyWithoutWaiterDropped pins handleReply's drop paths: a reply whose
// handle has no waiter; a reply with a waiter's handle that does not open
// under its key; a reply sealed to the node's anonymity key, the way replies
// used to be; and a second reply for a waiter that already holds one (or has
// left). All are discarded without blocking the session handler that
// delivered them, and none keeps the genuine reply from being delivered.
func TestReplyWithoutWaiterDropped(t *testing.T) {
	peer := fleet(t, 1, 0)[0]
	agent, _ := pkc.NewIdentity(nil)
	nonce, _ := pkc.NewNonce(nil)
	_, key, err := pkc.SealRequest(agent.Anon.Public, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var signed wire.Encoder
	signed.Bytes(nonce[:]).U64(42)
	var e wire.Encoder
	e.Bytes(signed.Encode()).Bytes(agent.Sign.Public).Bytes(agent.SignMessage(signed.Encode()))
	genuine, err := key.Seal(e.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), genuine...)
	tampered[len(tampered)-1] ^= 1
	oldWay, err := pkc.Seal(peer.anonPublic(), e.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(step string, box []byte) {
		t.Helper()
		done := make(chan struct{})
		go func() { peer.handleReply(box); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: handleReply blocked", step)
		}
	}
	deliver("no waiter", genuine)

	w := waiter{sp: agent.Sign.Public, key: key, nonce: nonce, ch: make(chan wire.Decoder, 1)}
	peer.mu.Lock()
	peer.pending[key.Handle()] = w
	peer.mu.Unlock()
	deliver("box that does not open", tampered)
	deliver("box sealed to the node's anonymity key", oldWay)
	deliver("too short to carry a handle", genuine[:pkc.ReplyHandleSize])
	select {
	case <-w.ch:
		t.Fatal("a reply that is not the agent's answer was delivered")
	default:
	}
	deliver("first reply", genuine)
	deliver("duplicate reply", genuine)
	if body := <-w.ch; body.U64() != 42 || body.Finish() != nil {
		t.Fatal("waiter received a mangled reply body")
	}
	select {
	case <-w.ch:
		t.Fatal("duplicate reply was delivered")
	default:
	}
	peer.mu.Lock()
	delete(peer.pending, key.Handle())
	peer.mu.Unlock()
	deliver("reply after the waiter left", genuine)
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
	report := agentdir.SignReport(self, subject, true, nonce)
	for _, reports := range [][][]byte{{report}, {report, report}} {
		var e wire.Encoder
		e.Bytes(self.Sign.Public).Bytes(nonce[:])
		encodeOnion(&e, ro)
		encodeBatchBody(&e, reports)
		f.Add(e.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		if len(req.sp) == 0 || req.replyOnion == nil || len(req.nonce) != pkc.NonceSize {
			t.Fatal("accepted prefix with missing fields")
		}
		reports, err := decodeBatchBody(&req.body)
		if err != nil {
			return
		}
		if len(reports) == 0 || len(reports) > MaxBatchReports {
			t.Fatalf("accepted batch with %d reports", len(reports))
		}
	})
}

// FuzzDecodeReply throws arbitrary bytes at everything a requestor runs on a
// reply, under one fixed reply key: as a box off the wire (handle, open,
// envelope, signature), and — because no fuzzer forges a GCM tag — as the
// envelope inside a box that did open, then the batch-ack body. Nothing may
// panic, and every accepted status must be a defined one.
func FuzzDecodeReply(f *testing.F) {
	self, err := pkc.NewIdentity(nil)
	if err != nil {
		f.Fatal(err)
	}
	_, key, err := pkc.SealRequest(self.Anon.Public, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	nonce, _ := pkc.NewNonce(nil)
	w := waiter{sp: self.Sign.Public, key: key, nonce: nonce}
	for _, st := range []ReportStatus{StatusStored, StatusSaturated} {
		var signed wire.Encoder
		signed.Bytes(nonce[:])
		encodeBatchAck(&signed, []ReportStatus{st})
		var e wire.Encoder
		e.Bytes(signed.Encode()).Bytes(self.Sign.Public).Bytes(self.SignMessage(signed.Encode()))
		box, err := key.Seal(e.Encode(), nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(e.Encode())
		f.Add(box)
	}
	f.Add([]byte{})
	checkAck := func(t *testing.T, body *wire.Decoder) {
		if statuses, err := decodeBatchAck(body, 1); err == nil {
			if len(statuses) != 1 {
				t.Fatalf("accepted ack with %d statuses", len(statuses))
			}
			if st := statuses[0]; strings.HasPrefix(st.String(), "ReportStatus(") {
				t.Fatalf("accepted undefined status %d", uint8(st))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, ok := pkc.ReplyHandleOf(data); ok {
			if body, ok := w.open(data); ok {
				checkAck(t, &body)
			}
		}
		box, err := key.Seal(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := key.Open(box)
		if err != nil || !bytes.Equal(plain, data) {
			t.Fatalf("reply box round trip: %v", err)
		}
		r, err := decodeReply(plain)
		if err != nil {
			return
		}
		if len(r.sp) == 0 {
			t.Fatal("accepted reply with missing fields")
		}
		checkAck(t, &r.body)
	})
}
