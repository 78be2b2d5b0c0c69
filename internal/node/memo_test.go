package node

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"hirep/internal/metrics"
	"hirep/internal/onion"
	"hirep/internal/pkc"
)

// memoCounter reads one of the onion memo's counters from a registry.
func memoCounter(reg *metrics.Registry, name string) int64 {
	return reg.Snapshot()["onion_memo_"+name+"_total"]
}

// TestMemoDoesNotOutliveGraceWindow is TestRotationGraceWindowBounded with a
// warm memo: a remembered peel is found only under an identity the node still
// holds, so an onion sealed to an identity rotated out of the grace window
// stops peeling even though its entry is still in the memo.
func TestMemoDoesNotOutliveGraceWindow(t *testing.T) {
	nd, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	builder, _ := pkc.NewIdentity(nil)
	o, err := onion.BuildExit(builder, onion.Relay{Addr: nd.Addr(), AP: nd.anonPublic()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	peels := func() bool {
		res, ok := nd.peelAny(o.Blob)
		return ok && res.Exit
	}
	if !peels() || !peels() {
		t.Fatal("onion sealed to the current identity does not peel")
	}
	if hits := memoCounter(nd.Metrics(), "peel_hits"); hits != 1 {
		t.Fatalf("second peel of the same blob: %d memo hits, want 1", hits)
	}
	for i := 0; i < maxPrevIdentities; i++ {
		if _, _, err := nd.RotateIdentity(nil); err != nil {
			t.Fatal(err)
		}
		if !peels() {
			t.Fatalf("onion stopped peeling %d rotations in, inside the grace window", i+1)
		}
	}
	if _, _, err := nd.RotateIdentity(nil); err != nil {
		t.Fatal(err)
	}
	if peels() {
		t.Fatal("memo kept an onion peelable past the rotation grace window")
	}
}

// TestMemoKeepsRequestVetting warms an agent's memo with a requestor's
// genuine reply onion and then replays that onion's bytes in requests that
// must still be refused: the genuine blob under a signature by another key,
// the genuine onion under another requestor's key, and — the signature being
// a memo hit — the genuine onion once a newer one has been seen.
func TestMemoKeepsRequestVetting(t *testing.T) {
	nodes := fleet(t, 3, 1)
	agentNode, peer, relay := nodes[0], nodes[1], nodes[2]
	route := fetchRoute(t, peer, []*Node{relay})
	genuine, err := peer.BuildOnion(route)
	if err != nil {
		t.Fatal(err)
	}
	open := func(self *pkc.Identity, replyOnion *onion.Onion) error {
		t.Helper()
		q, err := peer.newRequest(replyOnion)
		if err != nil {
			t.Fatal(err)
		}
		if self != nil { // claim another requestor's keys in the prefix
			q = outRequest{nonce: q.nonce, self: self}
			q.body.Bytes(self.Sign.Public).Bytes(q.nonce[:])
			encodeOnion(&q.body, replyOnion)
		}
		sealed, err := q.seal(agentNode.anonPublic())
		if err != nil {
			t.Fatal(err)
		}
		_, err = agentNode.openRequest(sealed.box)
		return err
	}
	for i := 0; i < 2; i++ {
		if err := open(nil, genuine); err != nil {
			t.Fatalf("genuine request %d: %v", i, err)
		}
	}
	reg := agentNode.Metrics()
	if hits := memoCounter(reg, "verify_hits"); hits != 1 {
		t.Fatalf("repeated genuine reply onion: %d verify hits, want 1", hits)
	}

	stranger, _ := pkc.NewIdentity(nil)
	// A valid signature over exactly the genuine (Seq, Blob) — by a key other
	// than the one the request names.
	resigned := *genuine
	resigned.Sig = stranger.SignMessage(append(binary.BigEndian.AppendUint64(nil, genuine.Seq), genuine.Blob...))
	if err := open(stranger, &resigned); err != nil {
		t.Fatalf("control: the stranger's signature does not verify under the stranger's key: %v", err)
	}
	if err := open(nil, &resigned); !errors.Is(err, onion.ErrBadSig) {
		t.Fatalf("genuine blob under another key's signature: got %v, want ErrBadSig", err)
	}
	if err := open(stranger, genuine); !errors.Is(err, onion.ErrBadSig) {
		t.Fatalf("genuine onion claimed by another requestor: got %v, want ErrBadSig", err)
	}
	if hits := memoCounter(reg, "verify_hits"); hits != 1 {
		t.Fatalf("a forged request was answered from the memo (%d verify hits)", hits)
	}

	newer, err := peer.BuildOnion(route)
	if err != nil {
		t.Fatal(err)
	}
	if err := open(nil, newer); err != nil {
		t.Fatal(err)
	}
	if err := open(nil, genuine); !errors.Is(err, onion.ErrStaleOnion) {
		t.Fatalf("stale reply onion with a memoised signature: got %v, want ErrStaleOnion", err)
	}
	if hits := memoCounter(reg, "verify_hits"); hits != 2 {
		t.Fatalf("stale onion's signature: %d verify hits, want 2 (a hit, then refused for age)", hits)
	}
}

// TestMemoColdWorkScalesWithOnionsNotTransactions runs §3.6 transactions on a
// fleet, summing each memo counter over its nodes: once every onion in use
// has crossed its route, further transactions add no cold peel and no cold
// signature check.
func TestMemoColdWorkScalesWithOnionsNotTransactions(t *testing.T) {
	fl, err := StartFleet(FleetConfig{Agents: 3, Relays: 2, Peers: 1,
		Opts: Options{Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	peer := fl.Peers[0]
	infos, err := fl.AgentInfos()
	if err != nil {
		t.Fatal(err)
	}
	book, err := fl.Book(infos, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	peer.AttachBook(book)
	replyOnion, err := fl.ReplyOnion(peer)
	if err != nil {
		t.Fatal(err)
	}
	subject, _ := pkc.NewIdentity(nil)
	done := 0
	transact := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			_, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion)
			if err != nil {
				t.Fatal(err)
			}
			peer.CompleteTransaction(book, subject.ID, true, perAgent)
			done++
			// Reports are one-way: wait until they crossed their onions.
			waitFor(t, func() bool {
				for _, a := range fl.Agents {
					if a.Agent().ReportCount() != done {
						return false
					}
				}
				return true
			})
		}
	}
	transact(2)
	coldPeels, coldSigs := fleetMemo(fl, "peel_misses"), fleetMemo(fl, "verify_misses")
	hitPeels := fleetMemo(fl, "peel_hits")
	// 3 agent onions over 2 relays and one reply onion over 1 relay: 11
	// layers. The first transaction's 3 replies race through the reply
	// onion's 2 layers, and each may get there before the first one stored.
	if layers := int64(3*3 + 2); coldPeels < layers || coldPeels > layers+2*2 {
		t.Fatalf("%d cold peels to warm the fleet, want about one per onion layer (%d)", coldPeels, layers)
	}
	const more = 10
	transact(more)
	if got := fleetMemo(fl, "peel_misses"); got != coldPeels {
		t.Fatalf("%d more transactions cost %d more cold peels", more, got-coldPeels)
	}
	if got := fleetMemo(fl, "verify_misses"); got != coldSigs {
		t.Fatalf("%d more transactions cost %d more cold signature checks", more, got-coldSigs)
	}
	// Per transaction: 3 requests and 3 reports cross 3 layers each, 3
	// replies cross 2.
	if got, want := fleetMemo(fl, "peel_hits")-hitPeels, int64(more*(3*3+3*3+3*2)); got != want {
		t.Fatalf("%d memoised peels over %d transactions, want %d", got, more, want)
	}
}

// fleetMemo sums one onion-memo counter over every node of fl.
func fleetMemo(fl *Fleet, name string) int64 {
	var sum int64
	for _, group := range [][]*Node{fl.Agents, fl.Relays, fl.Peers} {
		for _, nd := range group {
			sum += memoCounter(nd.Metrics(), name)
		}
	}
	return sum
}
