package node

import (
	"bytes"
	"crypto/rand"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hirep/internal/onion"
	"hirep/internal/overlay"
	"hirep/internal/pkc"
	"hirep/internal/wire"
)

// overlayAgent starts one live agent node reachable through relay, returning
// the node, its published AgentInfo, and the encoded descriptor a placement
// map carries for its group.
func overlayAgent(t *testing.T, relay *Node, opts Options) (*Node, AgentInfo, string) {
	t.Helper()
	if opts.Timeout <= 0 {
		opts.Timeout = 4 * time.Second
	}
	opts.Agent = true
	n, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	o, err := n.BuildOnion(fetchRoute(t, n, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := n.Info(o)
	return n, info, EncodeInfo(info)
}

// signedPlacement signs a map under auth.
func signedPlacement(t testing.TB, auth *pkc.Identity, m *overlay.Map) []byte {
	t.Helper()
	signed, err := overlay.Encode(auth, m)
	if err != nil {
		t.Fatal(err)
	}
	return signed
}

// flatMap builds a map assigning every shard to one group, no open windows.
func flatMap(epoch uint64, shards int, groups []overlay.Group, owner int) *overlay.Map {
	m := &overlay.Map{
		Epoch:  epoch,
		Shards: shards,
		Groups: append([]overlay.Group(nil), groups...),
		Assign: make([]int32, shards),
		Prev:   make([]int32, shards),
	}
	for s := 0; s < shards; s++ {
		m.Assign[s] = int32(owner)
		m.Prev[s] = overlay.NoPrev
	}
	return m
}

// subjectOwnedBy draws random subject IDs until one routes to group g.
func subjectOwnedBy(t testing.TB, m *overlay.Map, g int) pkc.NodeID {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		var id pkc.NodeID
		if _, err := rand.Read(id[:]); err != nil {
			t.Fatal(err)
		}
		if m.Owner(id) == g {
			return id
		}
	}
	t.Fatalf("no subject found routing to group %d", g)
	return pkc.NodeID{}
}

// adoptAll installs one signed map on every node, failing on any rejection.
func adoptAll(t *testing.T, signed []byte, nodes ...*Node) {
	t.Helper()
	for _, n := range nodes {
		if err := n.SetPlacement(signed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlacementAdoptAndReject exercises the adoption rules: strictly newer
// epochs adopt, the same epoch is an idempotent no-op, older epochs and
// tampered payloads are rejected, and a configured authority pins the signer.
func TestPlacementAdoptAndReject(t *testing.T) {
	n := fleet(t, 1, 0)[0]
	auth, _ := pkc.NewIdentity(nil)
	stranger, _ := pkc.NewIdentity(nil)
	groups := []overlay.Group{{ID: "g0", Descriptor: "d"}}

	m1 := flatMap(1, 8, groups, 0)
	signed1 := signedPlacement(t, auth, m1)
	if err := n.SetPlacement(signed1); err != nil {
		t.Fatal(err)
	}
	if m, _ := n.Placement(); m == nil || m.Epoch != 1 {
		t.Fatalf("placement after adopt: %+v", m)
	}
	// Same epoch again: idempotent, not an error, not a second adoption.
	if err := n.SetPlacement(signed1); err != nil {
		t.Fatalf("re-install of the adopted epoch: %v", err)
	}
	signed3 := signedPlacement(t, auth, flatMap(3, 8, groups, 0))
	if err := n.SetPlacement(signed3); err != nil {
		t.Fatal(err)
	}
	// A replayed older epoch must not roll routing back.
	signed2 := signedPlacement(t, auth, flatMap(2, 8, groups, 0))
	if err := n.SetPlacement(signed2); err == nil {
		t.Fatal("older epoch adopted over a newer one")
	}
	if m, _ := n.Placement(); m.Epoch != 3 {
		t.Fatalf("epoch after replay attempt = %d, want 3", m.Epoch)
	}
	// A flipped byte must fail the signature, not install garbage.
	bad := append([]byte(nil), signed3...)
	bad[len(bad)-1] ^= 1
	if err := n.SetPlacement(bad); err == nil {
		t.Fatal("tampered map adopted")
	}
	adopted, rejected := metric(t, n, "node_placement_adopted_total"), metric(t, n, "node_placement_rejected_total")
	if adopted != 2 || rejected != 2 {
		t.Fatalf("adopted=%d rejected=%d, want 2/2", adopted, rejected)
	}

	// An authority-pinned node refuses any other signer, however valid.
	pinned, err := Listen("127.0.0.1:0", Options{Timeout: 4 * time.Second, PlacementAuthority: auth.ID})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pinned.Close() })
	if err := pinned.SetPlacement(signedPlacement(t, stranger, m1)); err == nil {
		t.Fatal("map signed by a stranger adopted under a pinned authority")
	}
	if err := pinned.SetPlacement(signed1); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementFetchAndPush covers the wire exchange: FetchPlacement adopts a
// newer map from a peer, reports ErrNoPlacement when the peer has nothing
// newer, an unsolicited TPlacement push installs a newer epoch on a node with
// a pinned placement authority — and is refused outright on a node without
// one, where any valid keypair could otherwise capture the routing.
func TestPlacementFetchAndPush(t *testing.T) {
	nodes := fleet(t, 2, 0)
	src, sink := nodes[0], nodes[1]
	auth, _ := pkc.NewIdentity(nil)
	groups := []overlay.Group{{ID: "g0", Descriptor: "d"}}
	signed1 := signedPlacement(t, auth, flatMap(1, 8, groups, 0))
	if err := src.SetPlacement(signed1); err != nil {
		t.Fatal(err)
	}

	if err := sink.FetchPlacement(src.Addr()); err != nil {
		t.Fatal(err)
	}
	if m, raw := sink.Placement(); m == nil || m.Epoch != 1 || !bytes.Equal(raw, signed1) {
		t.Fatal("fetch did not adopt the source's signed bytes")
	}
	// Nothing newer on the peer now: the asker falls through to its next
	// source instead of re-adopting what it has.
	if err := sink.FetchPlacement(src.Addr()); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("fetch with equal epochs: %v, want ErrNoPlacement", err)
	}

	// Push a newer epoch at an authority-pinned node and watch it adopt.
	pinned, err := Listen("127.0.0.1:0", Options{Timeout: 4 * time.Second, PlacementAuthority: auth.ID})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pinned.Close() })
	signed2 := signedPlacement(t, auth, flatMap(2, 8, groups, 0))
	if err := sink.send(pinned.Addr(), wire.TPlacement, signed2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		m, _ := pinned.Placement()
		return m != nil && m.Epoch == 2
	})

	// src has no authority configured: an unsolicited push — even one signed
	// by the same key it already adopted maps from locally — is refused, and
	// its routing stays at the operator-installed epoch.
	if err := sink.send(src.Addr(), wire.TPlacement, signed2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return metric(t, src, "node_placement_rejected_total") >= 1 })
	if m, _ := src.Placement(); m == nil || m.Epoch != 1 {
		t.Fatalf("authority-less node adopted a pushed map (epoch %v)", m)
	}
}

// TestRoutedTrustWrongOwnerRedirect drives the stale-router path end to end:
// a client routing by epoch 1 asks the old owner, gets a wrong-owner answer,
// refreshes its map from the placement sources, and lands the request on the
// epoch-2 owner — all inside one RequestTrustRouted call.
func TestRoutedTrustWrongOwnerRedirect(t *testing.T) {
	relay := fleet(t, 1, 0)[0]
	a1, _, desc1 := overlayAgent(t, relay, Options{Group: "g1"})
	a2, _, desc2 := overlayAgent(t, relay, Options{Group: "g2"})
	groups := []overlay.Group{{ID: "g1", Descriptor: desc1}, {ID: "g2", Descriptor: desc2}}
	auth, _ := pkc.NewIdentity(nil)
	signed1 := signedPlacement(t, auth, flatMap(1, 8, groups, 0))
	signed2 := signedPlacement(t, auth, flatMap(2, 8, groups, 1))

	client, err := Listen("127.0.0.1:0", Options{
		Timeout:          4 * time.Second,
		PlacementSources: []string{a1.Addr(), a2.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ro, err := client.BuildOnion(fetchRoute(t, client, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	subject := subjectOwnedBy(t, flatMap(1, 8, groups, 0), 0)

	// No map: routed calls fail closed rather than guessing an owner.
	if _, _, err := client.RequestTrustRouted(subject, ro); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("routed request with no map: %v, want ErrNoPlacement", err)
	}

	// Agents are a full epoch ahead of the client.
	adoptAll(t, signed2, a1, a2)
	adoptAll(t, signed1, client)
	if _, hasData, err := client.RequestTrustRouted(subject, ro); err != nil || hasData {
		t.Fatalf("routed request = hasData=%v err=%v, want clean no-data answer", hasData, err)
	}
	if m, _ := client.Placement(); m.Epoch != 2 {
		t.Fatalf("client epoch after redirect = %d, want 2 (refreshed mid-call)", m.Epoch)
	}
	if got := metric(t, client, "node_placement_redirects_total"); got < 1 {
		t.Fatalf("client counted %d redirects, want >= 1", got)
	}
	if got := metric(t, a1, "node_placement_redirects_total"); got < 1 {
		t.Fatalf("old owner served %d wrong-owner answers, want >= 1", got)
	}
	// The stale map never got an answer out of the wrong owner.
	if served := a1.Stats().TrustServed; served != 0 {
		t.Fatalf("old owner served %d trust values for a subject it does not own", served)
	}
}

// TestReportBatchRoutedPartitions sends one mixed batch through the routed
// client API and checks every report lands at exactly the agent group the
// placement map assigns its subject's shard to.
func TestReportBatchRoutedPartitions(t *testing.T) {
	relay := fleet(t, 1, 0)[0]
	a1, _, desc1 := overlayAgent(t, relay, Options{Group: "g1"})
	a2, _, desc2 := overlayAgent(t, relay, Options{Group: "g2"})
	groups := []overlay.Group{{ID: "g1", Descriptor: desc1}, {ID: "g2", Descriptor: desc2}}
	auth, _ := pkc.NewIdentity(nil)
	m, err := overlay.Plan(1, 8, groups)
	if err != nil {
		t.Fatal(err)
	}
	signed := signedPlacement(t, auth, m)

	client, err := Listen("127.0.0.1:0", Options{Timeout: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ro, err := client.BuildOnion(fetchRoute(t, client, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}

	var reports []BatchReport
	if err := client.ReportBatchRouted(nil, reports, ro); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("routed batch with no map: %v, want ErrNoPlacement", err)
	}
	adoptAll(t, signed, a1, a2, client)

	for i := 0; i < 6; i++ {
		reports = append(reports,
			BatchReport{Subject: subjectOwnedBy(t, m, 0), Positive: i%2 == 0},
			BatchReport{Subject: subjectOwnedBy(t, m, 1), Positive: i%3 == 0})
	}
	if err := client.ReportBatchRouted(nil, reports, ro); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, client, "node_reports_acked_total"); got != int64(len(reports)) {
		t.Fatalf("acked %d of %d routed reports", got, len(reports))
	}
	waitFor(t, func() bool {
		return a1.Agent().Store().ReportCount()+a2.Agent().Store().ReportCount() == len(reports)
	})
	owners := []*Node{a1, a2}
	for _, r := range reports {
		g := m.Owner(r.Subject)
		if _, _, ok := owners[g].Agent().Store().Tally(r.Subject); !ok {
			t.Fatalf("subject %s missing at its owner group %d", r.Subject.Short(), g)
		}
		if _, _, ok := owners[1-g].Agent().Store().Tally(r.Subject); ok {
			t.Fatalf("subject %s leaked to the non-owning group", r.Subject.Short())
		}
	}
}

// TestRebalancePullMigratesShards runs a full planned group join: reports
// ingest under epoch 1 at the sole group, epoch 2 opens dual-ownership
// windows toward the joiner, an unauthorized pull is refused, the authorized
// pull seals + exports + merges every moved shard, writes to sealed shards
// ack wrong-owner while reads keep serving, and the Complete epoch finally
// redirects reads too.
func TestRebalancePullMigratesShards(t *testing.T) {
	relay := fleet(t, 1, 0)[0]
	a1, info1, desc1 := overlayAgent(t, relay, Options{Group: "g1", StoreShards: 8, Timeout: 2 * time.Second})
	a2, _, desc2 := overlayAgent(t, relay, Options{Group: "g2", StoreShards: 8, Timeout: 2 * time.Second})
	groups := []overlay.Group{{ID: "g1", Descriptor: desc1}, {ID: "g2", Descriptor: desc2}}
	auth, _ := pkc.NewIdentity(nil)
	m1 := flatMap(1, 8, groups, 0)
	m2, err := overlay.PlanChange(m1, groups)
	if err != nil {
		t.Fatal(err)
	}

	client, err := Listen("127.0.0.1:0", Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ro, err := client.BuildOnion(fetchRoute(t, client, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	adoptAll(t, signedPlacement(t, auth, m1), a1, a2, client)

	// Subjects chosen by their epoch-2 fate: half stay with g1, half move.
	var reports []BatchReport
	kept := make([]pkc.NodeID, 4)
	moved := make([]pkc.NodeID, 4)
	for i := range kept {
		kept[i] = subjectOwnedBy(t, m2, 0)
		reports = append(reports, BatchReport{Subject: kept[i], Positive: true})
	}
	for i := range moved {
		moved[i] = subjectOwnedBy(t, m2, 1)
		reports = append(reports, BatchReport{Subject: moved[i], Positive: i%2 == 0})
	}
	if err := client.ReportBatchRouted(nil, reports, ro); err != nil {
		t.Fatal(err)
	}
	if got := metric(t, client, "node_reports_acked_total"); got != int64(len(reports)) {
		t.Fatalf("acked %d of %d", got, len(reports))
	}
	waitFor(t, func() bool { return a1.Agent().Store().ReportCount() == len(reports) })
	if got := a2.Agent().Store().ReportCount(); got != 0 {
		t.Fatalf("joining group holds %d reports before the rebalance", got)
	}

	adoptAll(t, signedPlacement(t, auth, m2), a1, a2, client)
	moves := m2.Moves()
	if len(moves) == 0 {
		t.Fatal("epoch 2 opened no migration windows")
	}
	var moveShards []int
	for _, mv := range moves {
		if mv.From != 0 || mv.To != 1 {
			t.Fatalf("unexpected move %+v", mv)
		}
		moveShards = append(moveShards, mv.Shard)
	}

	// Handoff is an offline pairing: an unconfigured identity gets nothing.
	if _, err := a2.RebalancePull(a1.Addr(), moveShards[:1]); err == nil {
		t.Fatal("unauthorized rebalance pull succeeded")
	}
	if got := metric(t, a1, "node_handoff_sealed_total"); got != 0 {
		t.Fatalf("unauthorized peer sealed %d shards", got)
	}

	a1.AuthorizeHandoffPeer(a2.ID())
	done, err := a2.RebalancePull(a1.Addr(), moveShards)
	if err != nil {
		t.Fatal(err)
	}
	if done != len(moveShards) {
		t.Fatalf("pulled %d of %d shards", done, len(moveShards))
	}
	for _, id := range moved {
		wp, wn, ok := a1.Agent().Store().Tally(id)
		gp, gn, gok := a2.Agent().Store().Tally(id)
		if !ok || !gok || gp != wp || gn != wn {
			t.Fatalf("subject %s: new owner tally (%d,%d) ok=%v, old owner (%d,%d) ok=%v",
				id.Short(), gp, gn, gok, wp, wn, ok)
		}
	}
	if got := metric(t, a1, "node_handoff_sealed_total"); got != int64(len(moveShards)) {
		t.Fatalf("sealed %d shards, want %d", got, len(moveShards))
	}
	if got := metric(t, a2, "node_handoff_pulled_total"); got != int64(len(moveShards)) {
		t.Fatalf("pulled %d shards, want %d", got, len(moveShards))
	}

	// The seal stops writes at the old owner — a stale epoch-2 sender gets a
	// typed wrong-owner ack — while reads keep serving for the open window.
	statuses, err := client.ReportBatch(info1, []BatchReport{{Subject: moved[0], Positive: true}}, ro)
	if err != nil {
		t.Fatal(err)
	}
	if statuses[0] != StatusWrongOwner {
		t.Fatalf("write to a sealed shard acked %v, want wrong-owner", statuses[0])
	}
	if _, _, err := client.RequestTrust(info1, moved[0], ro); err != nil {
		t.Fatalf("read at the previous owner during the window: %v", err)
	}

	// Epoch 3 closes every window: the old owner now redirects reads too.
	adoptAll(t, signedPlacement(t, auth, overlay.Complete(m2)), a1)
	if _, _, err := client.RequestTrust(info1, moved[0], ro); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("read after the window closed: %v, want ErrWrongOwner", err)
	}
}

// cloneDir byte-copies a live store directory — the crash image a kill test
// reopens, taken while the process is still running.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "crash-image")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sendAcked delivers reports with ReportBatch, requires every status to be
// stored, and folds each acked report into the shadow tally model.
func sendAcked(t *testing.T, from *Node, info AgentInfo, reports []BatchReport, ro *onion.Onion, shadow map[pkc.NodeID][2]int) {
	t.Helper()
	statuses, err := from.ReportBatch(info, reports, ro)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != StatusStored {
			t.Fatalf("report %d acked %v, want stored", i, st)
		}
		c := shadow[reports[i].Subject]
		if reports[i].Positive {
			c[0]++
		} else {
			c[1]++
		}
		shadow[reports[i].Subject] = c
	}
}

// TestRebalanceSurvivesOldOwnerCrash is the chaos capstone: the old owner
// group is killed (crash image of its live store dir, no graceful close)
// midway through a shard rebalance, revived as a fresh identity, the driver
// republishes the map with the already-pulled windows closed, traffic keeps
// flowing through the reopened dual-ownership window, and the rebalance
// finishes against the revived node. Every report ever acked as stored —
// before the crash and after — must be present, at exactly its shadow-model
// tally, at the group owning it under the final map. Zero acked-report loss.
func TestRebalanceSurvivesOldOwnerCrash(t *testing.T) {
	const shards = 8
	relay := fleet(t, 1, 0)[0]
	storeDir := filepath.Join(t.TempDir(), "g1-store")
	a1, info1, desc1 := overlayAgent(t, relay, Options{Group: "g1", StoreShards: shards, StoreDir: storeDir})
	a2, info2, desc2 := overlayAgent(t, relay, Options{
		Group: "g2", StoreShards: shards, StoreDir: filepath.Join(t.TempDir(), "g2-store"),
	})
	auth, _ := pkc.NewIdentity(nil)

	client, err := Listen("127.0.0.1:0", Options{Timeout: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	ro, err := client.BuildOnion(fetchRoute(t, client, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1: g1 owns everything.
	m1 := flatMap(1, shards, []overlay.Group{{ID: "g1", Descriptor: desc1}}, 0)
	adoptAll(t, signedPlacement(t, auth, m1), a1, client)

	// Wave 1: acked ingest into g1, mirrored into the shadow model.
	shadow := make(map[pkc.NodeID][2]int)
	subjects := make([]pkc.NodeID, 24)
	var wave1 []BatchReport
	for i := range subjects {
		var id pkc.NodeID
		if _, err := rand.Read(id[:]); err != nil {
			t.Fatal(err)
		}
		subjects[i] = id
		wave1 = append(wave1,
			BatchReport{Subject: id, Positive: true},
			BatchReport{Subject: id, Positive: true},
			BatchReport{Subject: id, Positive: i%3 == 0})
	}
	sendAcked(t, client, info1, wave1, ro, shadow)
	// ReportCount rises only once the WAL batch is durable; waiting on it
	// pins every acked report inside the crash image taken below.
	waitFor(t, func() bool { return a1.Agent().Store().ReportCount() == len(wave1) })

	// Epoch 2: g2 joins; the changed shards open dual-ownership windows.
	groups2 := []overlay.Group{{ID: "g1", Descriptor: desc1}, {ID: "g2", Descriptor: desc2}}
	m2, err := overlay.PlanChange(m1, groups2)
	if err != nil {
		t.Fatal(err)
	}
	adoptAll(t, signedPlacement(t, auth, m2), a1, a2, client)
	moves := m2.Moves()
	if len(moves) < 2 {
		t.Fatalf("join opened %d windows, want >= 2 to split around the crash", len(moves))
	}
	a1.AuthorizeHandoffPeer(a2.ID())

	// Pull half the moved shards, then crash the old owner mid-rebalance.
	var pulled, remaining []int
	for i, mv := range moves {
		if i < len(moves)/2 {
			pulled = append(pulled, mv.Shard)
		} else {
			remaining = append(remaining, mv.Shard)
		}
	}
	if done, err := a2.RebalancePull(a1.Addr(), pulled); err != nil || done != len(pulled) {
		t.Fatalf("first pull: done=%d err=%v", done, err)
	}

	crashDir := cloneDir(t, storeDir)
	_ = a1.Close() // the clone above is the crash image; this just frees the port

	// Revive g1's store under a fresh identity and republish the map: same
	// windows for the un-pulled shards, but the already-migrated windows are
	// recorded closed — the driver knows which pulls completed, and a window
	// must never be pulled twice (the additive merge would double-count).
	r1, rinfo1, rdesc1 := overlayAgent(t, relay, Options{Group: "g1", StoreShards: shards, StoreDir: crashDir})
	m3 := &overlay.Map{
		Epoch:  m2.Epoch + 1,
		Shards: shards,
		Groups: []overlay.Group{{ID: "g1", Descriptor: rdesc1}, {ID: "g2", Descriptor: desc2}},
		Assign: append([]int32(nil), m2.Assign...),
		Prev:   append([]int32(nil), m2.Prev...),
	}
	for _, s := range pulled {
		m3.Prev[s] = overlay.NoPrev
	}
	adoptAll(t, signedPlacement(t, auth, m3), r1, a2, client)
	r1.AuthorizeHandoffPeer(a2.ID())

	// Wave 2, through the reopened window: new subjects plus re-reports of
	// wave-1 subjects, routed by the current map and shadow-modelled off the
	// acks exactly like wave 1.
	var wave2 []BatchReport
	for i := 0; i < 16; i++ {
		var id pkc.NodeID
		if _, err := rand.Read(id[:]); err != nil {
			t.Fatal(err)
		}
		wave2 = append(wave2,
			BatchReport{Subject: id, Positive: i%2 == 0},
			BatchReport{Subject: id, Positive: true})
	}
	for _, id := range subjects[:8] {
		wave2 = append(wave2, BatchReport{Subject: id, Positive: false})
	}
	byGroup := map[int][]BatchReport{}
	for _, r := range wave2 {
		g := m3.Owner(r.Subject)
		byGroup[g] = append(byGroup[g], r)
	}
	ownerInfos := []AgentInfo{rinfo1, info2}
	for g, part := range byGroup {
		sendAcked(t, client, ownerInfos[g], part, ro, shadow)
	}

	// Finish the rebalance against the revived node and close every window.
	if done, err := a2.RebalancePull(r1.Addr(), remaining); err != nil || done != len(remaining) {
		t.Fatalf("final pull: done=%d err=%v", done, err)
	}
	m4 := overlay.Complete(m3)
	adoptAll(t, signedPlacement(t, auth, m4), r1, a2, client)

	// Zero acked loss: every subject's tally at its final owner equals the
	// shadow model exactly — not smoothed, not approximately.
	ownerNodes := []*Node{r1, a2}
	for id, want := range shadow {
		g := m4.Owner(id)
		pos, neg, ok := ownerNodes[g].Agent().Store().Tally(id)
		if !ok || pos != want[0] || neg != want[1] {
			t.Fatalf("subject %s at group %d: tally (%d,%d) ok=%v, shadow (%d,%d)",
				id.Short(), g, pos, neg, ok, want[0], want[1])
		}
	}
	if got := metric(t, a2, "node_handoff_pulled_total"); got != int64(len(moves)) {
		t.Fatalf("new owner pulled %d shards across the crash, want %d", got, len(moves))
	}
}

// FuzzDecodeHandoff throws arbitrary bytes at the handoff frame surface:
// replUnwrap plus the seal/export request decoder must never panic, and an
// accepted request must round-trip through its fields.
func FuzzDecodeHandoff(f *testing.F) {
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		f.Fatal(err)
	}
	var sp wire.Encoder
	sp.U64(replSigHandoff).U64(handoffOpSeal).U64(2).U64(4).U64(8)
	f.Add(replWrap(id, sp.Encode()))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, part, ok := replUnwrap(data)
		if !ok {
			return
		}
		q, ok := decodeHandoffReq(part)
		if !ok {
			return
		}
		var e wire.Encoder
		e.U64(replSigHandoff).U64(q.op).U64(q.epoch).U64(q.shard).U64(q.shardCount)
		if !bytes.Equal(e.Encode(), part) {
			t.Fatal("accepted handoff request does not round-trip")
		}
	})
}
