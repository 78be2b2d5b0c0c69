package node

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/proof"
)

// proofFleet starts a live loopback topology for proof tests: one evidence-
// retaining agent, one requestor, one edge (non-agent with a proof cache),
// and two relays. Only the agent retains evidence; the edge's role is
// configured per test.
func proofFleet(t *testing.T) (agent, requestor, edge *Node, relays []*Node) {
	t.Helper()
	mk := func(opts Options) *Node {
		opts.Timeout = 5 * time.Second
		nd, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		return nd
	}
	agent = mk(Options{Agent: true, EvidenceCap: 64})
	requestor = mk(Options{})
	edge = mk(Options{ProofCache: 16})
	relays = []*Node{mk(Options{}), mk(Options{})}
	return agent, requestor, edge, relays
}

// seedReports files count positive reports about subject with the agent over
// the live protocol, from reporter.
func seedReports(t *testing.T, reporter *Node, info AgentInfo, subject pkc.NodeID, count int, agentNode *Node) {
	t.Helper()
	repOnion, err := reporter.BuildOnion(fetchRoute(t, reporter, []*Node{agentNode}))
	if err != nil {
		t.Fatal(err)
	}
	// A trust request first, so the agent learns the reporter's key (§3.5.2).
	if _, _, err := reporter.RequestTrust(info, subject, repOnion); err != nil {
		t.Fatal(err)
	}
	before := agentNode.Agent().ReportCount()
	reports := make([]BatchReport, count)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject, Positive: true}
	}
	if _, err := reporter.ReportBatch(info, reports, repOnion); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return agentNode.Agent().ReportCount() == before+count })
}

// TestProofEndToEndAudit is the §14 audit story over live TCP and onions: an
// honest agent's bundle verifies Matching; after the tamper hook makes the
// same agent sign an inflated tally, the requestor's verification returns a
// provably-lying verdict attributed to the agent's key — with the verdict
// visible in both sides' counters.
func TestProofEndToEndAudit(t *testing.T) {
	agentNode, requestor, _, relays := proofFleet(t)
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	seedReports(t, requestor, info, subject.ID, 3, agentNode)

	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	b, res, err := requestor.RequestTrustProven(info, subject.ID, reqOnion)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != proof.Matching || b.Pos != 3 || b.Neg != 0 {
		t.Fatalf("honest agent: verdict %v (%s), tally %d/%d", res.Verdict, res.Reason, b.Pos, b.Neg)
	}
	if b.AgentID() != agentNode.ID() {
		t.Fatal("bundle not attributed to the serving agent")
	}

	// The agent turns dishonest: it signs bundles claiming two extra
	// positives its own evidence does not back.
	agentNode.SetProofTamper(func(b *proof.Bundle) { b.Pos += 2 })
	b2, res2, err := requestor.RequestTrustProven(info, subject.ID, reqOnion)
	if err != nil {
		t.Fatalf("lying bundle must still verify (it is authenticated): %v", err)
	}
	if res2.Verdict != proof.Lying {
		t.Fatalf("tampered agent: verdict %v (%s)", res2.Verdict, res2.Reason)
	}
	// The evidence recomputation still yields the true tally: the querier
	// walks away with the correct answer AND proof of the lie.
	if res2.Pos != 3 || b2.AgentID() != agentNode.ID() {
		t.Fatalf("audit: recomputed %d, attributed to %v", res2.Pos, b2.AgentID())
	}

	if served := metric(t, agentNode, "node_proofs_served_total"); served < 2 {
		t.Fatalf("agent node_proofs_served_total = %d", served)
	}
	verified, lying := metric(t, requestor, "node_proofs_verified_total"), metric(t, requestor, "node_proofs_lying_total")
	if verified < 2 || lying != 1 {
		t.Fatalf("requestor verdict counters: verified=%d lying=%d", verified, lying)
	}
}

func TestProofSnapshotEndToEnd(t *testing.T) {
	agentNode, requestor, _, relays := proofFleet(t)
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	seedReports(t, requestor, info, subject.ID, 4, agentNode)

	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := requestor.RequestTrustSnapshot(info, subject.ID, reqOnion)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Pos != 4 || ts.Neg != 0 || ts.AgentID() != agentNode.ID() {
		t.Fatalf("snapshot %d/%d from %v", ts.Pos, ts.Neg, ts.AgentID())
	}
	if want := 5.0 / 6.0; float64(ts.Trust()) != want {
		t.Fatalf("snapshot trust %v, want %v", ts.Trust(), want)
	}
	if ts.Expires <= uint64(time.Now().Add(-time.Second).Unix()) {
		t.Fatal("snapshot already expired at issue")
	}
}

// TestProofEdgeCacheZeroAgentRoundTrips pins the edge-cache serving claim: a
// requestor pointed at a non-agent edge gets a verifying bundle, and once the
// edge holds the payload, repeat reads touch the agent zero times — its
// ProofsServed counter stays flat while the edge's cache-hit counter climbs.
func TestProofEdgeCacheZeroAgentRoundTrips(t *testing.T) {
	agentNode, requestor, edge, relays := proofFleet(t)
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	agentInfo := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	seedReports(t, requestor, agentInfo, subject.ID, 5, agentNode)

	// The edge publishes its own onion and forwards misses to the agent
	// through a reply onion of its own.
	edgeOnion, err := edge.BuildOnion(fetchRoute(t, edge, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	edgeFwd, err := edge.BuildOnion(fetchRoute(t, edge, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.ConfigureProofEdge(agentInfo, edgeFwd); err != nil {
		t.Fatal(err)
	}
	edgeInfo := edge.Info(edgeOnion)

	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	// Cold cache: the edge forwards to the agent once.
	b, res, err := requestor.RequestTrustProven(edgeInfo, subject.ID, reqOnion)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != proof.Matching || b.Pos != 5 {
		t.Fatalf("through edge: verdict %v, tally %d", res.Verdict, b.Pos)
	}
	// The bundle stays attributed to the AGENT even though the edge served it.
	if b.AgentID() != agentNode.ID() {
		t.Fatal("edge-served bundle not attributed to the issuing agent")
	}
	servedAfterCold := metric(t, agentNode, "node_proofs_served_total")
	if servedAfterCold == 0 {
		t.Fatal("cold read did not reach the agent")
	}

	// Warm cache: repeat reads are served entirely by the edge.
	const repeats = 3
	for i := 0; i < repeats; i++ {
		b, res, err = requestor.RequestTrustProven(edgeInfo, subject.ID, reqOnion)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != proof.Matching || b.Pos != 5 {
			t.Fatalf("warm read %d: verdict %v, tally %d", i, res.Verdict, b.Pos)
		}
	}
	if served := metric(t, agentNode, "node_proofs_served_total"); served != servedAfterCold {
		t.Fatalf("warm reads reached the agent: ProofsServed %d -> %d", servedAfterCold, served)
	}
	hits, served := edge.Stats().ProofCacheHits, metric(t, edge, "node_proofs_served_total")
	if hits < repeats || served < repeats {
		t.Fatalf("edge counters: hits=%d served=%d, want >= %d", hits, served, repeats)
	}

	// Snapshots ride the same cache, keyed separately from bundles.
	ts, err := requestor.RequestTrustSnapshot(edgeInfo, subject.ID, reqOnion)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Pos != 5 || ts.AgentID() != agentNode.ID() {
		t.Fatalf("snapshot via edge: %d positives from %v", ts.Pos, ts.AgentID())
	}
	servedSnap := metric(t, agentNode, "node_proofs_served_total")
	if _, err := requestor.RequestTrustSnapshot(edgeInfo, subject.ID, reqOnion); err != nil {
		t.Fatal(err)
	}
	if served := metric(t, agentNode, "node_proofs_served_total"); served != servedSnap {
		t.Fatal("warm snapshot read reached the agent")
	}
}

// TestProofEvidenceCapRequiresAgent pins the Options validation: retention
// without an agent is a configuration error, not a silent no-op.
func TestProofEvidenceCapRequiresAgent(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Options{EvidenceCap: 8}); err == nil {
		t.Fatal("EvidenceCap without Agent accepted")
	}
}

// TestProofAgentMemoizesAssembly: an agent given its own proof cache serves
// repeat bundle reads from it instead of re-assembling and re-signing.
func TestProofAgentMemoizesAssembly(t *testing.T) {
	mk := func(opts Options) *Node {
		opts.Timeout = 5 * time.Second
		nd, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		return nd
	}
	agentNode := mk(Options{Agent: true, EvidenceCap: 16, ProofCache: 8})
	requestor := mk(Options{})
	relay := mk(Options{})
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	seedReports(t, requestor, info, subject.ID, 2, agentNode)

	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, []*Node{relay}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, res, err := requestor.RequestTrustProven(info, subject.ID, reqOnion); err != nil || res.Verdict != proof.Matching {
			t.Fatalf("read %d: %v %v", i, res.Verdict, err)
		}
	}
	s := agentNode.Stats()
	if s.ProofCacheHits != 2 || s.ProofCacheMisses != 1 {
		t.Fatalf("agent memoization: hits=%d misses=%d, want 2/1", s.ProofCacheHits, s.ProofCacheMisses)
	}
}

// TestProofCachePutSemantics pins the two cache-entry contracts callers rely
// on: an overwrite refreshes the key's eviction-order slot (a re-fetched hot
// entry must not be evicted as "oldest"), and the explicit expires wins over
// any notion of insertion-time TTL — the edge path caps it at the snapshot's
// embedded validity.
func TestProofCachePutSemantics(t *testing.T) {
	now := time.Now()
	c := newProofCache(2, time.Minute)
	c.put("a", []byte("a1"), now.Add(time.Minute))
	c.put("b", []byte("b1"), now.Add(time.Minute))
	// Overwrite "a": it must move behind "b" in eviction order.
	c.put("a", []byte("a2"), now.Add(time.Minute))
	c.put("c", []byte("c1"), now.Add(time.Minute)) // evicts the true oldest: "b"
	if _, ok := c.get("b", now); ok {
		t.Fatal("overwrite did not refresh eviction order: stale key outlived hot key")
	}
	if p, ok := c.get("a", now); !ok || string(p) != "a2" {
		t.Fatalf("refreshed entry lost: %q %v", p, ok)
	}
	if len(c.m) != 2 || len(c.order) != 2 {
		t.Fatalf("cache size drifted: map=%d order=%d", len(c.m), len(c.order))
	}

	// Explicit expiry is honored exactly: a payload whose embedded validity
	// ends before the cache TTL must miss once that moment passes.
	c.put("s", []byte("snap"), now.Add(10*time.Second))
	if _, ok := c.get("s", now.Add(9*time.Second)); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := c.get("s", now.Add(11*time.Second)); ok {
		t.Fatal("entry served past its explicit expiry")
	}
}

func sigMemoMisses(n *Node) int64 { return n.reg.Snapshot()["sig_memo_misses_total"] }

// TestProofWarmVerifierKeepsEveryVerdict reads one subject's bundle again
// and again through the requestor's verifier: the second read re-checks at
// most one evidence signature, a report filed in between costs exactly one,
// and a warm memo changes no verdict — a wire the agent forged among
// memoised ones is still Lying (and re-examined on every read), a wire an
// edge corrupted is still ErrBadAgent with nothing pinned on the agent.
func TestProofWarmVerifierKeepsEveryVerdict(t *testing.T) {
	agentNode, requestor, edge, relays := proofFleet(t)
	agentOnion, err := agentNode.BuildOnion(fetchRoute(t, agentNode, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	info := agentNode.Info(agentOnion)
	subject, _ := pkc.NewIdentity(nil)
	seedReports(t, requestor, info, subject.ID, 6, agentNode)
	reqOnion, err := requestor.BuildOnion(fetchRoute(t, requestor, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(from AgentInfo) (proof.Result, int64, error) {
		t.Helper()
		before := sigMemoMisses(requestor)
		_, res, err := requestor.RequestTrustProven(from, subject.ID, reqOnion)
		return res, sigMemoMisses(requestor) - before, err
	}
	if res, cost, err := read(info); err != nil || res.Verdict != proof.Matching || cost != 6 {
		t.Fatalf("first read: %+v, %d signature checks, %v; want Matching at 6", res, cost, err)
	}
	if res, cost, err := read(info); err != nil || res.Verdict != proof.Matching || cost > 1 {
		t.Fatalf("second read: %+v, %d signature checks, %v; want Matching at <= 1", res, cost, err)
	}
	// Filing the report built the requestor a newer onion, which retires the
	// one the reads answered through.
	seedReports(t, requestor, info, subject.ID, 1, agentNode)
	if reqOnion, err = requestor.BuildOnion(fetchRoute(t, requestor, relays[1:2])); err != nil {
		t.Fatal(err)
	}
	if res, cost, err := read(info); err != nil || res.Verdict != proof.Matching || res.Pos != 7 || cost != 1 {
		t.Fatalf("read after one more report: %+v, %d signature checks, %v; want Matching 7/0 at 1", res, cost, err)
	}

	// The agent forges one wire of a bundle whose other six are memoised.
	flipWire := func(b *proof.Bundle) {
		w := append([]byte(nil), b.Evidence[3].Wire...)
		w[len(w)-1] ^= 1
		b.Evidence[3].Wire = w
	}
	agentNode.SetProofTamper(flipWire)
	for i := 0; i < 2; i++ {
		res, cost, err := read(info)
		if err != nil || res.Verdict != proof.Lying || !strings.Contains(res.Reason, "evidence 3: report signature invalid") || cost != 1 {
			t.Fatalf("forged wire, read %d: %+v, %d signature checks, %v; want Lying at 1", i+1, res, cost, err)
		}
	}
	agentNode.SetProofTamper(nil)
	if got := metric(t, requestor, "node_proofs_lying_total"); got != 2 {
		t.Fatalf("node_proofs_lying_total = %d, want 2", got)
	}

	// An edge corrupts the same wire in its cached copy of the honest bundle:
	// the attestation no longer covers the bytes, so nothing is pinned.
	edgeOnion, err := edge.BuildOnion(fetchRoute(t, edge, relays[1:2]))
	if err != nil {
		t.Fatal(err)
	}
	edgeFwd, err := edge.BuildOnion(fetchRoute(t, edge, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.ConfigureProofEdge(info, edgeFwd); err != nil {
		t.Fatal(err)
	}
	edgeInfo := edge.Info(edgeOnion)
	if res, cost, err := read(edgeInfo); err != nil || res.Verdict != proof.Matching || cost != 0 {
		t.Fatalf("through the edge: %+v, %d signature checks, %v; want Matching at 0", res, cost, err)
	}
	key := proofCacheKey(subject.ID, proofKindBundle)
	payload, ok := edge.proofCache.get(key, time.Now())
	if !ok {
		t.Fatal("edge did not cache the bundle")
	}
	b, err := proof.DecodeBundle(payload)
	if err != nil {
		t.Fatal(err)
	}
	flipWire(b)
	edge.proofCache.put(key, b.Encode(), time.Now().Add(time.Minute))
	if _, _, err := read(edgeInfo); !errors.Is(err, ErrBadAgent) {
		t.Fatalf("edge-corrupted bundle: err = %v, want ErrBadAgent", err)
	}
	if got := metric(t, requestor, "node_proofs_lying_total"); got != 2 {
		t.Fatalf("edge corruption was pinned on the agent: node_proofs_lying_total = %d", got)
	}
}
