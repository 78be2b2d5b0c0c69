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
// retaining agent, one requestor, and two relays.
func proofFleet(t *testing.T) (agent, requestor *Node, relays []*Node) {
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
	relays = []*Node{mk(Options{}), mk(Options{})}
	return agent, requestor, relays
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
	agentNode, requestor, relays := proofFleet(t)
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
	agentNode.setProofTamper(func(b *proof.Bundle) { b.Pos += 2 })
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
	agentNode, requestor, relays := proofFleet(t)
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
// any notion of insertion-time TTL.
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
// memoised ones is still Lying (and re-examined on every read), a wire a
// cache corrupted after signing is still ErrBadAgent with nothing pinned on
// the agent.
func TestProofWarmVerifierKeepsEveryVerdict(t *testing.T) {
	agentNode, requestor, relays := proofFleet(t)
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
	agentNode.setProofTamper(flipWire)
	for i := 0; i < 2; i++ {
		res, cost, err := read(info)
		if err != nil || res.Verdict != proof.Lying || !strings.Contains(res.Reason, "evidence 3: report signature invalid") || cost != 1 {
			t.Fatalf("forged wire, read %d: %+v, %d signature checks, %v; want Lying at 1", i+1, res, cost, err)
		}
	}
	agentNode.setProofTamper(nil)
	if got := metric(t, requestor, "node_proofs_lying_total"); got != 2 {
		t.Fatalf("node_proofs_lying_total = %d, want 2", got)
	}

	// A cache re-serves the honest bundle, then a copy with the same wire
	// corrupted after signing: the attestation no longer covers the bytes,
	// so nothing is pinned. The cache is a second agent's payload cache,
	// seeded with the first agent's bundle.
	b, _, err := requestor.RequestTrustProven(info, subject.ID, reqOnion)
	if err != nil {
		t.Fatal(err)
	}
	cacheNode, err := Listen("127.0.0.1:0", Options{Agent: true, ProofCache: 16, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cacheNode.Close() })
	cacheOnion, err := cacheNode.BuildOnion(fetchRoute(t, cacheNode, relays[:1]))
	if err != nil {
		t.Fatal(err)
	}
	cacheInfo := cacheNode.Info(cacheOnion)
	key := proofCacheKey(subject.ID, proofKindBundle)
	cacheNode.proofCache.put(key, b.Encode(), time.Now().Add(time.Minute))
	if res, cost, err := read(cacheInfo); err != nil || res.Verdict != proof.Matching || cost != 0 {
		t.Fatalf("re-served from a cache: %+v, %d signature checks, %v; want Matching at 0", res, cost, err)
	}
	flipWire(b)
	cacheNode.proofCache.put(key, b.Encode(), time.Now().Add(time.Minute))
	if _, _, err := read(cacheInfo); !errors.Is(err, ErrBadAgent) {
		t.Fatalf("cache-corrupted bundle: err = %v, want ErrBadAgent", err)
	}
	if got := metric(t, requestor, "node_proofs_lying_total"); got != 2 {
		t.Fatalf("cache corruption was pinned on the agent: node_proofs_lying_total = %d", got)
	}
}
