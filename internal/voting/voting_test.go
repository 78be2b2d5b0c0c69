package voting

import (
	"math"
	"testing"

	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/xrand"
)

func buildSystem(t testing.TB, n, deg int, cfg Config, seed int64) *System {
	t.Helper()
	rng := xrand.New(seed)
	g, err := topology.Generate(topology.GenSpec{Model: topology.FixedAvgDegree, N: n, AvgDegree: deg}, rng.Split("topo"))
	if err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(g, simnet.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	oracle := trust.NewOracle(n, 0.5, rng.Split("oracle"))
	sys, err := NewSystem(net, oracle, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TTL: 0, CandidatesPerTx: 1, Rating: trust.DefaultRatingModel()},
		{TTL: 4, MaliciousFrac: -1, CandidatesPerTx: 1, Rating: trust.DefaultRatingModel()},
		{TTL: 4, MaliciousFrac: math.NaN(), CandidatesPerTx: 1, Rating: trust.DefaultRatingModel()},
		{TTL: 4, CandidatesPerTx: 0, Rating: trust.DefaultRatingModel()},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPollCollectsVotes(t *testing.T) {
	sys := buildSystem(t, 200, 4, DefaultConfig(), 1)
	res := sys.RunRandomTransaction()
	if res.Voters == 0 {
		t.Fatal("no votes collected")
	}
	// TTL 4 over degree 4 should reach a large share of 200 nodes.
	if res.Voters < 50 {
		t.Fatalf("only %d voters reached", res.Voters)
	}
	if res.TrustMessages <= int64(res.Voters) {
		t.Fatalf("flood traffic %d implausibly small for %d voters", res.TrustMessages, res.Voters)
	}
	if res.ResponseTime <= 0 {
		t.Fatal("non-positive response time")
	}
}

func TestEstimatesBounded(t *testing.T) {
	sys := buildSystem(t, 150, 3, DefaultConfig(), 2)
	for i := 0; i < 10; i++ {
		res := sys.RunRandomTransaction()
		for j, e := range res.Estimates {
			if math.IsNaN(float64(e)) {
				continue
			}
			if e < 0 || e > 1 {
				t.Fatalf("estimate %v out of range for candidate %d", e, j)
			}
		}
	}
}

func TestAccuracyWithHonestMajority(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaliciousFrac = 0
	sys := buildSystem(t, 200, 4, cfg, 3)
	var mse trust.MSEAccumulator
	for i := 0; i < 20; i++ {
		res := sys.RunRandomTransaction()
		for j, c := range res.Candidates {
			mse.Observe(res.Estimates[j], sys.oracle.TrueValue(int(c)))
		}
	}
	// All-honest voting: estimates ~0.8/0.2 for truth 1/0 -> MSE ~ 0.04.
	if mse.MSE() > 0.08 {
		t.Fatalf("honest-voting MSE %.4f too high", mse.MSE())
	}
}

func TestAccuracyDegradesWithAttackers(t *testing.T) {
	// Figure 7's driving property: voting accuracy collapses as the
	// malicious fraction grows, because all votes count equally.
	mseAt := func(frac float64) float64 {
		cfg := DefaultConfig()
		cfg.MaliciousFrac = frac
		sys := buildSystem(t, 200, 4, cfg, 4)
		var mse trust.MSEAccumulator
		for i := 0; i < 15; i++ {
			res := sys.RunRandomTransaction()
			for j, c := range res.Candidates {
				mse.Observe(res.Estimates[j], sys.oracle.TrueValue(int(c)))
			}
		}
		return mse.MSE()
	}
	low, mid, high := mseAt(0.1), mseAt(0.5), mseAt(0.9)
	if !(low < mid && mid < high) {
		t.Fatalf("MSE not increasing with attackers: %.4f %.4f %.4f", low, mid, high)
	}
}

func TestTrafficGrowsWithDegree(t *testing.T) {
	// Figure 5: denser overlays flood more messages.
	msgsAt := func(deg int) int64 {
		sys := buildSystem(t, 300, deg, DefaultConfig(), 5)
		var total int64
		for i := 0; i < 5; i++ {
			total += sys.RunRandomTransaction().TrustMessages
		}
		return total
	}
	m2, m3, m4 := msgsAt(2), msgsAt(3), msgsAt(4)
	if !(m2 < m3 && m3 < m4) {
		t.Fatalf("flood traffic not increasing with degree: %d %d %d", m2, m3, m4)
	}
}

func TestVotersBoundedByReach(t *testing.T) {
	sys := buildSystem(t, 150, 3, DefaultConfig(), 6)
	g := sys.net.Graph()
	for i := 0; i < 5; i++ {
		requestor := topology.NodeID(sys.rng.Intn(150))
		res := sys.RunTransaction(requestor, sys.PickCandidates(requestor))
		reach := g.ReachableWithin(requestor, sys.cfg.TTL)
		if res.Voters > reach {
			t.Fatalf("%d voters exceed %d reachable nodes", res.Voters, reach)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []TxResult {
		sys := buildSystem(t, 120, 3, DefaultConfig(), 7)
		out := make([]TxResult, 5)
		for i := range out {
			out[i] = sys.RunRandomTransaction()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Requestor != b[i].Requestor || a[i].Chosen != b[i].Chosen ||
			a[i].TrustMessages != b[i].TrustMessages || a[i].Voters != b[i].Voters {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestMaliciousAssignment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaliciousFrac = 0.3
	sys := buildSystem(t, 1000, 4, cfg, 8)
	frac := float64(sys.MaliciousCount()) / 1000
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("malicious fraction %.3f, want ~0.3", frac)
	}
}

func TestOracleMismatchRejected(t *testing.T) {
	rng := xrand.New(1)
	g, _ := topology.Generate(topology.GenSpec{Model: topology.PowerLaw, N: 50, AvgDegree: 4}, rng)
	net, _ := simnet.New(g, simnet.DefaultConfig(1))
	oracle := trust.NewOracle(10, 0.5, rng)
	if _, err := NewSystem(net, oracle, DefaultConfig(), rng); err == nil {
		t.Fatal("mismatch accepted")
	}
}

func TestChosenAmongCandidates(t *testing.T) {
	sys := buildSystem(t, 100, 3, DefaultConfig(), 9)
	for i := 0; i < 10; i++ {
		res := sys.RunRandomTransaction()
		ok := false
		for _, c := range res.Candidates {
			if c == res.Chosen {
				ok = true
			}
		}
		if !ok {
			t.Fatal("chosen not among candidates")
		}
	}
}

// narrowRating rates good subjects 0.9 and bad ones 0.1 to within 1e-12, so a
// poll's estimates do not depend on how far each voter's random stream has
// advanced and a long-lived System can be compared with a fresh one.
func narrowRating() trust.RatingModel {
	return trust.RatingModel{GoodLo: 0.9, GoodHi: 0.9 + 1e-12, BadLo: 0.1, BadHi: 0.1 + 1e-12}
}

// TestScratchReuseLeaksNothing: 50 consecutive polls on one System answer
// exactly as 50 fresh Systems given one poll each. Every poll reuses the
// per-node query and vote records and the seen stamps of the polls before
// it; a stale stamp would lose voters, a stale record would bend a route or a
// vote. TTL 7 floods the whole overlay through its deepest trees.
func TestScratchReuseLeaksNothing(t *testing.T) {
	for _, ttl := range []int{4, 7} {
		cfg := DefaultConfig()
		cfg.TTL = ttl
		cfg.MaliciousFrac = 0.3
		cfg.Rating = narrowRating()
		const n, seed = 150, 11
		used := buildSystem(t, n, 3, cfg, seed)
		wl := xrand.New(99)
		for i := 0; i < 50; i++ {
			requestor := topology.NodeID(wl.Intn(n))
			candidates := used.PickCandidates(requestor)
			got := used.RunTransaction(requestor, candidates)
			want := buildSystem(t, n, 3, cfg, seed).RunTransaction(requestor, candidates)
			if got.Voters != want.Voters || got.TrustMessages != want.TrustMessages {
				t.Fatalf("ttl %d poll %d: %d voters, %d msgs on the reused system; %d, %d on a fresh one",
					ttl, i, got.Voters, got.TrustMessages, want.Voters, want.TrustMessages)
			}
			// The reused system's clock has advanced, so times agree to
			// rounding, not to the bit.
			if d := float64(got.ResponseTime - want.ResponseTime); math.Abs(d) > 1e-9*float64(want.ResponseTime) {
				t.Fatalf("ttl %d poll %d: response time %v, fresh %v", ttl, i, got.ResponseTime, want.ResponseTime)
			}
			for j := range want.Estimates {
				if math.Abs(float64(got.Estimates[j]-want.Estimates[j])) > 1e-9 {
					t.Fatalf("ttl %d poll %d: estimates %v, fresh %v", ttl, i, got.Estimates, want.Estimates)
				}
			}
		}
	}
}

// TestWireBytesMatchRouteLength: on a hand-built tree (no duplicate queries)
// the byte counters equal the closed-form sums of querySize and voteSize over
// route lengths, so the depth a hop records is the length of the route a
// message would carry.
//
//	0 - 1 - 3 - 5
//	|   |
//	2   4
func TestWireBytesMatchRouteLength(t *testing.T) {
	g := topology.NewGraph(6)
	for _, e := range [][2]topology.NodeID{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {3, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	const requestor, nc = 0, 2
	dist := g.BFSDistances(requestor)
	for _, ttl := range []int{2, 4} {
		net, err := simnet.New(g, simnet.DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.TTL = ttl
		cfg.CandidatesPerTx = nc
		sys, err := NewSystem(net, trust.NewOracle(6, 0.5, xrand.New(1)), cfg, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		res := sys.RunTransaction(requestor, []topology.NodeID{4, 5})

		var wantReq, wantResp, voters int
		for v, d := range dist {
			if d > ttl {
				continue // the flood dies before it gets here
			}
			// A node d hops out forwards, while TTL lasts, to every
			// neighbour but the one it heard from, a route d+1 long.
			if fanout := g.Degree(topology.NodeID(v)); d == 0 {
				wantReq += fanout * querySize(nc, 1)
			} else if d < ttl {
				wantReq += (fanout - 1) * querySize(nc, d+1)
			}
			// Its vote travels d hops, the route one node shorter each hop.
			for left := d; left >= 1; left-- {
				wantResp += voteSize(nc, left)
			}
			if d > 0 {
				voters++
			}
		}
		if got := net.Bytes(KindVoteReq); got != int64(wantReq) {
			t.Errorf("ttl %d: %d query bytes, want %d", ttl, got, wantReq)
		}
		if got := net.Bytes(KindVoteResp); got != int64(wantResp) {
			t.Errorf("ttl %d: %d vote bytes, want %d", ttl, got, wantResp)
		}
		if res.Voters != voters {
			t.Errorf("ttl %d: %d voters, want %d", ttl, res.Voters, voters)
		}
	}
}

// TestWarmPollAllocations: once a System has run a poll, another allocates
// only its result and the odd growth of the simulator's event slab — nothing
// per message (a poll here sends over a thousand).
func TestWarmPollAllocations(t *testing.T) {
	sys := buildSystem(t, 300, 4, DefaultConfig(), 3)
	requestor := topology.NodeID(3)
	candidates := sys.PickCandidates(requestor)
	var msgs int64
	allocs := testing.AllocsPerRun(20, func() {
		msgs = sys.RunTransaction(requestor, candidates).TrustMessages
	})
	if allocs > 16 {
		t.Fatalf("%v allocations per warm poll of %d messages, want <= 16", allocs, msgs)
	}
}

// TestPollRefusesPendingEvents: the per-node records are only reusable on a
// drained network.
func TestPollRefusesPendingEvents(t *testing.T) {
	sys := buildSystem(t, 50, 3, DefaultConfig(), 4)
	sys.net.After(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("RunTransaction started a poll with an event pending")
		}
	}()
	sys.RunTransaction(0, sys.PickCandidates(0))
}
