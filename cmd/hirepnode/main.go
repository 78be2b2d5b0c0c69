// Command hirepnode runs a live hiREP node over TCP — the paper's
// future-work prototype — or a self-contained local demonstration fleet.
//
// Serve a node (add -agent for the reputation-agent role):
//
//	hirepnode -listen 127.0.0.1:7001 -agent
//
// Give an agent a durable report store (internal/repstore WAL + snapshots in
// the directory; reports survive restarts, and Ctrl-C flushes a snapshot):
//
//	hirepnode -listen 127.0.0.1:7001 -agent -store /var/lib/hirep
//
// Publish an agent descriptor through a set of relays (run on the agent):
//
//	hirepnode -listen 127.0.0.1:7001 -agent -relays 127.0.0.1:7002,127.0.0.1:7003
//
// Retries, backoff, breakers, probe deadlines, the outbox's cap and flush
// cadence (§8), the connection pool and session cap (§9), and the report
// batch size and verification pool (§11) run at the constants DESIGN.md
// lists; no flag changes them.
//
// An agent whose machine or disk is lost for good costs its peers no
// acknowledged report: each peer reports every transaction to all of its
// agents (§3.6), and a peer's breaker demotes the dead agent and promotes a
// standby from its backup cache (§3.4.3, DESIGN.md §10).
//
// Serve verifiable reads (DESIGN.md §14) — an agent retains up to -evidence
// signed report wires per subject and answers proof requests with
// self-verifying bundles; -proof-cache memoizes the bundles and signed trust
// snapshots it serves, each valid for 60s:
//
//	hirepnode -listen 127.0.0.1:7001 -agent -store /var/lib/hirep \
//	          -evidence 256 -proof-cache 1024
//
// A lying agent is dropped by §3.4.3's expertise rule: its answers stop
// predicting outcomes, its expertise falls below the threshold, and the peer
// bans it. A peer that wants to check an agent's tally itself asks for the
// proof bundle, which names the agent as the liar if its published tally
// disagrees with its own signed evidence (DESIGN.md §14).
//
// Agent-only flags (-store, -evidence, -proof-cache)
// on a node without -agent are rejected at startup, exit status 2.
//
// Run the full zero-config demonstration on loopback — an agent, a reporter,
// a requestor, and a relay chain exchanging onion-routed trust traffic:
//
//	hirepnode -demo
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"hirep/internal/node"
	"hirep/internal/onion"
	"hirep/internal/pkc"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		agent     = flag.Bool("agent", false, "serve as a reputation agent")
		store     = flag.String("store", "", "durable report store directory (agents only; empty = in-memory)")
		relays    = flag.String("relays", "", "comma-separated relay addresses to publish an onion through")
		neighbors = flag.String("neighbors", "", "comma-separated node addresses for agent-discovery walks")
		demo      = flag.Bool("demo", false, "run the loopback demonstration fleet and exit")

		// Verifiable reads (DESIGN.md §14).
		evidence   = flag.Int("evidence", 0, "signed report wires retained per subject for proof bundles, agents only (0 = tallies only)")
		proofCache = flag.Int("proof-cache", 0, "entries in the agent's cache of served proof bundles and signed trust snapshots, agents only (0 = no cache)")
	)
	flag.Parse()

	if *demo {
		if err := runDemo(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	n, err := node.Listen(*listen, node.Options{
		Agent:       *agent,
		StoreDir:    *store,
		EvidenceCap: *evidence,
		ProofCache:  *proofCache,
	})
	if err != nil {
		// Any Listen failure exits 2, the status of a bad flag: invalid
		// options (an agent-only setting without -agent) as well as an
		// address in use or an unreadable store.
		fmt.Fprintln(os.Stderr, "hirepnode:", err)
		os.Exit(2)
	}
	defer n.Close()
	role := "relay"
	if *agent {
		role = "reputation agent"
		if *store != "" {
			role = "reputation agent, durable store in " + *store
		}
		if *evidence > 0 {
			role += fmt.Sprintf(", retaining %d report wires/subject", *evidence)
		}
	}
	fmt.Printf("hirep node %s (%s) listening on %s\n", n.ID().Short(), role, n.Addr())
	if *neighbors != "" {
		n.SetNeighbors(splitList(*neighbors))
	}

	if *relays != "" {
		relayAddrs := splitList(*relays)
		if *agent {
			// PublishDescriptor caches the descriptor so §3.4.1 agent-list
			// walks can return this agent — printing alone keeps it
			// invisible to discovery.
			desc, err := n.PublishDescriptor(relayAddrs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("descriptor (give to peers):\n%s\n", desc)
		} else {
			route, err := fetchRoute(n, relayAddrs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			o, err := n.BuildOnion(route)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("descriptor (give to peers):\n%s\n", node.EncodeInfo(n.Info(o)))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
	n.Metrics().Table("node").Render(os.Stdout)
	// Graceful shutdown: drain in-flight handlers and flush the report store
	// (snapshot + WAL release) before exiting.
	if err := n.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		os.Exit(1)
	}
}

// splitList splits a comma-separated flag value, dropping blank items.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// hirepBookFor discovers agents for a node and fills a fresh trusted-agent
// book.
func hirepBookFor(n *node.Node) (*node.AgentBook, error) {
	infos, err := n.DiscoverAgents(8, 5, 800*time.Millisecond)
	if err != nil {
		return nil, err
	}
	book, err := node.NewAgentBook(10, 0.3, 0.4)
	if err != nil {
		return nil, err
	}
	for _, info := range infos {
		book.Add(info)
	}
	n.AttachBook(book)
	return book, nil
}

func fetchRoute(n *node.Node, addrs []string) ([]onion.Relay, error) {
	route := make([]onion.Relay, 0, len(addrs))
	for _, a := range addrs {
		rel, err := n.FetchAnonKey(a)
		if err != nil {
			return nil, fmt.Errorf("handshake with %s: %w", a, err)
		}
		route = append(route, rel)
	}
	return route, nil
}

// runDemo wires a loopback fleet and walks through the full protocol,
// including network-based agent discovery: nobody is handed a descriptor out
// of band.
func runDemo() error {
	fmt.Println("hiREP live demonstration (all nodes on loopback, real crypto)")
	mk := func(agent bool) (*node.Node, error) {
		return node.Listen("127.0.0.1:0", node.Options{Agent: agent, Timeout: 5 * time.Second})
	}
	agentNode, err := mk(true)
	if err != nil {
		return err
	}
	defer agentNode.Close()
	requestor, err := mk(false)
	if err != nil {
		return err
	}
	defer requestor.Close()
	reporter, err := mk(false)
	if err != nil {
		return err
	}
	defer reporter.Close()
	var relays []*node.Node
	for i := 0; i < 3; i++ {
		r, err := mk(false)
		if err != nil {
			return err
		}
		defer r.Close()
		relays = append(relays, r)
	}
	fmt.Printf("  agent     %s at %s\n", agentNode.ID().Short(), agentNode.Addr())
	fmt.Printf("  requestor %s at %s\n", requestor.ID().Short(), requestor.Addr())
	fmt.Printf("  reporter  %s at %s\n", reporter.ID().Short(), reporter.Addr())
	for i, r := range relays {
		fmt.Printf("  relay %d   %s at %s\n", i, r.ID().Short(), r.Addr())
	}

	// Overlay links (like Gnutella host caches): requestor - relay0 - relay1
	// - agent, reporter - relay2 - relay0.
	requestor.SetNeighbors([]string{relays[0].Addr()})
	reporter.SetNeighbors([]string{relays[2].Addr()})
	relays[0].SetNeighbors([]string{requestor.Addr(), relays[1].Addr(), relays[2].Addr()})
	relays[1].SetNeighbors([]string{relays[0].Addr(), agentNode.Addr()})
	relays[2].SetNeighbors([]string{reporter.Addr(), relays[0].Addr()})
	agentNode.SetNeighbors([]string{relays[1].Addr()})

	fmt.Println("\n[1] agent fetches relay anonymity keys (Figure 3 handshake) and publishes its onion")
	desc, err := agentNode.PublishDescriptor([]string{relays[0].Addr(), relays[1].Addr()})
	if err != nil {
		return err
	}
	fmt.Printf("    descriptor: %.48s... (%d bytes, cached for discovery walks)\n", desc, len(desc))

	fmt.Println("\n[2] requestor and reporter DISCOVER the agent with token/TTL walks over the overlay")
	book, err := hirepBookFor(requestor)
	if err != nil {
		return err
	}
	repBook, err := hirepBookFor(reporter)
	if err != nil {
		return err
	}
	fmt.Printf("    requestor found %d trusted agent(s); reporter found %d\n", book.Len(), repBook.Len())
	if book.Len() == 0 || repBook.Len() == 0 {
		return fmt.Errorf("agent discovery failed")
	}

	subject, err := pkc.NewIdentity(nil)
	if err != nil {
		return err
	}
	fmt.Printf("\n[3] reporter builds its own onion and files 3 signed reports about subject %s as one acknowledged batch\n", subject.ID.Short())
	repRoute, err := fetchRoute(reporter, []string{relays[1].Addr(), relays[2].Addr()})
	if err != nil {
		return err
	}
	repOnion, err := reporter.BuildOnion(repRoute)
	if err != nil {
		return err
	}
	if _, _, err := reporter.RequestTrust(repBook.Agents()[0], subject.ID, repOnion); err != nil {
		return fmt.Errorf("introduce reporter: %w", err)
	}
	batch := make([]node.BatchReport, 3)
	for i := range batch {
		batch[i] = node.BatchReport{Subject: subject.ID, Positive: true}
	}
	statuses, err := reporter.ReportBatch(repBook.Agents()[0], batch, repOnion)
	if err != nil {
		return err
	}
	fmt.Printf("    per-report ack statuses: %v (the agent vouches each one landed)\n", statuses)
	fmt.Printf("    agent state: %s\n", agentNode.Agent())

	fmt.Println("\n[4] requestor evaluates the subject through its discovered trusted agents")
	reqRoute, err := fetchRoute(requestor, []string{relays[2].Addr(), relays[0].Addr()})
	if err != nil {
		return err
	}
	reqOnion, err := requestor.BuildOnion(reqRoute)
	if err != nil {
		return err
	}
	v, perAgent, err := requestor.EvaluateSubject(book, subject.ID, reqOnion)
	if err != nil {
		return err
	}
	fmt.Printf("    aggregate trust value: %.3f (%d agent(s) with an opinion)\n", float64(v), len(perAgent))
	fmt.Println("\ndemo complete: voter anonymity via onions, authenticity via signatures, no CA")
	return nil
}
