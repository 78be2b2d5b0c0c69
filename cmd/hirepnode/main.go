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
// Journal undeliverable reports so they survive a restart, and require two
// agent answers per evaluation (DESIGN.md §8):
//
//	hirepnode -outbox /var/lib/hirep/outbox.journal -quorum 2
//
// Retries, backoff, breakers, probe deadlines, the outbox's cap and flush
// cadence (§8), the connection pool and session cap (§9), and the report
// batch size and verification pool (§11) run at the constants DESIGN.md
// lists; no flag changes them.
//
// Replicate an agent's report store to standby agents (DESIGN.md §10) —
// committed batches ship live, periodic anti-entropy heals divergence, and a
// bounded hinted-handoff queue covers replica downtime:
//
//	hirepnode -listen 127.0.0.1:7001 -agent -store /var/lib/hirep \
//	          -replicas 127.0.0.1:7004,127.0.0.1:7005
//
// On the replica side, replication ingress is an explicit pairing: a standby
// only accepts state for primaries named in -replica-of, and only serves
// digests/shard fetches to the group members named there or in -replica-peers
// (hex node IDs, as printed at startup):
//
//	hirepnode -listen 127.0.0.1:7004 -agent -store /var/lib/hirep-replica \
//	          -replica-of <primary-id-hex> -replica-peers <peer-id-hex>,...
//
// Gate report admission (DESIGN.md §13) — an agent demands a one-time
// proof-of-work bound to each new reporter identity before storing its first
// report, and optional rate accounting revokes admission from identities
// that flood past a burst of 512 reports (they must re-solve). Senders solve
// and retry automatically:
//
//	hirepnode -listen 127.0.0.1:7001 -agent -admission-pow 18 -admission-rate 2.0
//
// Serve verifiable reads (DESIGN.md §14) — an agent retains up to -evidence
// signed report wires per subject and answers proof requests with
// self-verifying bundles; -proof-cache memoizes the bundles and signed trust
// snapshots it serves, each valid for 60s:
//
//	hirepnode -listen 127.0.0.1:7001 -agent -store /var/lib/hirep \
//	          -evidence 256 -proof-cache 1024
//
// Run the self-healing trust plane (DESIGN.md §15) — a background auditor
// samples subjects across the node's discovered agents, re-verifies their
// proof bundles, cross-checks a second agent, and turns provable lies into
// signed advisories gossiped to neighbors; verified liars are quarantined
// (probation-probed) and evicted on a second distinct offense, with standbys
// promoted into vacated slots. Requires -relays for the audit reply route:
//
//	hirepnode -listen 127.0.0.1:7007 -relays 127.0.0.1:7002,127.0.0.1:7003 \
//	          -neighbors 127.0.0.1:7002 -audit-interval 30s
//
// Agent-only flags (-store, -replicas, -replica-of, -replica-peers,
// -evidence, -proof-cache) on a node without -agent are rejected at startup,
// exit status 2.
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

// bookQuorum is the -quorum flag value, applied to every agent book this
// process builds (see hirepBookFor).
var bookQuorum = 1

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		agent     = flag.Bool("agent", false, "serve as a reputation agent")
		store     = flag.String("store", "", "durable report store directory (agents only; empty = in-memory)")
		relays    = flag.String("relays", "", "comma-separated relay addresses to publish an onion through")
		neighbors = flag.String("neighbors", "", "comma-separated node addresses for agent-discovery walks and advisory gossip")
		demo      = flag.Bool("demo", false, "run the loopback demonstration fleet and exit")

		// Delivery (DESIGN.md §8).
		outboxPath = flag.String("outbox", "", "journal file for undeliverable reports (empty = in-memory outbox)")
		quorum     = flag.Int("quorum", 1, "minimum agent answers for an evaluation to succeed")

		// Replication (DESIGN.md §10, agents only).
		replicas     = flag.String("replicas", "", "comma-separated replica agent addresses to ship committed batches to")
		replicaOf    = flag.String("replica-of", "", "comma-separated hex node IDs of primaries this node accepts replication state for")
		replicaPeers = flag.String("replica-peers", "", "comma-separated hex node IDs of fellow replica-group members allowed to read replication state")

		// Admission gate (agents only): per-identity first-report proof-of-work
		// plus report-rate accounting, pricing sybil floods (DESIGN.md §13).
		admissionPoW  = flag.Int("admission-pow", 0, "leading-zero bits demanded from an identity's first report (0 = gate off, max 30)")
		admissionRate = flag.Float64("admission-rate", 0, "per-identity admitted-report refill rate per second, burst 512 (0 = no rate accounting)")

		// Verifiable reads (DESIGN.md §14) and self-healing audit (§15).
		evidence      = flag.Int("evidence", 0, "signed report wires retained per subject for proof bundles, agents only (0 = tallies only)")
		proofCache    = flag.Int("proof-cache", 0, "entries in the agent's cache of served proof bundles and signed trust snapshots, agents only (0 = no cache)")
		auditInterval = flag.Duration("audit-interval", 0, "background audit sweep cadence (0 = auditing off; requires -relays and -neighbors)")
	)
	flag.Parse()

	if *demo {
		if err := runDemo(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *auditInterval > 0 && *relays == "" {
		fmt.Fprintln(os.Stderr, "hirepnode: -audit-interval requires -relays (the audit reply route)")
		os.Exit(2)
	}
	if *auditInterval > 0 && *neighbors == "" {
		fmt.Fprintln(os.Stderr, "hirepnode: -audit-interval requires -neighbors (agent discovery and advisory gossip)")
		os.Exit(2)
	}
	replicaAddrs := splitList(*replicas)
	parseIDs := func(flagName, s string) []pkc.NodeID {
		var out []pkc.NodeID
		for _, h := range splitList(s) {
			id, err := pkc.ParseNodeID(h)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hirepnode: %s: %v\n", flagName, err)
				os.Exit(2)
			}
			out = append(out, id)
		}
		return out
	}

	n, err := node.Listen(*listen, node.Options{
		Agent:            *agent,
		StoreDir:         *store,
		Replicas:         replicaAddrs,
		ReplicaOf:        parseIDs("-replica-of", *replicaOf),
		ReplicaPeers:     parseIDs("-replica-peers", *replicaPeers),
		OutboxPath:       *outboxPath,
		AdmissionPoWBits: *admissionPoW,
		AdmissionRate:    *admissionRate,
		EvidenceCap:      *evidence,
		ProofCache:       *proofCache,
		AuditInterval:    *auditInterval,
	})
	if err != nil {
		// Any Listen failure exits 2, the status of a bad flag: invalid
		// options (an agent-only setting without -agent) as well as an
		// address in use, an unreadable store or outbox journal.
		fmt.Fprintln(os.Stderr, "hirepnode:", err)
		os.Exit(2)
	}
	bookQuorum = *quorum
	defer n.Close()
	role := "relay"
	if *agent {
		role = "reputation agent"
		if *store != "" {
			role = "reputation agent, durable store in " + *store
		}
		if len(replicaAddrs) > 0 {
			role += fmt.Sprintf(", replicating to %d agent(s)", len(replicaAddrs))
		}
		if *evidence > 0 {
			role += fmt.Sprintf(", retaining %d report wires/subject", *evidence)
		}
	}
	fmt.Printf("hirep node %s (%s) listening on %s\n", n.ID().Short(), role, n.Addr())
	if *neighbors != "" {
		n.SetNeighbors(splitList(*neighbors))
	}
	if *agent {
		// The full ID is what operators paste into a standby's -replica-of
		// (and fellow standbys' -replica-peers) to pair the replica group.
		fmt.Printf("  node id %s\n", n.ID())
	}

	if *relays != "" {
		relayAddrs := splitList(*relays)
		var o *onion.Onion
		if *agent {
			// PublishDescriptor caches the descriptor so §3.4.1 agent-list
			// walks can return this agent — printing alone keeps it
			// invisible to discovery.
			desc, err := n.PublishDescriptor(relayAddrs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			info, err := node.DecodeInfo(desc)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			o = info.Onion
			fmt.Printf("descriptor (give to peers):\n%s\n", desc)
		} else {
			route, err := fetchRoute(n, relayAddrs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			o, err = n.BuildOnion(route)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("descriptor (give to peers):\n%s\n", node.EncodeInfo(n.Info(o)))
		}

		if *auditInterval > 0 {
			// The auditor sweeps the discovered agent book, answering through
			// this node's own onion (DESIGN.md §15).
			book, err := hirepBookFor(n)
			if err != nil {
				fmt.Fprintln(os.Stderr, "audit: agent discovery:", err)
				os.Exit(1)
			}
			if err := n.StartAuditor(book, o); err != nil {
				fmt.Fprintln(os.Stderr, "audit:", err)
				os.Exit(1)
			}
			fmt.Printf("auditing %d agent(s) every %s\n", book.Len(), *auditInterval)
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
	book.SetQuorum(bookQuorum)
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
	fmt.Printf("    aggregate trust value: %.3f (%d agent(s) answered)\n", float64(v), len(perAgent))
	fmt.Println("\ndemo complete: voter anonymity via onions, authenticity via signatures, no CA")
	return nil
}
