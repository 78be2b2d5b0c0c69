// Livenet: a real hiREP network on loopback TCP — every node a separate
// listener with its own keys — exercising the full live protocol: Figure 3
// relay handshakes, layered onion construction, onion-routed trust requests
// and signed transaction reports. This is the paper's future-work prototype
// (§6) at laptop scale.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"time"

	"hirep"
	"hirep/internal/node"
)

func main() {
	// Fleet: 2 agents, 4 relays, 3 ordinary peers.
	mk := func(agent bool) *hirep.Node {
		n, err := hirep.Listen("127.0.0.1:0", hirep.NodeOptions{Agent: agent, Timeout: 5 * time.Second})
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	agents := []*hirep.Node{mk(true), mk(true)}
	relays := []*hirep.Node{mk(false), mk(false), mk(false), mk(false)}
	peersN := []*hirep.Node{mk(false), mk(false), mk(false)}
	all := append(append(append([]*hirep.Node{}, agents...), relays...), peersN...)
	defer func() {
		for _, n := range all {
			_ = n.Close()
		}
	}()
	fmt.Printf("live fleet: %d nodes on loopback (2 agents, 4 relays, 3 peers)\n\n", len(all))

	// Each agent publishes a descriptor: handshake with two relays, build a
	// signed onion, encode. Peers receive descriptors out of band (the live
	// prototype's stand-in for the agent-list walk).
	var descriptors []string
	for i, a := range agents {
		route := fetchRoute(a, relays[i], relays[i+1])
		o, err := a.BuildOnion(route)
		if err != nil {
			log.Fatal(err)
		}
		desc := hirep.EncodeAgentInfo(a.Info(o))
		descriptors = append(descriptors, desc)
		fmt.Printf("agent %d (%s) published onion via relays %d,%d — descriptor %d bytes\n",
			i, a.ID().Short(), i, i+1, len(desc))
	}

	// A provider identity the peers transact with.
	provider, err := hirep.NewIdentity()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprovider under evaluation: %s\n", provider.ID.Short())

	// Every peer builds its own reply onion and introduces itself to both
	// agents with an initial trust request (which registers its key, §3.5.2).
	infos := make([]hirep.AgentInfo, len(descriptors))
	for i, d := range descriptors {
		info, err := hirep.DecodeAgentInfo(d)
		if err != nil {
			log.Fatal(err)
		}
		infos[i] = info
	}
	replyOnions := make([]*hirep.Onion, len(peersN))
	for i, p := range peersN {
		route := fetchRoute(p, relays[(i+1)%4], relays[(i+3)%4])
		o, err := p.BuildOnion(route)
		if err != nil {
			log.Fatal(err)
		}
		replyOnions[i] = o
		for _, info := range infos {
			if _, _, err := p.RequestTrust(info, provider.ID, o); err != nil {
				log.Fatalf("peer %d introduction: %v", i, err)
			}
		}
	}
	fmt.Println("all peers introduced to both agents through onions")

	// Peers 0 and 1 had good transactions with the provider; peer 2 got a
	// polluted file. Each reports to both agents as a signed, onion-routed
	// batch of one, and the agent's ack — back through the peer's own onion —
	// says whether the report landed.
	outcomes := []bool{true, true, false}
	for i, p := range peersN {
		for j, info := range infos {
			report := []node.BatchReport{{Subject: provider.ID, Positive: outcomes[i]}}
			statuses, err := p.ReportBatch(info, report, replyOnions[i])
			if err != nil {
				log.Fatal(err)
			}
			if statuses[0] != node.StatusStored {
				log.Fatalf("peer %d report to agent %d acked %v", i, j, statuses[0])
			}
		}
	}
	for i, a := range agents {
		fmt.Printf("agent %d state: %s\n", i, a.Agent())
	}

	// A fresh requestor asks both agents and aggregates.
	fmt.Println("\npeer 0 fetches the provider's trust value from both agents:")
	var sum float64
	for i, info := range infos {
		v, hasData, err := peersN[0].RequestTrust(info, provider.ID, replyOnions[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  agent %d says %.3f (from reports: %v)\n", i, float64(v), hasData)
		sum += float64(v)
	}
	fmt.Printf("aggregated trust value: %.3f (2 good + 1 bad report -> Laplace (2+1)/(3+2)=0.6)\n", sum/2)
	fmt.Println("\nno party ever learned another's IP from protocol messages: all trust traffic rode onions")
}

func fetchRoute(n *hirep.Node, rs ...*hirep.Node) []hirep.Relay {
	route := make([]hirep.Relay, len(rs))
	for i, r := range rs {
		rel, err := n.FetchAnonKey(r.Addr())
		if err != nil {
			log.Fatal(err)
		}
		route[i] = rel
	}
	return route
}
