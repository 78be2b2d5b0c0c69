package node

import (
	"fmt"

	"hirep/internal/pkc"
	"hirep/internal/wire"
)

// This file implements the live side of §3.5's periodic key update: "New
// public keys signed by current private key can be sent out using the most
// recently received onions."

// RotateIdentity generates a successor identity, announces it to the given
// agents through their onions, and switches the node to the new identity.
// The previous identity remains able to peel onions and open payloads for a
// short grace window (old descriptors keep working until peers refresh), but
// new signatures and reports use the successor; the node's reply route and
// one-way agents are dropped until a request and an acked batch re-establish
// them under the successor. It returns the old and new node IDs.
func (n *Node) RotateIdentity(agents []AgentInfo) (oldID, newID pkc.NodeID, err error) {
	if n.isClosed() {
		return pkc.NodeID{}, pkc.NodeID{}, ErrClosed
	}
	n.mu.Lock() // serialises rotations; readers load the snapshot lock-free
	ids := n.identities()
	old := ids[0]
	next, updateWire, rerr := old.Rotate(nil)
	if rerr != nil {
		n.mu.Unlock()
		return pkc.NodeID{}, pkc.NodeID{}, rerr
	}
	if len(ids) > maxPrevIdentities {
		ids = ids[:maxPrevIdentities]
	}
	rotated := append([]*pkc.Identity{next}, ids...)
	n.ids.Store(&rotated)
	n.mu.Unlock()
	// Onions signed by the old key no longer verify against the new SP, and
	// agents know the old nodeID, not the new one: the flusher waits for a
	// fresh reply route, and every agent is first contact again.
	n.replyRoute.Store(nil)
	n.oneWayMu.Lock()
	n.oneWay = nil
	n.oneWayMu.Unlock()

	// Announce to every agent that knows the old identity, sealed to the
	// agent and routed through its onion like any other report.
	var firstErr error
	for _, a := range agents {
		sealed, serr := pkc.Seal(a.AP, updateWire, nil)
		if serr != nil {
			if firstErr == nil {
				firstErr = serr
			}
			continue
		}
		if serr := n.sendThroughOnion(a.Onion, wire.TKeyUpdate, sealed); serr != nil && firstErr == nil {
			firstErr = fmt.Errorf("node: announce rotation: %w", serr)
		}
	}
	return old.ID, next.ID, firstErr
}

// handleKeyUpdate applies a peer's key rotation at an agent: the agent
// verifies the succession against the predecessor's registered key and
// remaps its public-key list and report tallies (§3.5: "map and replace an
// old nodeid to a new nodeid").
func (n *Node) handleKeyUpdate(sealed []byte) {
	if n.agent == nil {
		return
	}
	_, plain, ok := n.openAny(sealed)
	if !ok {
		return
	}
	_, _ = n.agent.ApplyKeyUpdate(plain)
}
