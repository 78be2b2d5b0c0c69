package node

import (
	"fmt"
	"sync"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/wire"
)

// This file implements the live counterpart of the §3.4.1 trusted-agent list
// request: a token/TTL-limited walk over operator-supplied neighbor
// addresses (the live stand-in for overlay links, like Gnutella host
// caches). A node that holds agent descriptors — its own, or ones cached
// from earlier walks — answers the requestor directly, consuming a token;
// remaining tokens split across its neighbors.

// SetNeighbors installs the node's overlay neighbors (transport addresses).
func (n *Node) SetNeighbors(addrs []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.neighbors = append([]string(nil), addrs...)
}

// Neighbors returns the configured neighbor addresses.
func (n *Node) Neighbors() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.neighbors...)
}

// PublishDescriptor makes this agent discoverable: it runs the Figure 3
// handshake against each relay address, builds a fresh onion, and caches the
// resulting descriptor so agent-list walks can return it. Returns the
// encoded descriptor. Only agents publish.
func (n *Node) PublishDescriptor(relayAddrs []string) (string, error) {
	if n.agent == nil {
		return "", ErrNotAgent
	}
	route, err := n.fetchRouteAddrs(relayAddrs)
	if err != nil {
		return "", err
	}
	o, err := n.BuildOnion(route)
	if err != nil {
		return "", err
	}
	desc := EncodeInfo(n.Info(o))
	n.mu.Lock()
	n.ownDescriptor = desc
	n.mu.Unlock()
	return desc, nil
}

func (n *Node) fetchRouteAddrs(addrs []string) ([]relayAlias, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("node: need at least one relay")
	}
	route := make([]relayAlias, 0, len(addrs))
	for _, a := range addrs {
		rel, err := n.FetchAnonKey(a)
		if err != nil {
			return nil, fmt.Errorf("node: relay %s: %w", a, err)
		}
		route = append(route, rel)
	}
	return route, nil
}

// cacheAgent remembers a verified foreign descriptor for future walks.
func (n *Node) cacheAgent(desc string) bool {
	info, err := DecodeInfo(desc)
	if err != nil {
		return false
	}
	id := info.ID()
	if id == n.ID() {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.agentCache == nil {
		n.agentCache = make(map[pkc.NodeID]string)
	}
	if len(n.agentCache) >= maxCachedAgents {
		if _, dup := n.agentCache[id]; !dup {
			return false
		}
	}
	n.agentCache[id] = desc
	return true
}

// maxCachedAgents bounds each node's descriptor cache.
const maxCachedAgents = 64

// knownDescriptors returns this node's own descriptor (if published) plus
// cached foreign descriptors, capped at limit.
func (n *Node) knownDescriptors(limit int) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	if n.ownDescriptor != "" {
		out = append(out, n.ownDescriptor)
	}
	for _, d := range n.agentCache {
		if len(out) >= limit {
			break
		}
		out = append(out, d)
	}
	return out
}

// DiscoverAgents runs a token/TTL-limited agent-list walk over the neighbor
// graph and returns the distinct verified agent descriptors collected within
// wait. Results are also cached for answering future walks.
func (n *Node) DiscoverAgents(tokens, ttl int, wait time.Duration) ([]AgentInfo, error) {
	if n.isClosed() {
		return nil, ErrClosed
	}
	if tokens < 1 || ttl < 1 {
		return nil, fmt.Errorf("node: tokens and ttl must be >= 1")
	}
	neighbors := n.Neighbors()
	if len(neighbors) == 0 {
		return nil, fmt.Errorf("node: no neighbors configured")
	}
	reqID, err := pkc.NewNonce(nil)
	if err != nil {
		return nil, err
	}
	collect := &discoveryCollect{descs: make(map[string]bool)}
	n.mu.Lock()
	if n.discoveries == nil {
		n.discoveries = make(map[pkc.Nonce]*discoveryCollect)
	}
	n.discoveries[reqID] = collect
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.discoveries, reqID)
		n.mu.Unlock()
	}()

	// Split the token budget across neighbors, §3.4.1-style.
	if len(neighbors) > tokens {
		neighbors = neighbors[:tokens]
	}
	base := tokens / len(neighbors)
	extra := tokens % len(neighbors)
	for i, nb := range neighbors {
		t := base
		if i < extra {
			t++
		}
		var e wire.Encoder
		e.Bytes(reqID[:]).String(n.Addr()).String(n.Addr()).U64(uint64(t)).U64(uint64(ttl))
		_ = n.send(nb, wire.TAgentListReq, e.Encode())
	}
	time.Sleep(wait)

	collect.mu.Lock()
	descs := make([]string, 0, len(collect.descs))
	for d := range collect.descs {
		descs = append(descs, d)
	}
	collect.mu.Unlock()
	var infos []AgentInfo
	seen := map[pkc.NodeID]bool{}
	for _, d := range descs {
		info, err := DecodeInfo(d)
		if err != nil {
			continue // unverifiable descriptors are dropped silently
		}
		if seen[info.ID()] || info.ID() == n.ID() {
			continue
		}
		seen[info.ID()] = true
		infos = append(infos, info)
		n.cacheAgent(d)
	}
	return infos, nil
}

// Ping probes a node's liveness with an echo round trip (the §3.4.3 backup
// probe: "the peer first probes all back up agents"). It reports whether the
// target answered with the matching payload within the node's probe timeout —
// a deliberately short deadline, distinct from the request timeout, because a
// probe's common case is a dead peer and it is never retried.
func (n *Node) Ping(addr string) bool {
	nonce, err := pkc.NewNonce(nil)
	if err != nil {
		return false
	}
	typ, echo, err := n.roundTripTimeout(addr, wire.TPing, nonce[:], n.opts.ProbeTimeout)
	if err != nil || typ != wire.TPong || len(echo) != pkc.NonceSize {
		return false
	}
	var got pkc.Nonce
	copy(got[:], echo)
	return got == nonce
}

// discoveryCollect accumulates one walk's responses.
type discoveryCollect struct {
	mu    sync.Mutex
	descs map[string]bool
}

// handleAgentListReq serves one hop of a walk.
func (n *Node) handleAgentListReq(payload []byte) {
	d := wire.NewDecoder(payload)
	idRaw := d.Bytes()
	origin := d.String()
	sender := d.String()
	tokens := int(d.U64())
	ttl := int(d.U64())
	if d.Finish() != nil || len(idRaw) != pkc.NonceSize || origin == "" {
		return
	}
	var reqID pkc.Nonce
	copy(reqID[:], idRaw)
	// Deduplicate: a node answers each walk at most once; repeats drop the
	// tokens, exactly like the simulated walk.
	n.mu.Lock()
	if n.walksSeen == nil {
		n.walksSeen = pkc.NewReplayCache(1024)
	}
	seenBefore := !n.walksSeen.Observe(reqID)
	n.mu.Unlock()
	if seenBefore {
		return
	}
	// Answer with known descriptors, consuming one token.
	if descs := n.knownDescriptors(8); len(descs) > 0 {
		var e wire.Encoder
		e.Bytes(reqID[:]).U64(uint64(len(descs)))
		for _, desc := range descs {
			e.String(desc)
		}
		_ = n.send(origin, wire.TAgentListResp, e.Encode())
		n.cnt.walksAnswered.Inc()
		tokens--
	}
	if tokens <= 0 || ttl <= 1 {
		return
	}
	// Forward the remaining tokens to neighbors other than where the request
	// came from (and never back to the origin).
	var neighbors []string
	for _, nb := range n.Neighbors() {
		if nb != sender && nb != origin {
			neighbors = append(neighbors, nb)
		}
	}
	if len(neighbors) == 0 {
		return
	}
	if len(neighbors) > tokens {
		neighbors = neighbors[:tokens]
	}
	base := tokens / len(neighbors)
	extra := tokens % len(neighbors)
	for i, nb := range neighbors {
		t := base
		if i < extra {
			t++
		}
		var e wire.Encoder
		e.Bytes(reqID[:]).String(origin).String(n.Addr()).U64(uint64(t)).U64(uint64(ttl - 1))
		_ = n.send(nb, wire.TAgentListReq, e.Encode())
	}
}

// handleAgentListResp collects walk answers at the origin.
func (n *Node) handleAgentListResp(payload []byte) {
	d := wire.NewDecoder(payload)
	idRaw := d.Bytes()
	count := int(d.U64())
	if len(idRaw) != pkc.NonceSize || count < 0 || count > 64 {
		return
	}
	descs := make([]string, 0, count)
	for i := 0; i < count; i++ {
		descs = append(descs, d.String())
	}
	if d.Finish() != nil {
		return
	}
	var reqID pkc.Nonce
	copy(reqID[:], idRaw)
	n.mu.Lock()
	collect := n.discoveries[reqID]
	n.mu.Unlock()
	if collect == nil {
		return
	}
	collect.mu.Lock()
	for _, desc := range descs {
		collect.descs[desc] = true
	}
	collect.mu.Unlock()
}
