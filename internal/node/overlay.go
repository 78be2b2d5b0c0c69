package node

import (
	"errors"
	"fmt"
	"sync"

	"hirep/internal/onion"
	"hirep/internal/overlay"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/transport"
	"hirep/internal/trust"
	"hirep/internal/wire"
)

// This file plumbs the routed reputation overlay (internal/overlay,
// DESIGN.md §12) through the live node. A signed placement map partitions the
// subject-ID space into shards and assigns each shard to an agent group; the
// client-side routed APIs (RequestTrustRouted, ReportBatchRouted) consult the
// map to pick the owning group, agents enforce ownership by answering
// wrong-owner for subjects outside their shards — the same typed-rejection
// pattern as transport.ErrSaturated, so a stale client refreshes its map and
// retries instead of silently reading a partial tally — and the RHandoff
// seal/export protocol migrates shards between groups with a dual-ownership
// window, so a rebalance loses no acknowledged report.

// ErrWrongOwner reports that the addressed agent's group does not own the
// subject under the placement epoch the agent holds. It is a routing signal,
// not a failure: the caller refreshes its placement map and re-sends to the
// owner. Retrying the identical request at the same agent cannot succeed.
var ErrWrongOwner = errors.New("node: subject not owned by this agent group")

// ErrNoPlacement reports a routed call on a node with no placement map.
var ErrNoPlacement = errors.New("node: no placement map adopted")

// maxOwnerHops bounds the refresh-and-retry loop of routed requests: one
// stale-map redirect is normal during a rebalance, a second can happen when
// the refresh races the completing epoch, more means the map sources are
// inconsistent and the caller should hear about it.
const maxOwnerHops = 3

// replSigHandoff tags shard-handoff signatures (seal and export requests),
// domain-separated from the intra-group replication messages that share the
// replWrap envelope.
const replSigHandoff = 5

// Handoff ops carried in RHandoff frames.
const (
	handoffOpSeal   = 1 // stop accepting writes for the shard at this epoch
	handoffOpExport = 2 // return the sealed shard's export
)

// RHandoffResp statuses.
const (
	handoffOK      = 0
	handoffRefused = 1
)

// placement is the node's view of the overlay: the adopted signed map (kept
// verbatim so the node re-serves exactly the bytes it verified), the group
// this node belongs to, and the per-shard seal state of in-progress handoffs.
type placement struct {
	mu        sync.Mutex
	m         *overlay.Map
	raw       []byte              // signed encoding of m, re-served on TPlacementReq
	group     string              // this agent's group ID ("" = not group-addressed)
	authority pkc.NodeID          // required map signer (zero = any valid signature)
	sources   []string            // addresses asked on refreshPlacement
	sealed    map[int]bool        // shards sealed for writes under m.Epoch
	handoff   map[pkc.NodeID]bool // peers allowed to seal and pull shards
	stale     bool                // a wrong-owner ack suggested the map is behind
	infos     map[string]AgentInfo
}

func newPlacement(opts Options) *placement {
	p := &placement{
		group:     opts.Group,
		authority: opts.PlacementAuthority,
		sources:   append([]string(nil), opts.PlacementSources...),
		sealed:    make(map[int]bool),
		handoff:   make(map[pkc.NodeID]bool),
		infos:     make(map[string]AgentInfo),
	}
	for _, id := range opts.HandoffPeers {
		p.handoff[id] = true
	}
	return p
}

// SetPlacement verifies and adopts a signed placement map. A map is adopted
// only when its signature verifies, its signer matches the configured
// authority (when one is set), and its epoch is strictly newer than the
// current one — re-installing the same epoch is an idempotent no-op, an older
// epoch is rejected so a replayed map cannot roll the routing back into a
// closed migration window. Adopting a new epoch drops the previous epoch's
// shard seals — both the admission-level ones here and the store-level ones
// backing them — because a seal pins one epoch's dual-ownership window, not
// the shard.
func (n *Node) SetPlacement(signed []byte) error {
	m, signer, err := overlay.Decode(signed)
	if err != nil {
		n.stats.placementRejected.Add(1)
		n.cnt.placementRejected.Inc()
		return err
	}
	p := n.place
	p.mu.Lock()
	if p.authority != (pkc.NodeID{}) && signer != p.authority {
		p.mu.Unlock()
		n.stats.placementRejected.Add(1)
		n.cnt.placementRejected.Inc()
		return fmt.Errorf("node: placement signed by %s, not the configured authority", signer.Short())
	}
	if p.m != nil {
		if m.Epoch == p.m.Epoch {
			p.stale = false
			p.mu.Unlock()
			return nil
		}
		if m.Epoch < p.m.Epoch {
			old := p.m.Epoch
			p.mu.Unlock()
			n.stats.placementRejected.Add(1)
			n.cnt.placementRejected.Inc()
			return fmt.Errorf("node: placement epoch %d older than adopted %d", m.Epoch, old)
		}
	}
	p.m = m
	p.raw = append([]byte(nil), signed...)
	p.sealed = make(map[int]bool)
	p.stale = false
	p.mu.Unlock()
	if n.agent != nil {
		// Outside p.mu: UnsealAll drains the store's in-flight mutations.
		n.agent.Store().UnsealAll()
	}
	n.stats.placementAdopted.Add(1)
	n.cnt.placementAdopted.Inc()
	return nil
}

// Placement returns the adopted map (nil when none) and its signed encoding.
func (n *Node) Placement() (*overlay.Map, []byte) {
	p := n.place
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m, p.raw
}

// AuthorizeHandoffPeer allows ids to drive shard handoffs against this node
// (seal shards and pull their exports), in addition to Options.HandoffPeers.
// Like replication, handoff is an offline pairing: exports carry per-reporter
// tallies and seals stop ingest, so neither may be open to any well-signed
// stranger.
func (n *Node) AuthorizeHandoffPeer(ids ...pkc.NodeID) {
	p := n.place
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		p.handoff[id] = true
	}
}

func (n *Node) allowedHandoff(id pkc.NodeID) bool {
	p := n.place
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.handoff[id]
}

// markPlacementStale records that a wrong-owner rejection arrived for a
// request routed by the current map; the next flush pass refreshes before
// routing.
func (n *Node) markPlacementStale() {
	p := n.place
	p.mu.Lock()
	p.stale = true
	p.mu.Unlock()
}

// subjectOwnership reports whether this agent's group currently owns subject
// for writes and for reads. With no map adopted (or no group configured) the
// overlay is inactive and the agent serves everything, preserving the
// pre-overlay behavior. With a map: the assigned owner serves both; the
// previous owner of an open migration window serves reads for the whole
// window but writes only until the shard is sealed; any other group serves
// neither — including a group absent from the map entirely, which must reject
// rather than quietly accept reports the owner will never see.
func (n *Node) subjectOwnership(subject pkc.NodeID) (write, read bool) {
	p := n.place
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil || p.group == "" {
		return true, true
	}
	g := p.m.GroupIndex(p.group)
	if g < 0 {
		return false, false
	}
	s := overlay.ShardOf(subject, p.m.Shards)
	if int(p.m.Assign[s]) == g {
		return true, true
	}
	if int(p.m.Prev[s]) == g {
		return !p.sealed[s], true
	}
	return false, false
}

// groupInfo resolves a group index of m to the agent descriptor published in
// the map, caching decoded descriptors (descriptor strings are content-keyed:
// a changed descriptor is a different string).
func (n *Node) groupInfo(m *overlay.Map, g int) (AgentInfo, error) {
	if g < 0 || g >= len(m.Groups) {
		return AgentInfo{}, fmt.Errorf("node: group index %d outside placement map", g)
	}
	desc := m.Groups[g].Descriptor
	p := n.place
	p.mu.Lock()
	info, ok := p.infos[desc]
	p.mu.Unlock()
	if ok {
		return info, nil
	}
	info, err := DecodeInfo(desc)
	if err != nil {
		return AgentInfo{}, fmt.Errorf("node: placement descriptor for group %q: %w", m.Groups[g].ID, err)
	}
	p.mu.Lock()
	p.infos[desc] = info
	p.mu.Unlock()
	return info, nil
}

// --- placement exchange (direct frames) ----------------------------------

// handlePlacementReq serves the node's adopted signed map. The request
// carries the asker's epoch; a node holding nothing newer answers with an
// empty payload so the asker can fall through to its next source.
func (n *Node) handlePlacementReq(r transport.Responder, payload []byte) {
	d := wire.NewDecoder(payload)
	have := d.U64()
	if d.Finish() != nil {
		return
	}
	p := n.place
	p.mu.Lock()
	var raw []byte
	if p.m != nil && p.m.Epoch > have {
		raw = p.raw
	}
	p.mu.Unlock()
	_ = r.Respond(wire.TPlacement, raw)
}

// handlePlacementPush adopts an unsolicited TPlacement frame (an operator or
// rebalance driver installing a new epoch). Pushes are honored only when the
// node has a placement authority pinned: without one, SetPlacement accepts
// any validly self-signed map, so an open push surface would let any
// connected stranger install an arbitrary routing map — and the strictly-
// increasing epoch rule would then lock the legitimate operator out. An
// authority-less node still routes: it adopts maps via local SetPlacement
// calls and solicited FetchPlacement from its operator-chosen sources.
// Beyond the gate, SetPlacement does all the vetting; a push that fails it
// changes nothing.
func (n *Node) handlePlacementPush(payload []byte) {
	if len(payload) == 0 {
		return
	}
	p := n.place
	p.mu.Lock()
	unpinned := p.authority == (pkc.NodeID{})
	p.mu.Unlock()
	if unpinned {
		n.stats.placementRejected.Add(1)
		n.cnt.placementRejected.Inc()
		return
	}
	_ = n.SetPlacement(payload)
}

// FetchPlacement asks addr for a placement map newer than ours and adopts it.
// It returns overlay.ErrBadMap-wrapped errors for hostile responses and
// ErrNoPlacement when the peer had nothing newer.
func (n *Node) FetchPlacement(addr string) error {
	var have uint64
	if m, _ := n.Placement(); m != nil {
		have = m.Epoch
	}
	typ, resp, err := n.roundTrip(addr, wire.TPlacementReq, (&wire.Encoder{}).U64(have).Encode())
	if err != nil {
		return err
	}
	if typ != wire.TPlacement {
		return ErrBadMessage
	}
	if len(resp) == 0 {
		return ErrNoPlacement
	}
	return n.SetPlacement(resp)
}

// refreshPlacement polls the configured placement sources until one supplies
// a newer map. Reports whether any attempt adopted one.
func (n *Node) refreshPlacement() bool {
	p := n.place
	p.mu.Lock()
	sources := append([]string(nil), p.sources...)
	p.mu.Unlock()
	for _, addr := range sources {
		if err := n.FetchPlacement(addr); err == nil {
			return true
		}
	}
	return false
}

// refreshPlacementIfStale refreshes once when a wrong-owner ack marked the
// map stale since the last pass; the flusher calls it before routing.
func (n *Node) refreshPlacementIfStale() {
	p := n.place
	p.mu.Lock()
	stale := p.stale
	p.stale = false
	p.mu.Unlock()
	if stale {
		n.refreshPlacement()
	}
}

// --- routed client APIs ----------------------------------------------------

// RequestTrustRouted asks the agent group owning subject for its trust value,
// routing by the adopted placement map.
func (n *Node) RequestTrustRouted(subject pkc.NodeID, replyOnion *onion.Onion) (trust.Value, bool, error) {
	var (
		v       trust.Value
		hasData bool
	)
	err := n.askOwner(subject, func(owner AgentInfo) error {
		var aerr error
		v, hasData, aerr = n.RequestTrust(owner, subject, replyOnion)
		return aerr
	})
	return v, hasData, err
}

// askOwner runs ask against the agent group that owns subject's reads under
// the adopted placement map. During a migration reads route to the previous
// owner, which holds the full tally until the pull completes. On a
// wrong-owner answer — the routing map here is staler than the agent's — the
// map is refreshed from the placement sources and the question re-routed, up
// to maxOwnerHops times.
func (n *Node) askOwner(subject pkc.NodeID, ask func(owner AgentInfo) error) error {
	for hop := 0; hop < maxOwnerHops; hop++ {
		m, _ := n.Placement()
		if m == nil {
			return ErrNoPlacement
		}
		info, err := n.groupInfo(m, m.ReadOwner(subject))
		if err != nil {
			return err
		}
		if err = ask(info); !errors.Is(err, ErrWrongOwner) {
			return err
		}
		n.stats.placementRedirects.Add(1)
		n.cnt.placementRedirects.Inc()
		if !n.refreshPlacement() && hop > 0 {
			// The sources have nothing newer and the redirect persists:
			// re-asking the same owner again cannot converge.
			return err
		}
	}
	return ErrWrongOwner
}

// ReportBatchRouted splits reports by owning group under the adopted map and
// delivers each partition with ReportBatchOrDefer, so per-group outcomes keep
// the ReportBatchOrDefer guarantee: every report is acked, rejected, or
// deferred into the outbox — where the flusher re-routes it by the then-
// current map, covering reports acked as wrong-owner by an agent ahead of us.
func (n *Node) ReportBatchRouted(book *AgentBook, reports []BatchReport, replyOnion *onion.Onion) error {
	m, _ := n.Placement()
	if m == nil {
		return ErrNoPlacement
	}
	byGroup := make(map[int][]BatchReport)
	for _, r := range reports {
		g := m.Owner(r.Subject)
		byGroup[g] = append(byGroup[g], r)
	}
	var firstErr error
	for g, part := range byGroup {
		info, err := n.groupInfo(m, g)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := n.ReportBatchOrDefer(book, info, part, replyOnion); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// routeDeferred re-routes one deferred report by the current placement map:
// when the map names a (decodable) owner group for the subject and it differs
// from the agent the report was originally deferred against, the flusher
// delivers to the current owner instead. With no map — or an undecodable
// owner descriptor — the recorded agent stands, preserving the pre-overlay
// outbox behavior.
func (n *Node) routeDeferred(recorded AgentInfo, subject pkc.NodeID) AgentInfo {
	m, _ := n.Placement()
	if m == nil {
		return recorded
	}
	info, err := n.groupInfo(m, m.Owner(subject))
	if err != nil {
		return recorded
	}
	if info.ID() != recorded.ID() {
		n.stats.placementRedirects.Add(1)
		n.cnt.placementRedirects.Inc()
		return info
	}
	return recorded
}

// --- shard handoff (rebalance) --------------------------------------------

// handoffReq is one decoded seal/export request (the signed part of an
// RHandoff frame, after replUnwrap).
type handoffReq struct {
	op, epoch, shard, shardCount uint64
}

// decodeHandoffReq parses the signed part of an RHandoff frame. Fixed-width
// fields only — there is nothing here a hostile length can over-allocate —
// but the tag check keeps a signature minted for another replication message
// from being replayed as a handoff.
func decodeHandoffReq(part []byte) (handoffReq, bool) {
	d := wire.NewDecoder(part)
	if d.U64() != replSigHandoff {
		return handoffReq{}, false
	}
	q := handoffReq{op: d.U64(), epoch: d.U64(), shard: d.U64(), shardCount: d.U64()}
	if d.Finish() != nil {
		return handoffReq{}, false
	}
	return q, true
}

// handleHandoff serves the old-owner side of a shard migration: seal a shard
// against further writes, then export its contents to the new owner. Frames
// are signed and self-certifying (replWrap) and additionally gated on the
// handoff allowlist — an export carries per-reporter tallies and a seal stops
// ingest, so neither is available to unconfigured identities. A seal binds to
// the node's CURRENT placement epoch and requires this group to be the
// shard's previous owner under it, so a captured seal replayed after the
// migration window closes is structurally invalid rather than merely stale.
func (n *Node) handleHandoff(r transport.Responder, payload []byte) {
	sender, part, ok := replUnwrap(payload)
	if !ok || n.agent == nil {
		return
	}
	if !n.allowedHandoff(sender) {
		n.cnt.handoffUnauthorized.Inc()
		return
	}
	q, ok := decodeHandoffReq(part)
	if !ok {
		return
	}
	op, epoch, shard := q.op, q.epoch, q.shard
	shardCount := q.shardCount
	refuse := func() {
		_ = r.Respond(wire.RHandoffResp, (&wire.Encoder{}).U64(handoffRefused).Bytes(nil).Encode())
	}
	st := n.agent.Store()
	p := n.place
	p.mu.Lock()
	m := p.m
	group := p.group
	if m == nil || group == "" || epoch != m.Epoch ||
		int(shardCount) != st.ShardCount() || m.Shards != st.ShardCount() ||
		shard >= uint64(m.Shards) {
		p.mu.Unlock()
		refuse()
		return
	}
	g := m.GroupIndex(group)
	switch op {
	case handoffOpSeal:
		// Only the previous owner of an open window seals: the shard keeps
		// accepting writes everywhere else, so a misdirected seal cannot turn
		// into a write outage.
		if g < 0 || int(m.Prev[shard]) != g {
			p.mu.Unlock()
			refuse()
			return
		}
		p.sealed[int(shard)] = true
		p.mu.Unlock()
		// The admission flag above turns new batches away with wrong-owner,
		// but batches that passed admission before it may still be verifying
		// and appending. The store-level seal closes that race: it drains
		// every in-flight append (they fail with ErrShardSealed past this
		// point and ack retryable, never stored), so once OK is answered the
		// subsequent export contains every report ever acked stored.
		if err := st.SealShard(int(shard)); err != nil {
			refuse()
			return
		}
		n.stats.shardsSealed.Add(1)
		n.cnt.handoffSealed.Inc()
		_ = r.Respond(wire.RHandoffResp, (&wire.Encoder{}).U64(handoffOK).Bytes(nil).Encode())
	case handoffOpExport:
		// Export only after this node's own seal: an unsealed export could
		// miss writes acked after the export was cut, which is exactly the
		// loss the seal exists to preclude.
		if !p.sealed[int(shard)] {
			p.mu.Unlock()
			refuse()
			return
		}
		p.mu.Unlock()
		export := st.ExportShard(int(shard))
		_ = r.Respond(wire.RHandoffResp, (&wire.Encoder{}).U64(handoffOK).Bytes(export).Encode())
	default:
		p.mu.Unlock()
		refuse()
	}
}

// handoffRequest runs one signed seal/export round trip against the old
// owner's primary.
func (n *Node) handoffRequest(addr string, op, epoch, shard uint64) ([]byte, error) {
	st := n.agent.Store()
	var sp wire.Encoder
	sp.U64(replSigHandoff).U64(op).U64(epoch).U64(shard).U64(uint64(st.ShardCount()))
	typ, resp, err := n.roundTripTimeout(addr, wire.RHandoff, replWrap(n.identity(), sp.Encode()), n.timeout())
	if err != nil {
		return nil, err
	}
	if typ != wire.RHandoffResp {
		return nil, ErrBadMessage
	}
	d := wire.NewDecoder(resp)
	status := d.U64()
	body := d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if status != handoffOK {
		return nil, fmt.Errorf("node: handoff %d refused for shard %d: %w", op, shard, ErrWrongOwner)
	}
	return append([]byte(nil), body...), nil
}

// RebalancePull migrates shards from the previous owner's primary at oldAddr
// into this agent's store: per shard, seal at the old owner, pull the sealed
// export, and fold it in additively (repstore.MergeShard). The order is the
// zero-loss argument of DESIGN.md §12: a report acked by the old owner before
// its seal is inside the export; after the seal, a stale sender gets a
// wrong-owner ack, refreshes its map, and re-sends here — and the sets are
// disjoint, because each report is acked by exactly one side, so the additive
// merge is exactly the union. Re-running a pull is safe: the store records
// each (epoch, shard) merge and refuses a duplicate (repstore.ErrAlreadyMerged),
// which this function treats as that shard already being migrated — so a
// crashed or partially failed driver can simply re-drive the same shard list.
// Returns the number of shards migrated (including ones found already
// merged); a mid-way error reports how far it got.
func (n *Node) RebalancePull(oldAddr string, shards []int) (int, error) {
	if n.agent == nil {
		return 0, ErrNotAgent
	}
	m, _ := n.Placement()
	if m == nil {
		return 0, ErrNoPlacement
	}
	st := n.agent.Store()
	if m.Shards != st.ShardCount() {
		return 0, fmt.Errorf("node: placement shards %d != store shards %d", m.Shards, st.ShardCount())
	}
	done := 0
	for _, s := range shards {
		if s < 0 || s >= m.Shards {
			return done, fmt.Errorf("node: rebalance shard %d outside map", s)
		}
		if _, err := n.handoffRequest(oldAddr, handoffOpSeal, m.Epoch, uint64(s)); err != nil {
			return done, fmt.Errorf("node: seal shard %d: %w", s, err)
		}
		export, err := n.handoffRequest(oldAddr, handoffOpExport, m.Epoch, uint64(s))
		if err != nil {
			return done, fmt.Errorf("node: export shard %d: %w", s, err)
		}
		switch err := st.MergeShard(s, m.Epoch, export); {
		case errors.Is(err, repstore.ErrAlreadyMerged):
			// A re-driven pull: this shard's export was merged by an earlier
			// run. Counting it done (but not as a fresh pull) keeps the retry
			// loop converging without double-counting a single tally.
			done++
			continue
		case err != nil:
			return done, fmt.Errorf("node: merge shard %d: %w", s, err)
		}
		done++
		n.stats.shardsPulled.Add(1)
		n.cnt.handoffPulled.Inc()
	}
	// The merges are in-memory repairs; fold them into a snapshot so a
	// durable store reopening does not lose them to a WAL that predates them.
	if done > 0 {
		if err := st.Snapshot(); err != nil {
			return done, err
		}
	}
	return done, nil
}
