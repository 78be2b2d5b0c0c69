package node

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/resilience"
	"hirep/internal/transport"
	"hirep/internal/wire"
)

// This file implements agent-state replication (DESIGN.md §10): a primary
// agent ships every committed repstore batch to its replica agents over the
// pooled transport, sequenced per process epoch, with periodic anti-entropy
// (per-shard CRC/version digests, full shard streams for mismatches) so a
// diverged replica or cold standby converges without replaying the primary's
// disk. Replica state plugs into the serving path through
// agentdir.Agent.AttachSource, so a promoted standby answers trust requests
// with the dead primary's tallies.

// Replication defaults.
const (
	defaultSyncInterval = 5 * time.Second
	defaultHandoffCap   = 1024
)

// repairSentinel is the shard index of the final frame of an anti-entropy
// round; it seals the round at the primary's sequence point.
const repairSentinel = ^uint64(0)

// Domain-separation tags for replication signatures: a signature over one
// message kind must not verify as another.
const (
	replSigBatch  = 1
	replSigDigest = 2
	replSigRepair = 3
	replSigFetch  = 4
)

// replSigPrefix domain-separates replication signatures from every other
// signed byte string in the protocol (reports, onions, trust responses).
var replSigPrefix = []byte("hirep/repl/v1\x00")

// replSign signs a replication signedPart under the domain prefix.
func replSign(id *pkc.Identity, signedPart []byte) []byte {
	msg := make([]byte, 0, len(replSigPrefix)+len(signedPart))
	msg = append(msg, replSigPrefix...)
	msg = append(msg, signedPart...)
	return id.SignMessage(msg)
}

// replVerify checks a replication signature under the domain prefix.
func replVerify(sp ed25519.PublicKey, signedPart, sig []byte) bool {
	msg := make([]byte, 0, len(replSigPrefix)+len(signedPart))
	msg = append(msg, replSigPrefix...)
	msg = append(msg, signedPart...)
	return pkc.Verify(sp, msg, sig)
}

// replWrap builds the outer payload of every replication frame:
// SP | signedPart | signature. The frame is self-certifying — the receiver
// derives the sender's nodeID from SP and needs no prior key exchange.
func replWrap(id *pkc.Identity, signedPart []byte) []byte {
	var e wire.Encoder
	e.Bytes(id.Sign.Public).Bytes(signedPart).Bytes(replSign(id, signedPart))
	return e.Encode()
}

// replUnwrap verifies and opens a replication frame, returning the sender's
// derived nodeID and the signedPart.
func replUnwrap(payload []byte) (sender pkc.NodeID, signedPart []byte, ok bool) {
	d := wire.NewDecoder(payload)
	spRaw := d.Bytes()
	part := d.Bytes()
	sig := d.Bytes()
	if d.Finish() != nil || len(spRaw) != ed25519.PublicKeySize {
		return pkc.NodeID{}, nil, false
	}
	sp := ed25519.PublicKey(spRaw)
	if !replVerify(sp, part, sig) {
		return pkc.NodeID{}, nil, false
	}
	return pkc.DeriveNodeID(sp), part, true
}

// splitGroup parses the comma-joined replica address list shipped in
// replication frames.
func splitGroup(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// --- primary side --------------------------------------------------------

// replicator is the primary-side shipping machinery: one hinted-handoff
// outbox and sender goroutine per replica, fed by the store's OnCommit tap.
type replicator struct {
	n     *Node
	self  *pkc.Identity // identity captured at Listen; frames are signed with it
	epoch uint64        // random per process start; replicas detect restarts by it
	group string        // comma-joined replica addresses, shipped for promotion pulls

	// mu orders sequence assignment with outbox enqueue: OnCommit delivers
	// batches in commit order (single-flight flush), and taking mu across
	// seq++ plus all enqueues keeps the queues in that same order.
	mu      sync.Mutex
	seq     uint64
	targets []*replTarget
	wg      sync.WaitGroup
}

// replTarget is one replica's shipping state.
type replTarget struct {
	addr  string
	out   *resilience.Outbox // hinted handoff: bounded, in memory
	brk   *resilience.Breaker
	kick  chan struct{}
	acked atomic.Uint64 // highest sequence the replica has acknowledged
	// dirty means the replica's state is not known to equal ours: set at
	// start (a cold standby must get one full comparison) and whenever a
	// round fails, cleared by a completed anti-entropy pass. While clear and
	// fully acked, the periodic tick skips the digest round entirely — a
	// caught-up fleet costs nothing at steady state.
	dirty atomic.Bool
}

// newReplicator builds the shipping state for opts.Replicas. Handoff queues
// live in memory only: a restarted primary is a new identity under a new
// epoch, so a journal of the old incarnation's batches could only be dropped
// by an unpaired replica or mis-acked against the new sequence numbers. A
// replica that missed batches across the restart reconverges via
// anti-entropy.
func newReplicator(n *Node, id *pkc.Identity) (*replicator, error) {
	var eb [8]byte
	if _, err := rand.Read(eb[:]); err != nil {
		return nil, fmt.Errorf("node: replication epoch: %w", err)
	}
	r := &replicator{
		n:     n,
		self:  id,
		epoch: binary.LittleEndian.Uint64(eb[:]) | 1, // zero means "fresh replica"
		group: strings.Join(n.opts.Replicas, ","),
	}
	for _, addr := range n.opts.Replicas {
		out, err := resilience.OpenOutbox("", n.opts.HandoffCap)
		if err != nil {
			r.closeOutboxes()
			return nil, fmt.Errorf("node: open handoff queue: %w", err)
		}
		t := &replTarget{
			addr: addr,
			out:  out,
			brk:  resilience.NewBreaker(n.opts.Breaker),
			kick: make(chan struct{}, 1),
		}
		t.dirty.Store(true)
		r.targets = append(r.targets, t)
	}
	return r, nil
}

func (r *replicator) start() {
	for _, t := range r.targets {
		r.wg.Add(1)
		go r.senderLoop(t)
	}
}

func (r *replicator) closeOutboxes() {
	for _, t := range r.targets {
		_ = t.out.Close()
	}
}

// onCommit is the repstore.Options.OnCommit hook: it runs on the committing
// goroutine (under the store's apply read lock) and must not block on the
// network, so it only assigns the batch its sequence number and enqueues it
// per replica. An overflowing queue evicts its oldest entry — the replica
// will see a sequence gap and be healed by anti-entropy.
func (r *replicator) onCommit(batch []byte) {
	r.mu.Lock()
	r.seq++
	var e wire.Encoder
	e.U64(r.seq).Bytes(batch)
	entry := e.Encode()
	for _, t := range r.targets {
		evicted, err := t.out.Enqueue("", entry)
		if evicted > 0 {
			r.n.cnt.replHandoffDropped.Add(int64(evicted))
		}
		if err != nil {
			r.n.cnt.replHandoffDropped.Inc()
		}
	}
	r.mu.Unlock()
	r.n.cnt.replBatches.Inc()
	for _, t := range r.targets {
		select {
		case t.kick <- struct{}{}:
		default:
		}
	}
}

// senderLoop serializes everything sent to one replica — batch shipping and
// anti-entropy — so a repair stream can never interleave with (and
// double-apply against) in-flight batches.
func (r *replicator) senderLoop(t *replTarget) {
	defer r.wg.Done()
	ticker := time.NewTicker(r.n.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.n.closeCh:
			return
		case <-t.kick:
			r.drain(t)
		case <-ticker.C:
			// The periodic pass is drain + digest comparison, so replicas
			// converge even when nothing kicks (e.g. divergence from an
			// earlier eviction while the replica was down). A replica that is
			// fully acked and passed its last comparison is skipped outright:
			// the steady-state cost of an in-sync fleet is zero frames, not a
			// per-tick sync point over the whole store.
			if !r.drain(t) {
				continue
			}
			r.mu.Lock()
			seq := r.seq
			r.mu.Unlock()
			if !t.dirty.Load() && t.acked.Load() == seq {
				continue
			}
			if err := r.antiEntropy(t); err != nil {
				t.dirty.Store(true)
				t.brk.Failure()
			}
		}
	}
}

// drain ships queued batches to the replica in sequence order. It reports
// whether the replica is currently reachable (false stops the periodic pass
// from paying an anti-entropy timeout on a peer already known down).
func (r *replicator) drain(t *replTarget) bool {
	for _, e := range t.out.Pending() {
		if r.n.isClosed() {
			return false
		}
		d := wire.NewDecoder(e.Payload)
		seq := d.U64()
		batch := d.Bytes()
		if d.Finish() != nil {
			_ = t.out.Ack(e.Seq) // corrupt journal entry: drop
			continue
		}
		if seq <= t.acked.Load() {
			_ = t.out.Ack(e.Seq) // subsumed by an earlier ack or repair
			continue
		}
		if allow, _ := t.brk.Allow(); !allow {
			r.updateDepthGauge()
			return false
		}
		ack, err := r.sendBatch(t.addr, seq, batch)
		if err != nil {
			t.brk.Failure()
			r.updateDepthGauge()
			return false
		}
		t.brk.Success()
		if ack.diverged || ack.lastSeq < seq {
			// The replica missed batches (queue eviction, restart, another
			// primary incarnation): stream full state and resume from the
			// sync point.
			t.dirty.Store(true)
			if err := r.antiEntropy(t); err != nil {
				t.brk.Failure()
				r.updateDepthGauge()
				return false
			}
			continue
		}
		t.acked.Store(ack.lastSeq)
		_ = t.out.Ack(e.Seq)
		r.n.cnt.replShipped.Inc()
	}
	r.updateDepthGauge()
	return true
}

// replAck is a decoded RReplicateAck.
type replAck struct {
	epoch, lastSeq uint64
	diverged       bool
}

func (r *replicator) sendBatch(addr string, seq uint64, batch []byte) (replAck, error) {
	var sp wire.Encoder
	sp.U64(replSigBatch).U64(r.epoch).U64(seq)
	sp.U64(uint64(r.n.agent.Store().ShardCount()))
	sp.String(r.group).Bytes(batch)
	typ, resp, err := r.n.roundTripTimeout(addr, wire.RReplicate, replWrap(r.self, sp.Encode()), r.n.timeout())
	if err != nil {
		return replAck{}, err
	}
	if typ != wire.RReplicateAck {
		return replAck{}, ErrBadMessage
	}
	d := wire.NewDecoder(resp)
	a := replAck{epoch: d.U64(), lastSeq: d.U64(), diverged: d.Bool()}
	if err := d.Finish(); err != nil {
		return replAck{}, err
	}
	return a, nil
}

// antiEntropy converges one replica onto the primary's current state:
//
//  1. Fetch the replica's per-shard digests first — any write racing this
//     round makes a shard look mismatched and repaired, never skipped. The
//     digest response carries the replica-issued challenge every repair
//     frame of this round must echo.
//  2. Fast path: if the replica reports our (epoch, acked) position, is not
//     diverged, and every shard CRC matches, the round ends here — no sync
//     point, no sentinel, no replica snapshot. Digest CRCs are cached per
//     shard version, so this comparison is cheap on both sides.
//  3. Otherwise, under the store's sync point (no mutation in flight, every
//     committed batch tapped), capture the sequence point S and export every
//     mismatched shard. The exports correspond to exactly the batches
//     numbered <= S.
//  4. Stream the shard exports, then a sealing sentinel carrying S: the
//     replica adopts (epoch, S) and clears its diverged flag.
//
// Handoff entries at or below S are subsumed by the repair and acked.
func (r *replicator) antiEntropy(t *replTarget) error {
	st := r.n.agent.Store()
	theirs, err := r.n.replDigests(t.addr, r.self, r.self.ID)
	if err != nil {
		return err
	}
	if theirs.epoch == r.epoch && !theirs.diverged && theirs.lastSeq == t.acked.Load() {
		mine := st.Digests()
		if digestsEqual(mine, theirs.digests) {
			t.dirty.Store(false)
			return nil
		}
	}
	if len(theirs.challenge) != pkc.NonceSize {
		// The replica issued no challenge: it does not recognize us as its
		// primary (not in its ReplicaOf set) — repairs would be rejected.
		return fmt.Errorf("node: replica %s issued no repair challenge: %w", t.addr, ErrBadMessage)
	}
	var s uint64
	exports := make(map[int][]byte)
	st.SyncPoint(func() {
		r.mu.Lock()
		s = r.seq
		r.mu.Unlock()
		for i, d := range st.Digests() {
			if i >= len(theirs.digests) || theirs.digests[i] != d {
				exports[i] = st.ExportShard(i)
			}
		}
	})
	for i, exp := range exports {
		if err := r.sendRepair(t.addr, uint64(i), s, theirs.challenge, exp); err != nil {
			return err
		}
		r.n.cnt.replShardsRepaired.Inc()
	}
	if err := r.sendRepair(t.addr, repairSentinel, s, theirs.challenge, nil); err != nil {
		return err
	}
	t.acked.Store(s)
	t.dirty.Store(false)
	for _, e := range t.out.Pending() {
		d := wire.NewDecoder(e.Payload)
		if seq := d.U64(); d.Err() == nil && seq <= s {
			_ = t.out.Ack(e.Seq)
		}
	}
	r.updateDepthGauge()
	r.n.cnt.replAntiEntropy.Inc()
	return nil
}

// digestsEqual reports whether two digest vectors describe identical state.
func digestsEqual(a, b []repstore.ShardDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].CRC != b[i].CRC {
			return false
		}
	}
	return true
}

func (r *replicator) sendRepair(addr string, shard, syncSeq uint64, challenge, export []byte) error {
	var sp wire.Encoder
	sp.U64(replSigRepair).U64(r.epoch).U64(syncSeq)
	sp.U64(uint64(r.n.agent.Store().ShardCount()))
	sp.U64(shard).Bytes(challenge).String(r.group).Bytes(export)
	typ, _, err := r.n.roundTripTimeout(addr, wire.RRepair, replWrap(r.self, sp.Encode()), r.n.timeout())
	if err != nil {
		return err
	}
	if typ != wire.RRepairAck {
		return ErrBadMessage
	}
	return nil
}

func (r *replicator) updateDepthGauge() {
	var total int
	for _, t := range r.targets {
		total += t.out.Depth()
	}
	r.n.cnt.replHandoffDepth.Set(int64(total))
}

// position returns the primary's own replication position for status probes.
func (r *replicator) position() (epoch, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch, r.seq
}

// --- replica side --------------------------------------------------------

// replicaSet holds the replica stores this agent maintains for other
// primaries, keyed by primary nodeID, plus the authorization sets that gate
// every replication frame: replication is an offline pairing, not an open
// protocol, so a frame from an unconfigured identity is dropped no matter how
// well it verifies. primaries are the IDs this node replicates FOR
// (RReplicate/RRepair ingress, store creation); peers are fellow
// replica-group members additionally allowed to read state (RDigest/RFetch,
// promotion-time pulls).
type replicaSet struct {
	mu        sync.Mutex
	m         map[pkc.NodeID]*replState
	primaries map[pkc.NodeID]bool
	peers     map[pkc.NodeID]bool
	rounds    map[pkc.NodeID]*repairRound
}

// repairRound is the replica-side state of one in-flight anti-entropy round:
// the challenge this replica issued (every RRepair frame of the round must
// echo it, so captured rounds cannot be replayed later) and how many shards
// the round actually imported (a round that shipped nothing should not force
// a snapshot).
type repairRound struct {
	challenge pkc.Nonce
	imports   int
}

func newReplicaSet(primaries, peers []pkc.NodeID) *replicaSet {
	rs := &replicaSet{
		m:         make(map[pkc.NodeID]*replState),
		primaries: make(map[pkc.NodeID]bool),
		peers:     make(map[pkc.NodeID]bool),
		rounds:    make(map[pkc.NodeID]*repairRound),
	}
	for _, id := range primaries {
		rs.primaries[id] = true
	}
	for _, id := range peers {
		rs.peers[id] = true
	}
	return rs
}

// authorizeReplicaOf allows ids to replicate their agent state into this
// node (in addition to Options.ReplicaOf). Identities are minted at Listen,
// so a fleet wires these pairings after its nodes are up.
func (n *Node) authorizeReplicaOf(ids ...pkc.NodeID) {
	if n.replicas == nil {
		return
	}
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	for _, id := range ids {
		n.replicas.primaries[id] = true
	}
}

// authorizeReplicaPeer allows ids — fellow members of a replica group — to
// read this node's replication state (digests and shard fetches), in
// addition to Options.ReplicaPeers.
func (n *Node) authorizeReplicaPeer(ids ...pkc.NodeID) {
	if n.replicas == nil {
		return
	}
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	for _, id := range ids {
		n.replicas.peers[id] = true
	}
}

// allowedPrimary reports whether id may mutate replica state on this node.
func (n *Node) allowedPrimary(id pkc.NodeID) bool {
	if n.replicas == nil {
		return false
	}
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	return n.replicas.primaries[id]
}

// allowedReader reports whether id may read replication state from this
// node: configured primaries and group peers qualify, anyone else — however
// validly self-signed — does not (shard exports carry per-reporter tallies,
// which must never leak outside the group).
func (n *Node) allowedReader(id pkc.NodeID) bool {
	if n.replicas == nil {
		return false
	}
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	return n.replicas.primaries[id] || n.replicas.peers[id]
}

// replState is one primary's replica: its store plus the applied position.
// epoch/lastSeq are session state (not persisted); after a replica restart
// they read 0/0 and the next batch or digest round triggers anti-entropy,
// which is what actually re-certifies the content.
type replState struct {
	mu       sync.Mutex
	store    *repstore.Store
	epoch    uint64
	lastSeq  uint64
	diverged bool
	group    []string
}

// replicaState returns (creating on demand when create is set) the replica
// state for primary. New stores live under StoreDir/replica/<primaryID> when
// the node is durable and attach to the agent as a serving source.
func (n *Node) replicaState(primary pkc.NodeID, shardCount int, create bool) (*replState, error) {
	if n.replicas == nil {
		return nil, ErrNotAgent
	}
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	if st, ok := n.replicas.m[primary]; ok {
		return st, nil
	}
	if !create {
		return nil, nil
	}
	dir := ""
	if n.opts.StoreDir != "" {
		dir = filepath.Join(n.opts.StoreDir, "replica", primary.String())
	}
	store, err := repstore.Open(dir, repstore.Options{Shards: shardCount})
	if err != nil {
		return nil, err
	}
	st := &replState{store: store}
	n.replicas.m[primary] = st
	n.agent.AttachSource("replica/"+primary.String(), store)
	return st, nil
}

// closeReplicaStores flushes and releases every replica store.
func (n *Node) closeReplicaStores() error {
	if n.replicas == nil {
		return nil
	}
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	var err error
	for _, st := range n.replicas.m {
		if cerr := st.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// replicaReportCount returns how many reports this node's replica of primary
// holds (0 when it holds none), for tests and monitoring.
func (n *Node) replicaReportCount(primary pkc.NodeID) int {
	st, err := n.replicaState(primary, 0, false)
	if err != nil || st == nil {
		return 0
	}
	return st.store.ReportCount()
}

// handleReplicate applies one shipped batch. Only the primary itself can
// mutate its replica: the frame is signed, the signer's derived nodeID is
// the replica key, and — because the frame is otherwise self-certifying —
// the signer must be a primary this node was explicitly configured to
// replicate for, or any attacker could mint an identity and poison the
// combined tally this agent serves (and fill its disk with replica stores).
func (n *Node) handleReplicate(r transport.Responder, payload []byte) {
	sender, part, ok := replUnwrap(payload)
	if !ok || n.replicas == nil {
		return
	}
	if !n.allowedPrimary(sender) {
		n.cnt.replUnauthorized.Inc()
		return
	}
	d := wire.NewDecoder(part)
	if d.U64() != replSigBatch {
		return
	}
	epoch := d.U64()
	seq := d.U64()
	shardCount := d.U64()
	group := d.String()
	batch := d.Bytes()
	if d.Finish() != nil || epoch == 0 || shardCount == 0 || shardCount > 1<<16 {
		return
	}
	st, err := n.replicaState(sender, int(shardCount), true)
	if err != nil {
		return
	}
	st.mu.Lock()
	st.group = splitGroup(group)
	switch {
	case st.epoch == 0 && st.lastSeq == 0 && st.store.ReportCount() == 0:
		// A genuinely fresh replica adopts the primary's incarnation. A
		// restarted replica (content but zeroed session state) must NOT: its
		// content may trail the sequence numbers, so it reports divergence
		// and lets anti-entropy re-certify it.
		st.epoch = epoch
	case st.epoch != epoch:
		st.diverged = true
	}
	applied := false
	if !st.diverged {
		switch {
		case seq == st.lastSeq+1:
			if _, err := st.store.ApplyBatch(batch); err != nil {
				st.diverged = true
			} else {
				st.lastSeq = seq
				applied = true
			}
		case seq > st.lastSeq+1:
			st.diverged = true // gap: batches were evicted or lost
		}
		// seq <= lastSeq is a duplicate of an applied batch: ack as-is.
	}
	var e wire.Encoder
	e.U64(st.epoch).U64(st.lastSeq).Bool(st.diverged)
	st.mu.Unlock()
	if applied {
		n.cnt.replApplied.Inc()
	}
	_ = r.Respond(wire.RReplicateAck, e.Encode())
}

// handleRepair imports one shard stream of an anti-entropy round, or — for
// the sentinel frame — seals the round at the primary's sequence point.
// Every frame must echo the challenge this replica issued in the digest
// response that opened the round: a primary signature alone is not freshness,
// and a captured round replayed after the primary's death would otherwise
// permanently roll a promoted replica back to stale state.
func (n *Node) handleRepair(r transport.Responder, payload []byte) {
	sender, part, ok := replUnwrap(payload)
	if !ok || n.replicas == nil {
		return
	}
	if !n.allowedPrimary(sender) {
		n.cnt.replUnauthorized.Inc()
		return
	}
	d := wire.NewDecoder(part)
	if d.U64() != replSigRepair {
		return
	}
	epoch := d.U64()
	syncSeq := d.U64()
	shardCount := d.U64()
	shardIndex := d.U64()
	challenge := d.Bytes()
	group := d.String()
	export := d.Bytes()
	if d.Finish() != nil || epoch == 0 || shardCount == 0 || shardCount > 1<<16 {
		return
	}
	if !n.matchRepairRound(sender, challenge) {
		n.cnt.replUnauthorized.Inc()
		return
	}
	st, err := n.replicaState(sender, int(shardCount), true)
	if err != nil {
		return
	}
	st.mu.Lock()
	st.group = splitGroup(group)
	if shardIndex == repairSentinel {
		imports := n.finishRepairRound(sender) // one seal per round: replay-proof
		// Seal: state now equals the primary's sync point.
		st.epoch = epoch
		st.lastSeq = syncSeq
		st.diverged = false
		st.mu.Unlock()
		// Fold the repaired state into a snapshot so a durable replica
		// reopening does not replay a WAL that predates the imports — but only
		// when the round actually imported something; a no-op seal must not
		// force a full store snapshot.
		if imports > 0 {
			_ = st.store.Snapshot()
		}
		_ = r.Respond(wire.RRepairAck, (&wire.Encoder{}).U64(syncSeq).Encode())
		return
	}
	if shardIndex >= uint64(st.store.ShardCount()) {
		st.mu.Unlock()
		return
	}
	ierr := st.store.ImportShard(int(shardIndex), export)
	st.mu.Unlock()
	if ierr != nil {
		return
	}
	n.noteRepairImport(sender)
	_ = r.Respond(wire.RRepairAck, (&wire.Encoder{}).U64(shardIndex).Encode())
}

// openRepairRound issues a fresh challenge for primary, replacing any
// outstanding round (an aborted round's challenge dies with it).
func (n *Node) openRepairRound(primary pkc.NodeID) (pkc.Nonce, error) {
	challenge, err := pkc.NewNonce(nil)
	if err != nil {
		return pkc.Nonce{}, err
	}
	n.replicas.mu.Lock()
	n.replicas.rounds[primary] = &repairRound{challenge: challenge}
	n.replicas.mu.Unlock()
	return challenge, nil
}

// matchRepairRound reports whether challenge matches the outstanding round
// for primary.
func (n *Node) matchRepairRound(primary pkc.NodeID, challenge []byte) bool {
	if len(challenge) != pkc.NonceSize {
		return false
	}
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	round := n.replicas.rounds[primary]
	return round != nil && string(challenge) == string(round.challenge[:])
}

// noteRepairImport counts one imported shard against primary's open round.
func (n *Node) noteRepairImport(primary pkc.NodeID) {
	n.replicas.mu.Lock()
	if round := n.replicas.rounds[primary]; round != nil {
		round.imports++
	}
	n.replicas.mu.Unlock()
}

// finishRepairRound consumes primary's open round and returns how many
// shards it imported.
func (n *Node) finishRepairRound(primary pkc.NodeID) int {
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	round := n.replicas.rounds[primary]
	if round == nil {
		return 0
	}
	delete(n.replicas.rounds, primary)
	return round.imports
}

// handleDigest serves this node's per-shard digests for a primary's state —
// its own store when primary is itself, or its replica of that primary.
// Digests (and the shard exports they lead to) are visible only to the
// configured replica group: the requester's derived nodeID must be an
// authorized primary or group peer. When the requester IS the primary asking
// about its own state, the response additionally carries a fresh challenge
// that opens an anti-entropy round — RRepair frames must echo it.
func (n *Node) handleDigest(r transport.Responder, payload []byte) {
	sender, part, ok := replUnwrap(payload)
	if !ok || n.replicas == nil {
		return
	}
	if !n.allowedReader(sender) {
		n.cnt.replUnauthorized.Inc()
		return
	}
	d := wire.NewDecoder(part)
	if d.U64() != replSigDigest {
		return
	}
	primaryRaw := d.Bytes()
	if d.Finish() != nil || len(primaryRaw) != pkc.NodeIDSize {
		return
	}
	var primary pkc.NodeID
	copy(primary[:], primaryRaw)
	var challenge []byte
	if sender == primary && n.allowedPrimary(sender) {
		c, err := n.openRepairRound(primary)
		if err != nil {
			return
		}
		challenge = c[:]
	}
	epoch, lastSeq, diverged, store := n.resolveReplSource(primary)
	var e wire.Encoder
	e.U64(epoch).U64(lastSeq).Bool(diverged).Bytes(challenge)
	if store == nil {
		e.U64(0)
	} else {
		digests := store.Digests()
		e.U64(uint64(len(digests)))
		for _, dg := range digests {
			e.U64(uint64(dg.CRC)).U64(dg.Version)
		}
	}
	_ = r.Respond(wire.RDigestResp, e.Encode())
}

// handleFetch serves one shard export for a primary's state (promotion-time
// pull between surviving replicas). Exports include per-reporter tallies, so
// they are served only to the configured replica group — to anyone else they
// would dismantle the reporter anonymity the onion path exists for.
func (n *Node) handleFetch(r transport.Responder, payload []byte) {
	sender, part, ok := replUnwrap(payload)
	if !ok || n.replicas == nil {
		return
	}
	if !n.allowedReader(sender) {
		n.cnt.replUnauthorized.Inc()
		return
	}
	d := wire.NewDecoder(part)
	if d.U64() != replSigFetch {
		return
	}
	primaryRaw := d.Bytes()
	shardIndex := d.U64()
	if d.Finish() != nil || len(primaryRaw) != pkc.NodeIDSize {
		return
	}
	var primary pkc.NodeID
	copy(primary[:], primaryRaw)
	epoch, lastSeq, _, store := n.resolveReplSource(primary)
	if store == nil || shardIndex >= uint64(store.ShardCount()) {
		return
	}
	var e wire.Encoder
	e.U64(epoch).U64(lastSeq).Bytes(store.ExportShard(int(shardIndex)))
	_ = r.Respond(wire.RFetchResp, e.Encode())
}

// resolveReplSource maps a primary nodeID onto the store this node holds for
// it: the agent's own store when asked about itself, else its replica store.
// A nil store means "this node knows nothing about that primary".
func (n *Node) resolveReplSource(primary pkc.NodeID) (epoch, lastSeq uint64, diverged bool, store *repstore.Store) {
	if n.agent != nil && primary == n.agent.ID() {
		if n.repl != nil {
			epoch, lastSeq = n.repl.position()
		}
		return epoch, lastSeq, false, n.agent.Store()
	}
	st, err := n.replicaState(primary, 0, false)
	if err != nil || st == nil {
		return 0, 0, false, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch, st.lastSeq, st.diverged, st.store
}

// --- digest / fetch clients ----------------------------------------------

// digestResp is a decoded RDigestResp.
type digestResp struct {
	epoch, lastSeq uint64
	diverged       bool
	challenge      []byte // repair-round challenge; empty unless the replica recognizes the requester as its primary
	digests        []repstore.ShardDigest
}

// replDigests asks addr for its per-shard digests of primary's state,
// signing the request as `as` — the replicator's pinned identity when the
// primary itself asks (the replica authorizes exactly that ID), the node's
// current identity for peer pulls.
func (n *Node) replDigests(addr string, as *pkc.Identity, primary pkc.NodeID) (digestResp, error) {
	var sp wire.Encoder
	sp.U64(replSigDigest).Bytes(primary[:])
	typ, resp, err := n.roundTripTimeout(addr, wire.RDigest, replWrap(as, sp.Encode()), n.timeout())
	if err != nil {
		return digestResp{}, err
	}
	if typ != wire.RDigestResp {
		return digestResp{}, ErrBadMessage
	}
	d := wire.NewDecoder(resp)
	out := digestResp{epoch: d.U64(), lastSeq: d.U64()}
	out.diverged = d.Bool()
	out.challenge = append([]byte(nil), d.Bytes()...)
	cnt := d.U64()
	if d.Err() != nil || cnt > 1<<16 {
		return digestResp{}, ErrBadMessage
	}
	out.digests = make([]repstore.ShardDigest, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		crc := d.U64()
		version := d.U64()
		out.digests = append(out.digests, repstore.ShardDigest{CRC: uint32(crc), Version: version})
	}
	if err := d.Finish(); err != nil {
		return digestResp{}, err
	}
	return out, nil
}

// replFetch pulls one shard export of primary's state from addr.
func (n *Node) replFetch(addr string, primary pkc.NodeID, shard uint64) (digestResp, []byte, error) {
	var sp wire.Encoder
	sp.U64(replSigFetch).Bytes(primary[:]).U64(shard)
	typ, resp, err := n.roundTripTimeout(addr, wire.RFetch, replWrap(n.identity(), sp.Encode()), n.timeout())
	if err != nil {
		return digestResp{}, nil, err
	}
	if typ != wire.RFetchResp {
		return digestResp{}, nil, ErrBadMessage
	}
	d := wire.NewDecoder(resp)
	pos := digestResp{epoch: d.U64(), lastSeq: d.U64()}
	export := d.Bytes()
	if err := d.Finish(); err != nil {
		return digestResp{}, nil, err
	}
	return pos, export, nil
}

// pullFromSurvivors reconciles this node's replica of primary with the other
// surviving replicas (the primary itself is gone): for every shard where a
// survivor's content differs AND its version is ahead, pull and import the
// survivor's copy. Returns the number of shards pulled.
func (n *Node) pullFromSurvivors(primary pkc.NodeID) int {
	st, err := n.replicaState(primary, 0, false)
	if err != nil || st == nil {
		return 0
	}
	st.mu.Lock()
	group := append([]string(nil), st.group...)
	st.mu.Unlock()
	self := n.Addr()
	pulled := 0
	for _, addr := range group {
		if addr == "" || addr == self {
			continue
		}
		resp, err := n.replDigests(addr, n.identity(), primary)
		if err != nil {
			continue
		}
		st.mu.Lock()
		mine := st.store.Digests()
		var want []int
		for i, dg := range mine {
			if i < len(resp.digests) && resp.digests[i].CRC != dg.CRC && resp.digests[i].Version > dg.Version {
				want = append(want, i)
			}
		}
		st.mu.Unlock()
		for _, i := range want {
			_, export, err := n.replFetch(addr, primary, uint64(i))
			if err != nil {
				continue
			}
			st.mu.Lock()
			if st.store.ImportShard(i, export) == nil {
				pulled++
			}
			st.mu.Unlock()
		}
		st.mu.Lock()
		if resp.epoch == st.epoch && resp.lastSeq > st.lastSeq {
			st.lastSeq = resp.lastSeq
		}
		st.mu.Unlock()
	}
	if pulled > 0 {
		_ = st.store.Snapshot()
	}
	n.cnt.replPulled.Add(int64(pulled))
	return pulled
}

// --- replication-status probe (onion-inner) ------------------------------

// ReplStatus is a backup agent's replication position for one primary, the
// signal stateful promotion picks the most-caught-up standby by.
type ReplStatus struct {
	Primary pkc.NodeID
	Epoch   uint64
	LastSeq uint64
	Reports int64
}

// replicationStatus asks agent (through its onion) how caught-up its replica
// of primary is. promote additionally instructs the agent to reconcile with
// the surviving replicas before answering, so the returned position reflects
// the post-pull state. Single attempt; callers own retries. Request body:
// primary, promote flag. Reply body: primary, epoch, last sequence, reports.
func (n *Node) replicationStatus(agent AgentInfo, primary pkc.NodeID, promote bool, replyOnion *onion.Onion, wait time.Duration) (ReplStatus, error) {
	q, err := n.newRequest(replyOnion)
	if err != nil {
		return ReplStatus{}, err
	}
	q.body.Bytes(primary[:]).Bool(promote)
	r, err := n.exchange(agent, wire.TReplStatusReq, &q, wait)
	if err != nil {
		return ReplStatus{}, err
	}
	st := ReplStatus{Primary: primary}
	primaryRaw := r.Bytes()
	st.Epoch = r.U64()
	st.LastSeq = r.U64()
	st.Reports = int64(r.U64())
	if r.Finish() != nil || !bytes.Equal(primaryRaw, primary[:]) {
		return ReplStatus{}, ErrBadAgent
	}
	return st, nil
}

// handleReplStatusReq answers a replication-status probe arriving through
// this agent's onion. A promote request pulls from survivors first, so the
// response position (and subsequent trust answers) reflect the reconciled
// state.
func (n *Node) handleReplStatusReq(sealed []byte) {
	if n.agent == nil {
		return
	}
	req, err := n.openRequest(sealed)
	if err != nil {
		return
	}
	primary, ok := decodeNodeID(&req.body)
	promote := req.body.Bool()
	if !ok || req.body.Finish() != nil {
		return
	}
	if err := n.agent.RegisterKey(req.id, req.sp); err != nil {
		return
	}
	if promote {
		n.pullFromSurvivors(primary)
	}
	epoch, lastSeq, _, store := n.resolveReplSource(primary)
	var reports int64
	if store != nil {
		reports = int64(store.ReportCount())
	}
	e := req.replyBody()
	e.Bytes(primary[:]).U64(epoch).U64(lastSeq).U64(uint64(reports))
	n.reply(&req, &e)
}

// promoteReplica performs stateful backup promotion for a dead primary
// (§3.4.3 extended by DESIGN.md §10): probe every backup's replication
// status for primary, cache positions in book, then promote the
// most-caught-up healthy backup — after instructing it to reconcile with the
// surviving replicas, so it serves the primary's tallies immediately.
func (n *Node) promoteReplica(book *AgentBook, primary pkc.NodeID, replyOnion *onion.Onion) (pkc.NodeID, bool) {
	type candidate struct {
		id   pkc.NodeID
		info AgentInfo
		seq  uint64
	}
	var cands []candidate
	for _, id := range book.Backups() {
		info, ok := book.BackupInfo(id)
		if !ok {
			continue
		}
		allow, probe := book.Allow(id)
		if !allow {
			continue
		}
		if probe {
			n.cnt.breakerHalf.Inc()
		}
		status, err := n.replicationStatus(info, primary, false, replyOnion, n.opts.ProbeTimeout)
		if err != nil {
			n.noteFailure(book, id)
			continue
		}
		n.noteSuccess(book, id)
		book.NoteReplicaSeq(id, primary, status.LastSeq)
		cands = append(cands, candidate{id: id, info: info, seq: status.LastSeq})
	}
	// Most-caught-up first; the stable sort keeps recency order among ties.
	// A candidate that fails its reconcile instruction — or vanished from
	// the backup cache since probing — must not abandon the failover while
	// promotable candidates remain.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].seq > cands[j].seq })
	for _, c := range cands {
		if _, err := n.replicationStatus(c.info, primary, true, replyOnion, n.timeout()); err != nil {
			n.noteFailure(book, c.id)
			continue
		}
		if !book.Restore(c.id) {
			continue
		}
		n.cnt.failovers.Inc()
		return c.id, true
	}
	return pkc.NodeID{}, false
}
