package node

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/resilience"
	"hirep/internal/transport"
	"hirep/internal/wire"
)

// This file implements agent-state replication (DESIGN.md §10): a primary
// agent ships every committed repstore batch to its replica agents over the
// pooled transport, sequenced per process epoch, with periodic anti-entropy
// (per-shard CRC digests, full shard streams for mismatches) so a
// diverged replica or cold standby converges without replaying the primary's
// disk. Replica state plugs into the serving path through
// agentdir.Agent.AttachSource, so a standby the breaker promotes answers
// trust requests with the dead primary's tallies.

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

// --- primary side --------------------------------------------------------

// replicator is the primary-side shipping machinery: one hinted-handoff
// outbox and sender goroutine per replica, fed by the store's OnCommit tap.
type replicator struct {
	n     *Node
	self  *pkc.Identity // identity captured at Listen; frames are signed with it
	epoch uint64        // random per process start; replicas detect restarts by it

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
	sp.U64(replSigBatch).U64(r.epoch).U64(seq).Bytes(batch)
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
//     point, no sentinel, no replica snapshot. Digest CRCs are cached until
//     the shard next changes, so this comparison is cheap on both sides.
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
	theirs, err := r.replDigests(t.addr)
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
	sp.U64(replSigRepair).U64(r.epoch).U64(syncSeq).U64(shard).Bytes(challenge).Bytes(export)
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

// --- replica side --------------------------------------------------------

// replicaSet holds the replica stores this agent maintains for other
// primaries, keyed by primary nodeID, plus the authorization set that gates
// every replication frame: replication is an offline pairing, not an open
// protocol, so a frame from an identity outside primaries (the IDs this node
// replicates FOR) is dropped no matter how well it verifies. A primary
// reads digests only of its own replica — shard exports carry per-reporter
// tallies, so nobody else reads them at all.
type replicaSet struct {
	mu        sync.Mutex
	m         map[pkc.NodeID]*replState
	primaries map[pkc.NodeID]bool
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

func newReplicaSet(primaries []pkc.NodeID) *replicaSet {
	rs := &replicaSet{
		m:         make(map[pkc.NodeID]*replState),
		primaries: make(map[pkc.NodeID]bool),
		rounds:    make(map[pkc.NodeID]*repairRound),
	}
	for _, id := range primaries {
		rs.primaries[id] = true
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

// allowedPrimary reports whether id may mutate or read replica state on this
// node.
func (n *Node) allowedPrimary(id pkc.NodeID) bool {
	if n.replicas == nil {
		return false
	}
	n.replicas.mu.Lock()
	defer n.replicas.mu.Unlock()
	return n.replicas.primaries[id]
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
}

// replicaState returns (creating on demand when create is set) the replica
// state for primary. New stores live under StoreDir/replica/<primaryID> when
// the node is durable and attach to the agent as a serving source.
func (n *Node) replicaState(primary pkc.NodeID, create bool) (*replState, error) {
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
	store, err := repstore.Open(dir, repstore.Options{})
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
	st, err := n.replicaState(primary, false)
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
	batch := d.Bytes()
	if d.Finish() != nil || epoch == 0 {
		return
	}
	st, err := n.replicaState(sender, true)
	if err != nil {
		return
	}
	st.mu.Lock()
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
	shardIndex := d.U64()
	challenge := d.Bytes()
	export := d.Bytes()
	if d.Finish() != nil || epoch == 0 {
		return
	}
	if !n.matchRepairRound(sender, challenge) {
		n.cnt.replUnauthorized.Inc()
		return
	}
	st, err := n.replicaState(sender, true)
	if err != nil {
		return
	}
	st.mu.Lock()
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

// handleDigest serves a primary the per-shard digests of this node's replica
// of it, with a fresh challenge that opens an anti-entropy round — RRepair
// frames must echo it. The requester's derived nodeID is the primary: only
// an authorized primary is answered, and only about its own replica.
func (n *Node) handleDigest(r transport.Responder, payload []byte) {
	sender, part, ok := replUnwrap(payload)
	if !ok || n.replicas == nil {
		return
	}
	if !n.allowedPrimary(sender) {
		n.cnt.replUnauthorized.Inc()
		return
	}
	d := wire.NewDecoder(part)
	if d.U64() != replSigDigest || d.Finish() != nil {
		return
	}
	challenge, err := n.openRepairRound(sender)
	if err != nil {
		return
	}
	var epoch, lastSeq uint64
	var diverged bool
	var digests []repstore.ShardDigest
	if st, _ := n.replicaState(sender, false); st != nil {
		st.mu.Lock()
		epoch, lastSeq, diverged = st.epoch, st.lastSeq, st.diverged
		st.mu.Unlock()
		digests = st.store.Digests()
	}
	var e wire.Encoder
	e.U64(epoch).U64(lastSeq).Bool(diverged).Bytes(challenge[:]).U64(uint64(len(digests)))
	for _, dg := range digests {
		e.U64(uint64(dg.CRC))
	}
	_ = r.Respond(wire.RDigestResp, e.Encode())
}

// digestResp is a decoded RDigestResp.
type digestResp struct {
	epoch, lastSeq uint64
	diverged       bool
	challenge      []byte // repair-round challenge every RRepair frame must echo
	digests        []repstore.ShardDigest
}

// replDigests asks the replica at addr for its per-shard digests of this
// primary's state, signed with the replicator's pinned identity (the replica
// authorizes exactly that ID).
func (r *replicator) replDigests(addr string) (digestResp, error) {
	var sp wire.Encoder
	sp.U64(replSigDigest)
	typ, resp, err := r.n.roundTripTimeout(addr, wire.RDigest, replWrap(r.self, sp.Encode()), r.n.timeout())
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
	if d.Err() != nil || len(out.challenge) != pkc.NonceSize || cnt > 1<<16 {
		return digestResp{}, ErrBadMessage
	}
	out.digests = make([]repstore.ShardDigest, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		out.digests = append(out.digests, repstore.ShardDigest{CRC: uint32(d.U64())})
	}
	if err := d.Finish(); err != nil {
		return digestResp{}, err
	}
	return out, nil
}
