// Package node is the live hiREP node prototype — the paper's stated future
// work ("developing a hiREP prototype", §6) — running the real protocol over
// TCP with real cryptography: self-certifying identities (internal/pkc),
// the Figure 3 relay handshake and layered onions (internal/onion), and the
// reputation-agent report store (internal/agentdir).
//
// Every node can act as an onion relay; nodes started with Options.Agent
// additionally serve trust-value requests and accept signed transaction
// reports. Requestors reach agents exclusively through the agents' published
// onions and receive responses through their own onions, so neither side
// learns the other's transport address (§3.5).
package node

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/metrics"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/repstore"
	"hirep/internal/resilience"
	"hirep/internal/transport"
	"hirep/internal/wire"
)

// Errors returned by the node.
var (
	ErrClosed     = errors.New("node: closed")
	ErrTimeout    = errors.New("node: request timed out")
	ErrBadAgent   = errors.New("node: agent response failed verification")
	ErrNotAgent   = errors.New("node: this node is not an agent")
	ErrBadMessage = errors.New("node: malformed message")
)

// Options configures a node.
type Options struct {
	// Agent enables the reputation-agent role.
	Agent bool
	// Timeout bounds dials and request waits (default 5s).
	Timeout time.Duration
	// ProbeTimeout bounds liveness probes — ping round trips and breaker
	// half-open probe requests — so checking a dead peer is cheap (default
	// 750ms, capped at Timeout).
	ProbeTimeout time.Duration
	// StoreDir, when non-empty, backs the agent's report state with the
	// durable WAL store in that directory (internal/repstore): accepted
	// reports survive restarts, and Close flushes a snapshot. Empty keeps
	// the in-memory store. Requires Agent.
	StoreDir string
	// Retry shapes the jittered-exponential-backoff retry wrapper around the
	// node's client-side sends and round trips. Zero fields mean defaults
	// (3 attempts, 50ms base, 2s cap); Attempts: 1 disables retries.
	Retry resilience.RetryPolicy
	// Breaker tunes the per-agent circuit breakers of books attached with
	// AttachBook. Zero fields mean defaults (3 consecutive failures, 30s
	// cooldown).
	Breaker resilience.BreakerConfig
	// OutboxPath, when non-empty, journals undeliverable transaction reports
	// to that file so they survive restarts; empty keeps the outbox in
	// memory only. The outbox is active either way.
	OutboxPath string
	// OutboxFlushInterval is the base cadence of the background flusher that
	// retries queued reports (default 250ms, backed off while deliveries
	// keep failing).
	OutboxFlushInterval time.Duration
	// Dialer replaces the TCP connector, e.g. with a
	// resilience.FaultDialer for chaos tests. Nil means real TCP. The
	// connection pool dials through it, so fault injection bites pooled
	// sessions exactly as it bit one-shot dials.
	Dialer resilience.Dialer
	// MaxSessions caps concurrently served inbound connections; beyond it
	// new connections are closed immediately and counted in
	// node_sessions_shed_total rather than spawning goroutines (default 256).
	MaxSessions int
	// Replicas lists replica-agent addresses this agent ships its committed
	// report batches to (DESIGN.md §10). Requires Agent.
	Replicas []string
	// ReplicaOf lists the primary agent IDs this node replicates FOR:
	// RReplicate/RRepair frames (and on-demand replica store creation) are
	// accepted only from these identities. Replication is an offline
	// pairing — without an entry here every replication frame is dropped,
	// however validly signed, so an attacker cannot mint an identity and
	// poison this agent's combined tally or fill its disk with replica
	// stores. Requires Agent.
	ReplicaOf []pkc.NodeID
	// ReplicaPeers lists fellow replica-group member IDs allowed to read
	// this node's replication state (RDigest/RFetch — shard exports carry
	// per-reporter tallies and must stay inside the group). IDs in
	// ReplicaOf are implicitly allowed. Requires Agent.
	ReplicaPeers []pkc.NodeID
	// SyncInterval is the cadence of the periodic anti-entropy pass against
	// each replica (default 5s).
	SyncInterval time.Duration
	// HandoffCap bounds each replica's hinted-handoff queue (default 1024);
	// overflow evicts the oldest batch, and anti-entropy later heals the gap.
	HandoffCap int
	// VerifyWorkers sizes the agent's report-verification worker pool
	// (default GOMAXPROCS). Requires Agent to matter.
	VerifyWorkers int
	// VerifyQueue bounds the admission queue in front of the verification
	// pool (default 128 batches); a batch arriving at a full queue is shed
	// with an all-saturated ack instead of queueing unboundedly.
	VerifyQueue int
	// AdmissionPoWBits, when positive on an agent, arms the sybil-admission
	// gate (DESIGN.md §13): the first report batch of every identity must
	// carry a proof-of-work solution with this many leading zero bits bound
	// to the reporter's nodeID, checked in the ingest path before any
	// signature work. 0 disables the gate; at most pkc.MaxAdmissionBits,
	// since no sender can mint a harder proof.
	AdmissionPoWBits int
	// AdmissionRate is the sustained reports/sec the gate allows per
	// admitted identity; exceeding it revokes the admission so a flood pays
	// a fresh proof of work per burst. 0 means unlimited once admitted.
	AdmissionRate float64
	// AdmissionBurst is the per-identity token-bucket burst (default two
	// full report batches, 512). Only meaningful with AdmissionRate set.
	AdmissionBurst int
	// EvidenceCap, when positive on an agent, retains up to that many signed
	// report wires per subject in the report store — the evidence log behind
	// the verifiable-read subsystem (DESIGN.md §14). 0 keeps tallies only;
	// proof bundles then verify Partial rather than Matching. Requires Agent.
	EvidenceCap int
	// ProofCache, when positive, bounds the agent's proof payload cache
	// (entries, FIFO), which memoizes assembled bundles and snapshots.
	// Requires Agent.
	ProofCache int
	// AuditInterval is the cadence of the background audit sweep started by
	// StartAuditor (DESIGN.md §15). 0 disables the periodic loop; AuditSweep
	// can still be driven manually.
	AuditInterval time.Duration
}

// AgentInfo is what a trusted-agent list entry holds about an agent in the
// live protocol: its signature key (authenticity), anonymity key (payload
// confidentiality), and published onion (reachability without an address).
type AgentInfo struct {
	SP    ed25519.PublicKey
	AP    *ecdh.PublicKey
	Onion *onion.Onion
}

// ID returns the agent's self-certifying node ID.
func (a AgentInfo) ID() pkc.NodeID { return pkc.DeriveNodeID(a.SP) }

// Node is one live hiREP participant.
type Node struct {
	opts    Options // defaults filled in by Listen; never written after it returns
	ln      net.Listener
	agent   *agentdir.Agent
	ages    *onion.AgeTracker
	seqMu   sync.Mutex
	seq     uint64
	mu      sync.Mutex
	ids     atomic.Pointer[[]*pkc.Identity] // current identity, then grace-period predecessors; swapped whole at rotation
	memo    *onion.Memo                     // peels and onion signatures this node already checked
	proofs  *proof.Verifier                 // evidence and key-update signatures this node already checked
	hs      map[pkc.Nonce]onion.RelayAnswer // outstanding relay handshakes
	pending map[pkc.ReplyHandle]waiter      // outstanding sealed exchanges (exchange.go)
	closed  atomic.Bool                     // checked on hot paths without taking n.mu
	wg      sync.WaitGroup

	// timeoutNs is Options.Timeout as SetTimeout last left it: an atomic,
	// because every frame a relay forwards reads it.
	timeoutNs atomic.Int64

	// Batched report ingest (batch.go): the agent-side verification pool.
	ingest    *ingestPool
	admission *admissionGate // sybil-admission gate (nil = disabled)

	// Report delivery (resilience.go): the reply route the outbox flusher's
	// acks come back through (newRequest records it), and the agents the
	// one-way fast path may use, each with the identity it acked.
	replyRoute atomic.Pointer[onion.Onion]
	oneWayMu   sync.Mutex
	oneWay     map[pkc.NodeID]*pkc.Identity

	// Replication plumbing (replication.go): primary-side shipping state and
	// replica stores held for other primaries.
	repl     *replicator
	replicas *replicaSet

	// Verifiable-read plumbing (proof.go): the payload cache and the audit
	// harness's tamper hook.
	proofCache  *proofCache
	proofMu     sync.Mutex
	proofTamper func(*proof.Bundle)

	// Transport plumbing (transport.go): the outbound connection pool and
	// the inbound session gate.
	pool       *transport.Pool
	sessionSem chan struct{}
	sessMu     sync.Mutex
	sessions   map[net.Conn]struct{}

	// reg is the metrics registry and cnt every counter the node keeps,
	// bound to it once at Listen (stats.go).
	reg *metrics.Registry
	cnt counters

	// Resilience plumbing (resilience.go): retry wrapper, pluggable dialer,
	// durable report outbox and its flusher, and the agent book whose
	// breakers gate outbox flushing.
	retrier  *resilience.Retrier
	dialer   resilience.Dialer
	outbox   *resilience.Outbox
	bookMu   sync.Mutex
	book     *AgentBook
	flushCh  chan struct{}
	closeCh  chan struct{}
	outboxWG sync.WaitGroup

	// Agent discovery state (discovery.go).
	neighbors     []string
	ownDescriptor string
	agentCache    map[pkc.NodeID]string
	discoveries   map[pkc.Nonce]*discoveryCollect
	walksSeen     *pkc.ReplayCache

	// Audit plumbing (audit.go): the auditor state machine behind
	// StartAuditor/AuditSweep, gossip dedup, the verified-advisory log, and
	// the per-accused verified-lying-evidence ledger driving the
	// quarantine → eviction escalation.
	auditor       *auditor
	auditMu       sync.Mutex
	advSeen       *pkc.ReplayCache // advisory digests already processed
	advisLog      []AdvisoryRecord // bounded log of verified advisories
	lyingEvidence map[pkc.NodeID]map[[32]byte]bool
}

// relayAlias is the onion-route hop type returned by FetchAnonKey.
type relayAlias = onion.Relay

// maxPrevIdentities bounds the rotation grace window: onions sealed to older
// identities than this stop being peelable.
const maxPrevIdentities = 2

// SetTimeout adjusts the node's dial/request timeout at runtime.
func (n *Node) SetTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	n.timeoutNs.Store(int64(d))
}

// timeout returns the current dial/request timeout. The frame path calls it
// once per forwarded frame, so it takes no lock.
func (n *Node) timeout() time.Duration { return time.Duration(n.timeoutNs.Load()) }

// identity returns the node's current identity (thread-safe).
func (n *Node) identity() *pkc.Identity { return n.identities()[0] }

// identities returns the current identity followed by grace-period
// predecessors, newest first. The slice is an immutable snapshot shared by
// every caller: the frame path reads it without a lock or an allocation.
func (n *Node) identities() []*pkc.Identity { return *n.ids.Load() }

// Listen starts a node on addr ("127.0.0.1:0" for an ephemeral port).
func Listen(addr string, opts Options) (*Node, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = defaultProbeTimeout
	}
	if opts.ProbeTimeout > opts.Timeout {
		opts.ProbeTimeout = opts.Timeout
	}
	if opts.OutboxFlushInterval <= 0 {
		opts.OutboxFlushInterval = defaultFlushInterval
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = defaultMaxSessions
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = defaultSyncInterval
	}
	if opts.HandoffCap <= 0 {
		opts.HandoffCap = defaultHandoffCap
	}
	if opts.VerifyWorkers <= 0 {
		opts.VerifyWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.VerifyQueue <= 0 {
		opts.VerifyQueue = defaultVerifyQueue
	}
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: listen: %w", err)
	}
	n := &Node{
		opts:       opts,
		ln:         ln,
		ages:       onion.NewAgeTracker(),
		hs:         make(map[pkc.Nonce]onion.RelayAnswer),
		pending:    make(map[pkc.ReplyHandle]waiter),
		dialer:     opts.Dialer,
		reg:        metrics.NewRegistry(),
		flushCh:    make(chan struct{}, 1),
		closeCh:    make(chan struct{}),
		sessionSem: make(chan struct{}, opts.MaxSessions),
	}
	n.ids.Store(&[]*pkc.Identity{id})
	n.timeoutNs.Store(int64(opts.Timeout))
	if opts.ProofCache > 0 {
		n.proofCache = newProofCache(opts.ProofCache, defaultSnapshotTTL)
	}
	if n.dialer == nil {
		n.dialer = resilience.NetDialer("tcp")
	}
	n.cnt.bind(n.reg)
	n.memo = onion.NewMemo(n.reg)
	n.proofs = proof.NewVerifier(n.reg)
	n.pool = transport.New(transport.Options{Dialer: n.dialer, Metrics: n.reg})
	// Seed the retry jitter from the node identity so distinct nodes desync
	// their backoff schedules while one node's runs stay reproducible for a
	// fixed identity (tests inject identities via the fault dialer seam
	// instead, so this only needs to vary per node).
	n.retrier = resilience.NewRetrier(opts.Retry, int64(id.ID[0])<<8|int64(id.ID[1]))
	n.retrier.OnRetry = func(int, error) { n.cnt.retries.Inc() }
	n.outbox, err = resilience.OpenOutbox(opts.OutboxPath, 0)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("node: open outbox: %w", err)
	}
	n.cnt.outboxDepth.Set(int64(n.outbox.Depth()))
	if opts.Agent {
		// The replicator exists before the store opens so the store's commit
		// tap can feed it; senders start only after everything else is wired.
		var hook func([]byte)
		if len(opts.Replicas) > 0 {
			n.repl, err = newReplicator(n, id)
			if err != nil {
				ln.Close()
				n.outbox.Close()
				return nil, err
			}
			hook = n.repl.onCommit
		}
		st, err := repstore.Open(opts.StoreDir, repstore.Options{OnCommit: hook, EvidenceCap: opts.EvidenceCap})
		if err != nil {
			ln.Close()
			n.outbox.Close()
			if n.repl != nil {
				n.repl.closeOutboxes()
			}
			return nil, fmt.Errorf("node: open report store: %w", err)
		}
		n.agent = agentdir.NewWithStore(id, 0, st)
		n.replicas = newReplicaSet(opts.ReplicaOf, opts.ReplicaPeers)
		n.admission = newAdmissionGate(opts.AdmissionPoWBits, opts.AdmissionRate, opts.AdmissionBurst)
		n.startIngestPool(opts.VerifyWorkers, opts.VerifyQueue)
		if n.repl != nil {
			n.repl.start()
		}
	}
	n.wg.Add(1)
	go n.acceptLoop()
	n.outboxWG.Add(1)
	go n.flushLoop()
	return n, nil
}

// validate rejects the options Listen cannot honour: an agent-only setting
// on a non-agent, or a proof of work no sender can mint.
func (o *Options) validate() error {
	if !o.Agent {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"StoreDir", o.StoreDir != ""},
			{"Replicas", len(o.Replicas) > 0},
			{"ReplicaOf", len(o.ReplicaOf) > 0},
			{"ReplicaPeers", len(o.ReplicaPeers) > 0},
			{"EvidenceCap", o.EvidenceCap > 0},
			{"ProofCache", o.ProofCache > 0},
		} {
			if f.set {
				return fmt.Errorf("node: %s requires Agent", f.name)
			}
		}
	}
	if o.AdmissionPoWBits > pkc.MaxAdmissionBits {
		return fmt.Errorf("node: AdmissionPoWBits %d exceeds the mintable maximum %d", o.AdmissionPoWBits, pkc.MaxAdmissionBits)
	}
	return nil
}

// ID returns the node's identity.
func (n *Node) ID() pkc.NodeID { return n.identity().ID }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// anonPublic returns the node's anonymity public key (AP).
func (n *Node) anonPublic() *ecdh.PublicKey { return n.identity().Anon.Public }

// Agent returns the node's agent state (nil for non-agents), for inspection.
func (n *Node) Agent() *agentdir.Agent { return n.agent }

// Close shuts the node down, waits for in-flight handlers, and flushes the
// agent's report store (snapshot + WAL release) when one is attached. Reports
// still queued in the outbox stay journaled (when OutboxPath is set) for the
// next run.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.closeCh)
	err := n.ln.Close()
	n.outboxWG.Wait()
	if n.repl != nil {
		n.repl.wg.Wait() // sender loops exit on closeCh
	}
	_ = n.pool.Close() // drains in-flight outbound requests
	n.closeSessions()  // inbound sessions would otherwise linger to idle timeout
	n.wg.Wait()
	if n.ingest != nil {
		n.ingest.stop() // verification workers must quit before the store closes
	}
	if oerr := n.outbox.Close(); err == nil {
		err = oerr
	}
	if n.agent != nil {
		if serr := n.agent.Close(); err == nil {
			err = serr
		}
	}
	if n.repl != nil {
		n.repl.closeOutboxes()
	}
	if rerr := n.closeReplicaStores(); err == nil {
		err = rerr
	}
	return err
}

func (n *Node) isClosed() bool {
	return n.closed.Load()
}

// handle dispatches one inbound frame. Handshake frames answer through the
// responder (same stream on a session, same socket for a one-shot);
// onion frames are one-way.
func (n *Node) handle(typ wire.MsgType, payload []byte, r transport.Responder) {
	switch typ {
	case wire.TRelayRequest:
		n.handleRelayRequest(r, payload)
	case wire.TKeyVerify:
		n.handleKeyVerify(r, payload)
	case wire.TOnion:
		n.handleOnion(payload)
	case wire.TAgentListReq:
		n.handleAgentListReq(payload)
	case wire.TAgentListResp:
		n.handleAgentListResp(payload)
	case wire.TPing:
		// §3.4.3 backup probe: echo the payload so the prober can match it.
		_ = r.Respond(wire.TPong, payload)
	case wire.RReplicate:
		n.handleReplicate(r, payload)
	case wire.RDigest:
		n.handleDigest(r, payload)
	case wire.RRepair:
		n.handleRepair(r, payload)
	case wire.RFetch:
		n.handleFetch(r, payload)
	}
}

func (n *Node) handleRelayRequest(r transport.Responder, payload []byte) {
	req, err := onion.DecodeRelayRequest(payload)
	if err != nil {
		return
	}
	ans, err := onion.AnswerRelayRequest(n.identity(), n.Addr(), req, nil)
	if err != nil {
		return
	}
	n.mu.Lock()
	n.hs[ans.Nonce] = ans
	n.mu.Unlock()
	_ = r.Respond(wire.TRelayResponse, ans.Response)
}

func (n *Node) handleKeyVerify(r transport.Responder, payload []byte) {
	kv, err := onion.OpenKeyVerify(n.identity(), payload)
	if err != nil {
		return
	}
	n.mu.Lock()
	_, ok := n.hs[kv.Nonce]
	if ok {
		delete(n.hs, kv.Nonce) // one confirmation per handshake: replay-proof
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	confirm, err := onion.ConfirmKeyVerify(n.Addr(), kv, nil)
	if err != nil {
		return
	}
	_ = r.Respond(wire.TKeyConfirm, confirm)
}

// handleOnion peels one layer and either forwards or consumes the payload.
func (n *Node) handleOnion(payload []byte) {
	d := wire.NewDecoder(payload)
	blob := d.Bytes()
	innerType := wire.MsgType(d.U64())
	inner := d.Bytes()
	if d.Finish() != nil {
		return
	}
	res, ok := n.peelAny(blob)
	if !ok {
		n.cnt.onionsRejected.Inc()
		return
	}
	if !res.Exit {
		n.cnt.onionsForwarded.Inc()
		// Relay: forward to the next hop; the inner payload is untouched, so
		// relays learn nothing about content or endpoints.
		var e wire.Encoder
		e.Bytes(res.Inner).U64(uint64(innerType)).Bytes(inner)
		_ = n.send(res.Next, wire.TOnion, e.Encode())
		return
	}
	n.cnt.onionsExited.Inc()
	switch innerType {
	case wire.TTrustReq:
		n.handleTrustReq(inner)
	case wire.TReply:
		n.handleReply(inner)
	case wire.TReport:
		n.handleReport(inner)
	case wire.TKeyUpdate:
		n.handleKeyUpdate(inner)
	case wire.TReplStatusReq:
		n.handleReplStatusReq(inner)
	case wire.TReportBatch:
		n.handleReportBatch(inner)
	case wire.TProofReq:
		n.handleProofReq(inner)
	case wire.TAdvisory:
		n.handleAdvisory(inner)
	}
}

// peelAny peels an onion layer with the current identity or a grace-period
// predecessor (rotation keeps old onions usable briefly). A memoised peel is
// found only under an identity still in that window.
func (n *Node) peelAny(blob []byte) (onion.PeelResult, bool) {
	for _, id := range n.identities() {
		if res, err := n.memo.Peel(id.Anon, blob); err == nil {
			return res, true
		}
	}
	return onion.PeelResult{}, false
}

// openAny opens a sealed payload with the current identity or a grace-period
// predecessor, returning the identity that succeeded.
func (n *Node) openAny(sealed []byte) (*pkc.Identity, []byte, bool) {
	for _, id := range n.identities() {
		if plain, err := id.Anon.Open(sealed); err == nil {
			return id, plain, true
		}
	}
	return nil, nil, false
}

// sendTimeout writes one frame to addr within budget over a pooled session
// connection. Single attempt; send adds retries.
func (n *Node) sendTimeout(addr string, typ wire.MsgType, payload []byte, budget time.Duration) error {
	return n.pool.Send(addr, typ, payload, budget)
}

// send dials addr and writes one frame, retrying transient failures under
// the node's retry policy.
func (n *Node) send(addr string, typ wire.MsgType, payload []byte) error {
	return n.retrier.Do(func(_ int, perAttempt time.Duration) error {
		return n.sendTimeout(addr, typ, payload, n.attemptBudget(perAttempt))
	})
}

// roundTripTimeout writes one frame to addr and waits for its matched
// response, all within budget — multiplexed over a pooled session
// connection. Single attempt; roundTrip adds retries.
func (n *Node) roundTripTimeout(addr string, typ wire.MsgType, payload []byte, budget time.Duration) (wire.MsgType, []byte, error) {
	return n.pool.RoundTrip(addr, typ, payload, budget)
}

// roundTrip dials addr, writes one frame, and reads one response frame,
// retrying transient failures under the node's retry policy.
func (n *Node) roundTrip(addr string, typ wire.MsgType, payload []byte) (wire.MsgType, []byte, error) {
	var (
		rtyp wire.MsgType
		resp []byte
	)
	err := n.retrier.Do(func(_ int, perAttempt time.Duration) error {
		var aerr error
		rtyp, resp, aerr = n.roundTripTimeout(addr, typ, payload, n.attemptBudget(perAttempt))
		return aerr
	})
	if err != nil {
		return 0, nil, err
	}
	return rtyp, resp, nil
}

// attemptBudget resolves the per-attempt deadline: the retry policy's when
// set, the node timeout otherwise.
func (n *Node) attemptBudget(perAttempt time.Duration) time.Duration {
	if perAttempt > 0 {
		return perAttempt
	}
	return n.timeout()
}

// nextSeq returns a fresh non-decreasing onion sequence number.
func (n *Node) nextSeq() uint64 {
	n.seqMu.Lock()
	defer n.seqMu.Unlock()
	n.seq++
	return n.seq
}
