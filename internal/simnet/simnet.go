// Package simnet is the discrete-event network simulator under hiREP and its
// baselines.
//
// The simulator owns virtual time and message delivery; protocols own node
// state machines. A message sent at time t from node a to node b arrives at
// b at
//
//	arrival = t + latency(a,b)
//
// where latency(a,b) is a stable per-pair propagation delay. The receiver
// then serves messages serially in arrival order: service begins when the
// receiver goes idle and occupies it for procPerMsg, so the handler runs at
//
//	max(arrival, busyUntil(b)) + procPerMsg
//
// with busyUntil resolved at arrival time, not send time. The queueing term
// is what makes flooding-based polling slow under load (Figure 8): a flood
// makes every node process hundreds of messages, so responses queue behind
// the flood itself, while hiREP's O(c) unicasts see idle receivers.
//
// Message counts per kind are tracked for the traffic-cost experiments
// (Figure 5). Counting is by point-to-point message, matching the paper's
// metric ("messages induced in the trust query process", §5.1). Kinds are
// interned integers (InternKind) so the send path indexes counter slices
// instead of hashing strings; the string-kind API remains as a thin wrapper.
package simnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"hirep/internal/topology"
	"hirep/internal/xrand"
)

// Time is virtual time in milliseconds.
type Time float64

// Config parameterizes the delivery model.
type Config struct {
	// LatencyMin/LatencyMax bound the per-pair propagation delay (ms).
	LatencyMin, LatencyMax Time
	// ProcPerMsg is the receiver's per-message processing time (ms); it is
	// the source of queueing delay under floods.
	ProcPerMsg Time
	// LossProb drops each message independently with this probability
	// (counted as sent — it left the sender — but never delivered).
	LossProb float64
	// Seed stabilizes the per-pair latency function and the loss draws.
	Seed int64
}

// DefaultConfig returns the delivery model used by the experiments: 20–60 ms
// one-way latency and 0.2 ms per-message processing.
func DefaultConfig(seed int64) Config {
	return Config{LatencyMin: 20, LatencyMax: 60, ProcPerMsg: 0.2, Seed: seed}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LatencyMin < 0 || c.LatencyMax < c.LatencyMin {
		return fmt.Errorf("simnet: bad latency range [%v,%v]", c.LatencyMin, c.LatencyMax)
	}
	if c.ProcPerMsg < 0 {
		return fmt.Errorf("simnet: negative processing time %v", c.ProcPerMsg)
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("simnet: LossProb %v out of [0,1)", c.LossProb)
	}
	return nil
}

// Message is a point-to-point message in flight.
type Message struct {
	Kind    string          // taxonomy label, e.g. "trust-query" — drives counters
	KindID  Kind            // interned form of Kind, for re-sends on the fast path
	From    topology.NodeID // sender
	To      topology.NodeID // receiver
	Payload any             // protocol-defined content
	SentAt  Time            // when the sender issued it
}

// Handler processes a delivered message at its receiving node.
type Handler func(net *Network, msg Message)

// Tracer observes every message delivery. Tracing happens at delivery time:
// at is the virtual delivery instant, sent the virtual send instant, and
// queued the portion of the in-flight time spent waiting for the receiver to
// go idle (all ms).
type Tracer interface {
	Record(at, sent, queued float64, kind string, from, to int)
}

// RunStats summarizes event-loop execution for an Observer.
type RunStats struct {
	Events      int64   // heap events processed by this Run call (a delivered message is up to two: arrival + completion)
	Delivered   int64   // handler invocations during this Run call
	WallSeconds float64 // wall-clock duration of this Run call
	PeakQueue   int     // deepest event-queue length seen since the Network was created
	Nodes       int     // network size
	BusySumMs   float64 // total receiver service time accumulated since creation (virtual ms)
	BusyMaxMs   float64 // largest single node's accumulated service time (virtual ms)
}

// Observer receives simulator performance telemetry: one Delivery call per
// handled message and one RunDone per Run call. internal/metrics aggregates
// these into histograms; a nil observer costs nothing on the hot path.
type Observer interface {
	Delivery(kind string, latencyMs, queuedMs float64)
	RunDone(RunStats)
}

// latEntry is one direct-mapped latency-cache slot. key holds the packed
// node pair plus one so the zero value means empty.
type latEntry struct {
	key uint64
	val Time
}

// Network is a discrete-event simulation instance. Not safe for concurrent
// use: one Network per goroutine (experiments parallelize across replicas).
type Network struct {
	graph      *topology.Graph
	cfg        Config
	now        Time
	seq        uint64
	pq         eventQueue
	ring       completionRing
	svc        []svcQueue
	svcWaiting int // messages in service queues beyond each queue's head
	peakQueue  int
	handlers   []Handler
	busyTime   []Time // accumulated service time per receiver
	kindCounts []int64
	kindBytes  []int64
	kindName   []string // local snapshot of the registry's id->name table
	total      int64
	totalB     int64
	delivered  int64
	dropped    int64
	inFlight   int64
	epoch      uint32
	running    bool
	tracer     Tracer
	observer   Observer
	lossRNG    *xrand.RNG
	latCache   []latEntry
	latMask    uint64
}

// New creates a simulator over graph g.
func New(g *topology.Graph, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		graph:    g,
		cfg:      cfg,
		handlers: make([]Handler, g.N()),
		svc:      make([]svcQueue, g.N()),
		busyTime: make([]Time, g.N()),
	}
	// Size the latency cache to the graph: most traffic flows over a node's
	// neighbors and agents, so a few slots per node give a high hit rate
	// while bounding the footprint (16 B/slot, at most 256 KiB).
	slots := g.N() * 8
	if slots < 256 {
		slots = 256
	}
	if slots > 1<<14 {
		slots = 1 << 14
	}
	size := 1 << bits.Len(uint(slots-1))
	n.latCache = make([]latEntry, size)
	n.latMask = uint64(size - 1)
	if cfg.LossProb > 0 {
		n.lossRNG = xrand.New(cfg.Seed).Split("loss")
	}
	return n, nil
}

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Now returns current virtual time.
func (n *Network) Now() Time { return n.now }

// SetHandler installs node's message handler. A nil handler drops messages.
func (n *Network) SetHandler(node topology.NodeID, h Handler) { n.handlers[node] = h }

// Latency returns the stable propagation delay between a and b. It is
// symmetric and deterministic in (Seed, {a,b}); draws are memoized in a
// bounded direct-mapped cache so the FNV hash stays off the per-message path.
func (n *Network) Latency(a, b topology.NodeID) Time {
	if a > b {
		a, b = b, a
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	e := &n.latCache[(key*0x9E3779B97F4A7C15>>32)&n.latMask]
	if e.key == key+1 {
		return e.val
	}
	v := n.latencyDraw(a, b)
	e.key, e.val = key+1, v
	return v
}

// latencyDraw computes the uncached latency: FNV-1a over (seed, a, b),
// inlined (hash/fnv's Hash64 costs an allocation and interface calls) but
// bit-for-bit identical to the seed implementation so experiment figures do
// not shift.
func (n *Network) latencyDraw(a, b topology.NodeID) Time {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(n.cfg.Seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(a))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b))
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range buf {
		h ^= uint64(c)
		h *= prime64
	}
	u := float64(h) / float64(math.MaxUint64)
	return n.cfg.LatencyMin + Time(u)*(n.cfg.LatencyMax-n.cfg.LatencyMin)
}

// Send schedules delivery of a message and counts it under its kind with no
// byte accounting (size 0).
func (n *Network) Send(from, to topology.NodeID, kind string, payload any) {
	n.SendKindBytes(from, to, InternKind(kind), payload, 0)
}

// SendBytes schedules delivery of a message of the given wire size, counting
// both the message and its bytes under kind. Protocols that model traffic
// volume (the bytes view of Figure 5) pass their estimated wire sizes here.
func (n *Network) SendBytes(from, to topology.NodeID, kind string, payload any, size int) {
	n.SendKindBytes(from, to, InternKind(kind), payload, size)
}

// SendKind is Send for a pre-interned kind.
func (n *Network) SendKind(from, to topology.NodeID, kind Kind, payload any) {
	n.SendKindBytes(from, to, kind, payload, 0)
}

// SendKindBytes is the zero-allocation send fast path: counter accounting is
// two slice increments, the latency draw is cached, and the scheduled
// delivery is a typed event record rather than a closure. Protocol packages
// intern their kinds once (InternKind) and send through this.
func (n *Network) SendKindBytes(from, to topology.NodeID, kind Kind, payload any, size int) {
	if to < 0 || int(to) >= n.graph.N() {
		panic(fmt.Sprintf("simnet: send to out-of-range node %d", to))
	}
	if size < 0 {
		panic("simnet: negative message size")
	}
	if int(kind) >= len(n.kindCounts) {
		n.growKinds(kind)
	}
	n.kindCounts[kind]++
	n.total++
	n.kindBytes[kind] += int64(size)
	n.totalB += int64(size)
	if n.lossRNG != nil && n.lossRNG.Bool(n.cfg.LossProb) {
		n.dropped++
		return // transmitted but lost in the network
	}
	n.inFlight++
	n.schedule(n.now+n.Latency(from, to), event{
		phase: evArrival,
		epoch: n.epoch,
		kind:  kind,
		from:  from,
		to:    to,
		sent:  n.now,
		load:  payload,
	})
}

// growKinds extends the per-kind counter slices to cover kind. Off the hot
// path: it runs at most once per kind per Network.
func (n *Network) growKinds(kind Kind) {
	if kind < 0 {
		panic(fmt.Sprintf("simnet: invalid kind %d", kind))
	}
	size := int(kind) + 8
	counts := make([]int64, size)
	copy(counts, n.kindCounts)
	n.kindCounts = counts
	bytes := make([]int64, size)
	copy(bytes, n.kindBytes)
	n.kindBytes = bytes
}

// name resolves an interned kind against the Network's registry snapshot,
// refreshing it only when a newer kind appears.
func (n *Network) name(kind Kind) string {
	if int(kind) >= len(n.kindName) {
		n.kindName = kindNames()
	}
	return n.kindName[kind]
}

// After schedules fn to run d after the current time.
func (n *Network) After(d Time, fn func()) {
	if d < 0 {
		panic("simnet: negative delay")
	}
	n.schedule(n.now+d, event{phase: evTimer, fn: fn})
}

// At schedules fn at absolute time t (>= now).
func (n *Network) At(t Time, fn func()) {
	if t < n.now {
		panic(fmt.Sprintf("simnet: schedule in the past: %v < %v", t, n.now))
	}
	n.schedule(t, event{phase: evTimer, fn: fn})
}

// schedule stores rec in the queue's slab and pushes its ordering key. Run
// never increases the number of outstanding events (it only moves messages
// from the heap into service queues), so tracking the peak here is exact.
func (n *Network) schedule(at Time, rec event) {
	n.seq++
	idx := n.pq.alloc(rec)
	n.pq.push(evKey{at: at, seq: n.seq, idx: idx})
	if outstanding := n.pq.len() + n.ring.n + n.svcWaiting; outstanding > n.peakQueue {
		n.peakQueue = outstanding
	}
}

// Run processes events until none remain, or until maxEvents events have run
// when maxEvents > 0 (a runaway guard). It returns the number processed. A
// delivered message costs up to two events: its arrival (which resolves the
// receiver-queueing term in arrival order) and its service completion.
func (n *Network) Run(maxEvents int) int {
	if n.running {
		panic("simnet: Run re-entered")
	}
	n.running = true
	defer func() { n.running = false }()
	var wallStart time.Time
	if n.observer != nil {
		wallStart = time.Now()
	}
	processed := 0
	deliveredBefore := n.delivered
	proc := n.cfg.ProcPerMsg
	for {
		hn, rn := n.pq.len() > 0, n.ring.n > 0
		if !hn && !rn {
			break
		}
		if maxEvents > 0 && processed >= maxEvents {
			break
		}
		// Pick the earlier of the next heap event and the next completion,
		// breaking time ties in schedule order.
		fromRing := rn
		if hn && rn {
			c, k := n.ring.peek(), n.pq.top()
			fromRing = c.at < k.at || (c.at == k.at && c.seq < k.seq)
		}
		if fromRing {
			c := n.ring.pop()
			if c.at < n.now {
				panic("simnet: time went backwards")
			}
			n.now = c.at
			processed++
			sq := &n.svc[c.node]
			idx := sq.pop()
			ev := n.pq.slab[idx]
			n.pq.release(idx)
			if !sq.empty() {
				// The receiver turns to the next queued message: its
				// queueing term resolves now, in arrival order.
				head := &n.pq.slab[sq.peekHead()]
				head.wait = n.now - head.wait // stashed arrival instant -> queueing delay
				n.busyTime[c.node] += proc
				n.svcWaiting--
				n.seq++
				n.ring.push(completion{at: n.now + proc, seq: n.seq, node: c.node})
			}
			n.deliver(&ev)
			continue
		}
		k := n.pq.top()
		if k.at < n.now {
			panic("simnet: time went backwards")
		}
		n.now = k.at
		processed++
		rec := &n.pq.slab[k.idx]
		if rec.phase == evArrival {
			sq := &n.svc[rec.to]
			if !sq.empty() {
				// Busy receiver: wait in arrival order behind the messages
				// that actually arrived first.
				rec.wait = n.now // stash arrival; resolved at service start
				rec.phase = evQueued
				sq.push(k.idx)
				n.svcWaiting++
				n.pq.popTop()
				continue
			}
			if proc > 0 {
				// Idle receiver: service starts immediately.
				rec.wait = 0
				rec.phase = evQueued
				sq.push(k.idx)
				n.busyTime[rec.to] += proc
				n.seq++
				n.ring.push(completion{at: n.now + proc, seq: n.seq, node: int32(rec.to)})
				n.pq.popTop()
				continue
			}
			// Idle receiver, zero processing time: deliver in place.
			rec.wait = 0
		}
		// Copy the record out and free its slot before running protocol
		// code: nested sends may grow the slab and reuse the slot.
		ev := *rec
		n.pq.popTop()
		n.pq.release(k.idx)
		if ev.phase == evTimer {
			ev.fn()
		} else {
			n.deliver(&ev)
		}
	}
	if n.observer != nil {
		var busySum, busyMax Time
		for _, b := range n.busyTime {
			busySum += b
			if b > busyMax {
				busyMax = b
			}
		}
		n.observer.RunDone(RunStats{
			Events:      int64(processed),
			Delivered:   n.delivered - deliveredBefore,
			WallSeconds: time.Since(wallStart).Seconds(),
			PeakQueue:   n.peakQueue,
			Nodes:       n.graph.N(),
			BusySumMs:   float64(busySum),
			BusyMaxMs:   float64(busyMax),
		})
	}
	return processed
}

// deliver completes one message: counters, tracing, metrics, handler.
func (n *Network) deliver(ev *event) {
	if ev.epoch == n.epoch {
		// Messages sent before the last ResetCounters still run their
		// handlers but do not count into the current measurement window.
		n.delivered++
		n.inFlight--
	}
	if n.tracer != nil {
		n.tracer.Record(float64(n.now), float64(ev.sent), float64(ev.wait), n.name(ev.kind), int(ev.from), int(ev.to))
	}
	if n.observer != nil {
		n.observer.Delivery(n.name(ev.kind), float64(n.now-ev.sent), float64(ev.wait))
	}
	if h := n.handlers[ev.to]; h != nil {
		h(n, Message{
			Kind:    n.name(ev.kind),
			KindID:  ev.kind,
			From:    ev.from,
			To:      ev.to,
			Payload: ev.load,
			SentAt:  ev.sent,
		})
	}
}

// Pending returns the number of scheduled, not-yet-run events: timers plus
// in-flight message events, whether propagating (heap), in service
// (completion ring), or waiting in a receiver's service queue.
func (n *Network) Pending() int { return n.pq.len() + n.ring.n + n.svcWaiting }

// InFlight returns the number of messages sent in the current counter window
// that have not yet been delivered. At all times
//
//	TotalMessages() == Delivered() + Dropped() + InFlight()
//
// and after Run drains the queue, InFlight() is 0.
func (n *Network) InFlight() int64 { return n.inFlight }

// PeakQueue returns the deepest event-queue length seen since creation.
func (n *Network) PeakQueue() int { return n.peakQueue }

// BusyTime returns node's accumulated service time (virtual ms).
func (n *Network) BusyTime(node topology.NodeID) Time { return n.busyTime[node] }

// Counts returns a copy of the per-kind message counters (kinds with nonzero
// counts).
func (n *Network) Counts() map[string]int64 {
	out := make(map[string]int64)
	for k, v := range n.kindCounts {
		if v != 0 {
			out[n.name(Kind(k))] = v
		}
	}
	return out
}

// Count returns the counter for one kind.
func (n *Network) Count(kind string) int64 {
	k, ok := lookupKind(kind)
	if !ok || int(k) >= len(n.kindCounts) {
		return 0
	}
	return n.kindCounts[k]
}

// CountKind returns the counter for one interned kind.
func (n *Network) CountKind(kind Kind) int64 {
	if int(kind) >= len(n.kindCounts) {
		return 0
	}
	return n.kindCounts[kind]
}

// Bytes returns the byte counter for one kind (0 unless senders used
// SendBytes).
func (n *Network) Bytes(kind string) int64 {
	k, ok := lookupKind(kind)
	if !ok || int(k) >= len(n.kindBytes) {
		return 0
	}
	return n.kindBytes[k]
}

// TotalBytes returns the bytes sent since the last reset.
func (n *Network) TotalBytes() int64 { return n.totalB }

// TotalMessages returns the number of messages sent since the last reset.
func (n *Network) TotalMessages() int64 { return n.total }

// Dropped returns the number of messages lost to the loss model since the
// last reset.
func (n *Network) Dropped() int64 { return n.dropped }

// Delivered returns the number of messages sent and handled within the
// current counter window.
func (n *Network) Delivered() int64 { return n.delivered }

// ResetCounters zeroes message counters (not time or queues); experiments
// call it between warm-up and measurement phases. Messages still in flight
// from before the reset are delivered to their handlers but excluded from the
// new window's delivered count, so delivered + dropped == total holds within
// every window once its sends drain.
func (n *Network) ResetCounters() {
	for i := range n.kindCounts {
		n.kindCounts[i] = 0
	}
	for i := range n.kindBytes {
		n.kindBytes[i] = 0
	}
	n.total = 0
	n.totalB = 0
	n.delivered = 0
	n.dropped = 0
	n.inFlight = 0
	n.epoch++
}

// SetTracer installs a delivery tracer (nil disables tracing).
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// SetObserver installs a performance-telemetry observer (nil disables).
func (n *Network) SetObserver(o Observer) { n.observer = o }

// RNGFor derives a deterministic per-node RNG from the network seed; protocol
// implementations use it so node behaviour is stable across runs.
func (n *Network) RNGFor(label string, node topology.NodeID) *xrand.RNG {
	return xrand.New(n.cfg.Seed).Split(label).SplitN("node", int(node))
}
