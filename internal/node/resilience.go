package node

import (
	"time"

	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// This file wires the node onto internal/resilience: deferral of
// undeliverable transaction reports into the durable outbox, the background
// flusher that drains it through the acknowledged delivery loop once the
// target agent's circuit breaker closes again, and backup-agent failover plus
// probing (§3.4.3, §3.6).

// Probe and flush defaults. Probes must be much cheaper than requests —
// checking a dead peer is the common case for them — and the flusher's base
// cadence is fast so a recovered agent drains quickly, with backoff keeping
// a still-dead one cheap.
const (
	defaultProbeTimeout  = 750 * time.Millisecond
	defaultFlushInterval = 250 * time.Millisecond
	maxFlushInterval     = 5 * time.Second
)

// AttachBook binds book to the node's resilience machinery: the node's
// breaker config is applied to the book's per-agent breakers, and the outbox
// flusher consults those breakers so deferred reports are only re-attempted
// against agents currently believed healthy.
func (n *Node) AttachBook(book *AgentBook) {
	book.SetBreakerConfig(n.opts.Breaker)
	n.bookMu.Lock()
	n.book = book
	n.bookMu.Unlock()
	n.kickFlush()
}

func (n *Node) attachedBook() *AgentBook {
	n.bookMu.Lock()
	defer n.bookMu.Unlock()
	return n.book
}

// noteSuccess feeds one successful end-to-end exchange with an agent into its
// breaker. A breaker closing again is a recovery: the flusher is kicked so
// deferred reports for that agent drain immediately.
func (n *Node) noteSuccess(book *AgentBook, id pkc.NodeID) {
	if book == nil {
		return
	}
	if book.RecordSuccess(id) {
		n.cnt.breakerClose.Inc()
		n.kickFlush()
	}
}

// noteFailure feeds one failed exchange into the agent's breaker. When this
// failure trips the breaker open the agent is demoted (§3.4.3 offline
// handling) and the first healthy backup is promoted in its place, keeping
// the book at strength (§3.6's replacement liveness argument).
func (n *Node) noteFailure(book *AgentBook, id pkc.NodeID) {
	if book == nil {
		return
	}
	if !book.RecordFailure(id) {
		return
	}
	n.cnt.breakerOpen.Inc()
	if !book.Demote(id) {
		return // already out of the active book (e.g. a failed backup probe)
	}
	n.promoteBackup(book)
}

// promoteBackup fills a vacated active slot from the backup cache and counts
// the failover: the most recently demoted backup whose breaker is closed
// wins. Candidates are tried in that order until one restores — a single
// candidate lost to a concurrent probe must not abandon the failover.
func (n *Node) promoteBackup(book *AgentBook) (pkc.NodeID, bool) {
	var cands []pkc.NodeID
	for _, id := range book.Backups() {
		if book.BreakerState(id) == resilience.BreakerClosed {
			cands = append(cands, id)
		}
	}
	id, ok := restoreFirst(book, cands)
	if ok {
		n.cnt.failovers.Inc()
	}
	return id, ok
}

// restoreFirst promotes the first candidate the book still holds as a
// backup. Restore can fail per-candidate (a concurrent prober already
// restored it, or it was dropped from the cache); later candidates still
// get their chance.
func restoreFirst(book *AgentBook, cands []pkc.NodeID) (pkc.NodeID, bool) {
	for _, id := range cands {
		if book.Restore(id) {
			return id, true
		}
	}
	return pkc.NodeID{}, false
}

// probeBackups probes every backup agent with one short trust request (§3.4.3:
// "the peer first probes all back up agents") and restores responsive ones to
// the book. Each probe respects the backup's breaker — an open breaker inside
// its cooldown is skipped; one past cooldown gets the half-open slot. The
// restored agents' IDs are returned.
func (n *Node) probeBackups(book *AgentBook, replyOnion *onion.Onion) []pkc.NodeID {
	var restored []pkc.NodeID
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
		// The subject is immaterial — the round trip itself is the probe.
		if _, _, err := n.requestTrust(info, id, replyOnion, 1, n.opts.ProbeTimeout); err != nil {
			n.noteFailure(book, id)
			continue
		}
		n.noteSuccess(book, id)
		if book.Restore(id) {
			restored = append(restored, id)
		}
	}
	return restored
}

// reportOrDefer delivers one transaction report, or queues it in the outbox.
// The unacknowledged TReport is a fast path, taken only to an agent that has
// acked a stored batch from this identity (setOneWay), so the agent is known
// to hold the identity's key: first contact goes through the flusher's acked
// loop, whose batch registers the key (§3.5.2) and whose ack names each
// report's fate. The report is also queued when the agent's breaker is not
// closed (sending through an onion cannot observe a dead terminal agent, so
// breaker state is the only trustworthy health signal), and after a real
// first-hop send failure.
func (n *Node) reportOrDefer(book *AgentBook, a AgentInfo, subject pkc.NodeID, positive bool) error {
	id := a.ID()
	if book != nil && book.BreakerState(id) != resilience.BreakerClosed {
		n.deferReport(a, subject, positive)
		return nil
	}
	if !n.oneWayTo(id) {
		n.deferReport(a, subject, positive)
		n.kickFlush()
		return nil
	}
	if err := n.reportTransaction(a, subject, positive); err != nil {
		n.noteFailure(book, id)
		n.deferReport(a, subject, positive)
		return err
	}
	return nil
}

// setOneWay records that agent id acked a stored batch signed by self.
func (n *Node) setOneWay(id pkc.NodeID, self *pkc.Identity) {
	n.oneWayMu.Lock()
	defer n.oneWayMu.Unlock()
	if n.oneWay == nil {
		n.oneWay = make(map[pkc.NodeID]*pkc.Identity)
	}
	n.oneWay[id] = self
}

// oneWayTo reports whether agent id has acked a stored batch from the node's
// current identity. Keying the set by identity keeps an ack that raced a
// rotation from opening the fast path for the successor.
func (n *Node) oneWayTo(id pkc.NodeID) bool {
	n.oneWayMu.Lock()
	defer n.oneWayMu.Unlock()
	return n.oneWay[id] == n.identity()
}

// deferReport queues a report for the outbox flusher. The payload is the
// agent's full descriptor plus the report parameters; the report itself is
// re-signed with a fresh nonce at delivery time, so nothing stale is replayed.
func (n *Node) deferReport(a AgentInfo, subject pkc.NodeID, positive bool) {
	var e wire.Encoder
	e.String(EncodeInfo(a)).Bytes(subject[:]).Bool(positive)
	evicted, err := n.outbox.Enqueue(a.ID().String(), e.Encode())
	n.cnt.reportsLost.Add(int64(evicted))
	if err != nil {
		n.cnt.reportsLost.Inc()
		return
	}
	n.cnt.reportsDeferred.Inc()
	n.cnt.outboxDepth.Set(int64(n.outbox.Depth()))
}

// decodeDeferredReport parses an outbox payload written by deferReport.
func decodeDeferredReport(payload []byte) (AgentInfo, pkc.NodeID, bool, error) {
	d := wire.NewDecoder(payload)
	desc := d.String()
	subjRaw := d.Bytes()
	positive := d.Bool()
	if err := d.Finish(); err != nil {
		return AgentInfo{}, pkc.NodeID{}, false, err
	}
	if len(subjRaw) != pkc.NodeIDSize {
		return AgentInfo{}, pkc.NodeID{}, false, ErrBadMessage
	}
	info, err := DecodeInfo(desc)
	if err != nil {
		return AgentInfo{}, pkc.NodeID{}, false, err
	}
	var subject pkc.NodeID
	copy(subject[:], subjRaw)
	return info, subject, positive, nil
}

// kickFlush nudges the flusher without blocking (it coalesces).
func (n *Node) kickFlush() {
	select {
	case n.flushCh <- struct{}{}:
	default:
	}
}

// flushLoop drains the outbox in the background: on a base cadence, on
// kicks (a breaker closing, a fresh deferral), with exponential backoff while
// deliveries keep failing so a dead agent stays cheap.
func (n *Node) flushLoop() {
	defer n.outboxWG.Done()
	base := n.opts.OutboxFlushInterval
	backoff := base
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for {
		select {
		case <-n.closeCh:
			return
		case <-n.flushCh:
		case <-timer.C:
		}
		failed := n.flushOutbox()
		n.updateStoreHealth()
		if failed > 0 {
			backoff *= 2
			if backoff > maxFlushInterval {
				backoff = maxFlushInterval
			}
		} else {
			backoff = base
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(backoff)
	}
}

// flushOutbox drains one pass of the outbox through the acknowledged
// delivery loop. It groups the entries per agent in queue order and retires
// each on its own acked status: stored as sent, a protocol reject as
// rejected. Anything else (saturated agent, store failure, lost ack, open
// breaker) stays queued and counts as blocked, so the loop backs off;
// undecodable entries are dropped as lost. The acks come back through the node's reply route;
// until the node has one, the outbox waits.
func (n *Node) flushOutbox() (blocked int) {
	ro := n.replyRoute.Load()
	if ro == nil {
		return 0
	}
	type group struct {
		info    AgentInfo
		seqs    []uint64
		reports []BatchReport
	}
	groups := make(map[pkc.NodeID]*group)
	var order []pkc.NodeID
	for _, e := range n.outbox.Pending() {
		info, subject, positive, err := decodeDeferredReport(e.Payload)
		if err != nil {
			_ = n.outbox.Ack(e.Seq)
			n.cnt.reportsLost.Inc()
			continue
		}
		id := info.ID()
		g := groups[id]
		if g == nil {
			g = &group{info: info}
			groups[id] = g
			order = append(order, id)
		}
		g.seqs = append(g.seqs, e.Seq)
		g.reports = append(g.reports, BatchReport{Subject: subject, Positive: positive})
	}
	book := n.attachedBook()
	for _, id := range order {
		g := groups[id]
		if n.isClosed() {
			blocked += len(g.reports)
			continue
		}
		// A send error reaches settle too, as each report's blocked count.
		_ = n.deliver(book, g.info, g.reports, ro, func(i int, st ReportStatus, err error) {
			if err != nil || st.Retryable() {
				blocked++
				return
			}
			_ = n.outbox.Ack(g.seqs[i])
			if st == StatusStored {
				n.cnt.outboxSent.Inc()
			}
		})
	}
	n.cnt.outboxDepth.Set(int64(n.outbox.Depth()))
	return blocked
}

// OutboxDepth returns the number of reports currently queued for redelivery.
func (n *Node) OutboxDepth() int { return n.outbox.Depth() }
