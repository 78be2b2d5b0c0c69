package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
	"hirep/internal/resilience"
	"hirep/internal/wire"
)

// This file implements the batched, acknowledged report-ingest pipeline
// (DESIGN.md §11). A TReportBatch packs many signed transaction reports into
// one sealed exchange (exchange.go); the agent verifies them through a worker
// pool with pkc.VerifyBatch, appends the survivors to its store, and replies
// with one status per report. The ack is what structurally fixes the
// silent-drop bug of the fire-and-forget TReport path: a rejected report
// comes back named, counted by reason on both sides, and retried or surfaced
// instead of vanishing. deliver is the loop every acknowledged report of
// the node goes through.

// MaxBatchReports bounds the reports carried by one TReportBatch. At ~105
// wire bytes per signed report the cap keeps a full batch, sealed and
// wrapped in its onion envelope, comfortably under wire.MaxFrame.
const MaxBatchReports = 2048

const (
	defaultReportBatchSize = 256 // reports per batch the sender packs
	defaultVerifyQueue     = 128 // decoded batches awaiting verification (Options.VerifyQueue)
)

// ErrBatchTooLarge reports a ReportBatch call exceeding MaxBatchReports.
var ErrBatchTooLarge = fmt.Errorf("node: report batch exceeds %d reports", MaxBatchReports)

// ReportStatus is the per-report outcome carried in a batch ack.
type ReportStatus uint8

// Per-report ack statuses. Protocol rejects (replay, bad key, malformed) are
// final — retrying the identical report cannot succeed — while StatusSaturated
// and StatusStoreFailed are transient agent-side conditions the sender's
// outbox machinery retries, exactly as it retries a failed send.
const (
	StatusStored      ReportStatus = iota // verified and durably appended
	StatusReplay                          // nonce already observed
	StatusBadKey                          // unknown reporter or failed signature
	StatusMalformed                       // report wire undecodable
	StatusStoreFailed                     // verified, but the store append failed (retryable)
	StatusSaturated                       // shed by admission control before verification (retryable)
	StatusWrongOwner                      // subject outside this agent group's shards (retryable elsewhere)
	// StatusAdmissionRequired bounces a whole batch from an identity the
	// agent's sybil-admission gate (DESIGN.md §13) has not admitted: the
	// batch must carry a proof-of-work solution bound to the reporter's
	// nodeID. Not Retryable() — a blind resend cannot succeed — but not
	// final either: ReportBatch mints a solution and retries, and the ack
	// carries the demanded difficulty.
	StatusAdmissionRequired
)

// Retryable reports whether the status names a condition worth re-sending
// the identical report for. StatusWrongOwner is retryable in a specific
// sense: not at this agent — the overlay map says another group owns the
// subject — but through the outbox, whose flusher re-routes each deferred
// report by the then-current placement map.
func (s ReportStatus) Retryable() bool {
	return s == StatusStoreFailed || s == StatusSaturated || s == StatusWrongOwner
}

func (s ReportStatus) String() string {
	switch s {
	case StatusStored:
		return "stored"
	case StatusReplay:
		return "replay"
	case StatusBadKey:
		return "bad-key"
	case StatusMalformed:
		return "malformed"
	case StatusStoreFailed:
		return "store-failed"
	case StatusSaturated:
		return "saturated"
	case StatusWrongOwner:
		return "wrong-owner"
	case StatusAdmissionRequired:
		return "admission-required"
	default:
		return fmt.Sprintf("ReportStatus(%d)", uint8(s))
	}
}

// BatchReport is one report in a sender-side batch.
type BatchReport struct {
	Subject  pkc.NodeID
	Positive bool
}

// encodeBatchBody writes a TReportBatch request body: the signed report wires
// (agentdir.SignReport), then the sender's admission proof-of-work solution
// (DESIGN.md §13) — empty until an agent has demanded one.
func encodeBatchBody(e *wire.Encoder, reports [][]byte, sol []byte) {
	e.U64(uint64(len(reports)))
	for _, r := range reports {
		e.Bytes(r)
	}
	e.Bytes(sol)
}

// decodeBatchBody parses a body written by encodeBatchBody, rejecting empty
// and oversized counts before allocating.
func decodeBatchBody(d *wire.Decoder) (reports [][]byte, sol []byte, err error) {
	count := d.U64()
	if d.Err() != nil || count == 0 || count > MaxBatchReports {
		return nil, nil, ErrBadMessage
	}
	reports = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		reports = append(reports, d.Bytes())
	}
	sol = d.Bytes()
	if d.Finish() != nil || (len(sol) != 0 && len(sol) != pkc.AdmissionSolutionSize) {
		return nil, nil, ErrBadMessage
	}
	return reports, sol, nil
}

// batchAck is one settled ack: the per-report statuses plus the admission
// difficulty demanded by the agent (0 unless the batch was bounced). The
// difficulty rides inside the signed reply body, so a relay cannot inflate
// the work it asks of a reporter.
type batchAck struct {
	statuses []ReportStatus
	bits     int
}

// encodeBatchAck writes an ack reply body: one status byte per report, then
// the demanded difficulty.
func encodeBatchAck(e *wire.Encoder, statuses []ReportStatus, bits int) {
	raw := make([]byte, len(statuses))
	for i, s := range statuses {
		raw[i] = byte(s)
	}
	e.Bytes(raw).U64(uint64(bits))
}

// decodeBatchAck parses an ack reply body, which must carry exactly count
// statuses.
func decodeBatchAck(r *wire.Decoder, count int) (batchAck, error) {
	raw := r.Bytes()
	bits := r.U64()
	if r.Finish() != nil || len(raw) != count || bits > 256 {
		return batchAck{}, ErrBadAgent
	}
	statuses := make([]ReportStatus, len(raw))
	for i, v := range raw {
		statuses[i] = ReportStatus(v)
	}
	return batchAck{statuses: statuses, bits: int(bits)}, nil
}

// ReportBatch sends a batch of signed transaction reports to agent through
// its onion as one TReportBatch frame and waits for the per-report ack
// returned through replyOnion (DESIGN.md §11). The returned statuses are
// index-aligned with reports. Transient failures (a dead entry relay, a shed
// or lost frame, an ack timeout) are retried under the node's retry policy;
// every attempt re-signs each report with a fresh nonce, so a retry is never
// misread as a replay. Protocol-level rejections are permanent.
//
// A nil error means the agent acknowledged the batch — each report's fate
// is in its status, not assumed.
func (n *Node) ReportBatch(agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion) ([]ReportStatus, error) {
	if len(reports) == 0 {
		return nil, nil
	}
	if len(reports) > MaxBatchReports {
		return nil, ErrBatchTooLarge
	}
	var ack batchAck
	send := func(sol []byte) error {
		return n.retry(0, func(wait time.Duration) error {
			var aerr error
			ack, aerr = n.reportBatchOnce(agent, reports, replyOnion, sol, wait)
			return aerr
		})
	}
	err := send(nil)
	if err == nil && ack.bits > 0 && allAdmissionRequired(ack.statuses) {
		// The agent's sybil-admission gate bounced us (§13): mint a solution
		// bound to our nodeID at the demanded difficulty and retry once with
		// it attached. A nil solution (difficulty beyond the solve limit)
		// leaves the admission-required statuses for the caller to defer.
		if sol := n.mintAdmission(ack.bits); sol != nil {
			err = send(sol)
		}
	}
	return ack.statuses, err
}

// reportBatchOnce runs one complete batch/ack exchange under wait, signing
// every report under a fresh nonce.
func (n *Node) reportBatchOnce(agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion, sol []byte, wait time.Duration) (batchAck, error) {
	q, err := n.newRequest(replyOnion)
	if err != nil {
		return batchAck{}, err
	}
	wires := make([][]byte, len(reports))
	for i, rep := range reports {
		rn, err := pkc.NewNonce(nil)
		if err != nil {
			return batchAck{}, err
		}
		wires[i] = agentdir.SignReport(q.self, rep.Subject, rep.Positive, rn)
	}
	encodeBatchBody(&q.body, wires, sol)
	r, err := n.exchange(agent, wire.TReportBatch, &q, wait)
	if err != nil {
		return batchAck{}, err
	}
	return decodeBatchAck(&r, len(reports))
}

// ReportBatchOrDefer is the resilient form of ReportBatch: it sends reports
// through the node's delivery loop and routes every report without a final
// ack (an unreachable or saturated agent, a store failure, a lost ack) into
// the durable outbox, where the flusher re-sends it once the agent recovers.
// Nothing is silently dropped: acked + rejected + deferred always adds up to
// len(reports).
func (n *Node) ReportBatchOrDefer(book *AgentBook, agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion) error {
	return n.deliver(book, agent, reports, replyOnion, func(i int, st ReportStatus, err error) {
		if err != nil || !st.final() {
			n.deferReport(agent, reports[i].Subject, reports[i].Positive)
		}
	})
}

// errNotSent settles a report the delivery loop kept off the wire: its
// agent's breaker is not closed, or an earlier chunk's ack showed that every
// further chunk would bounce.
var errNotSent = errors.New("node: report not sent")

// deliver is the node's one acknowledged delivery loop (DESIGN.md §11), under
// both ReportBatchOrDefer and the outbox flusher. It chunks reports to the
// node's batch size, skips the agent while its breaker is not closed, sends
// each chunk with ReportBatch, counts the acks, and hands each report's
// status — or the error that left it without one — to settle by index. An
// all-saturated or all-admission-required ack stops the loop: every further
// chunk would bounce the same way. A stored ack opens the one-way fast path
// to the agent (reportOrDefer); an admission bounce closes it. It returns the
// first send error.
func (n *Node) deliver(book *AgentBook, agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion, settle func(i int, st ReportStatus, err error)) error {
	id, size := agent.ID(), defaultReportBatchSize
	self := n.identity() // the identity a stored ack is credited to
	unsent := func(lo, hi int, err error) {
		for i := lo; i < hi; i++ {
			settle(i, 0, err)
		}
	}
	var firstErr error
	for lo := 0; lo < len(reports); lo += size {
		hi := min(lo+size, len(reports))
		if book != nil && book.BreakerState(id) != resilience.BreakerClosed {
			unsent(lo, hi, errNotSent)
			continue
		}
		statuses, err := n.ReportBatch(agent, reports[lo:hi], replyOnion)
		if err != nil {
			n.noteFailure(book, id)
			unsent(lo, hi, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n.noteSuccess(book, id)
		for i, st := range statuses {
			switch {
			case st == StatusStored:
				n.cnt.reportsAcked.Inc()
				n.setOneWay(id, self)
			case st == StatusAdmissionRequired:
				n.setOneWay(id, nil)
			case st == StatusWrongOwner:
				// The agent routes by a newer placement epoch than ours: the
				// flusher refreshes the map before re-routing the report.
				n.markPlacementStale()
			case st.final():
				n.cnt.reportsRejected.Inc()
			}
			settle(lo+i, st, nil)
		}
		if allAdmissionRequired(statuses) || allSaturated(statuses) {
			// Unadmitted and unable to solve the demanded difficulty, or shed
			// whole by a full verification queue: firing the remaining chunks
			// would only bounce each of them and spin against the agent.
			unsent(hi, len(reports), errNotSent)
			break
		}
	}
	return firstErr
}

// final reports whether a status settles its report for good: stored, or a
// protocol reject no resend can change. Retryable statuses and an admission
// bounce (ReportBatch already tried to solve; the difficulty exceeds our
// limit) leave the report to be sent again later.
func (s ReportStatus) final() bool {
	return !s.Retryable() && s != StatusAdmissionRequired
}

// allSaturated reports whether an ack shed its entire (non-empty) batch at
// admission.
func allSaturated(statuses []ReportStatus) bool {
	for _, st := range statuses {
		if st != StatusSaturated {
			return false
		}
	}
	return len(statuses) > 0
}

// --- agent side ----------------------------------------------------------

// ingestJob is one vetted batch awaiting verification.
type ingestJob struct {
	req     request
	reports [][]byte
}

// ingestPool is the agent's verification worker pool with a bounded
// admission queue in front: handlers enqueue decoded batches without
// blocking, workers batch-verify and commit them, and a full queue sheds
// with an all-saturated ack — typed backpressure the sender's retrier and
// outbox understand, instead of unbounded queueing or a silent drop.
type ingestPool struct {
	jobs chan ingestJob
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func (n *Node) startIngestPool(workers, queue int) {
	p := &ingestPool{
		jobs: make(chan ingestJob, queue),
		quit: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case <-p.quit:
					return
				case job := <-p.jobs:
					n.processReportBatch(job)
				}
			}
		}()
	}
	n.ingest = p
}

// stop halts the workers; queued jobs are abandoned (their senders see an
// ack timeout and defer, exactly as for a crash at that instant). Idempotent
// so tests stopping the pool to force saturation don't trip Close.
func (p *ingestPool) stop() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// handleReportBatch admits one TReportBatch arriving through this agent's
// onion: vet the request, pass the sybil-admission gate, register the
// self-certifying reporter key (§3.5.2, as for trust requests), then hand the
// batch to the verification pool — or shed with an all-saturated ack when the
// pool's admission queue is full.
func (n *Node) handleReportBatch(sealed []byte) {
	if n.agent == nil || n.ingest == nil {
		return
	}
	req, err := n.openRequest(sealed)
	var reports [][]byte
	var sol []byte
	if err == nil {
		reports, sol, err = decodeBatchBody(&req.body)
	}
	if err != nil {
		// A batch that opens but does not decode — including the empty
		// batch, rejected at the codec so it never occupies a
		// verification-pool slot — is counted as malformed rather than
		// silently vanishing.
		if errors.Is(err, ErrBadMessage) {
			n.countIngest(StatusMalformed)
		}
		return
	}
	job := ingestJob{req: req, reports: reports}
	// Sybil-admission gate (§13), deliberately BEFORE RegisterKey — an
	// unadmitted identity must not even occupy a key-table slot — and before
	// the verification pool, so a bounced batch costs this agent one SHA-256
	// over the claimed solution instead of N Ed25519 verifies. The whole
	// batch bounces with StatusAdmissionRequired plus the demanded
	// difficulty; the sender solves and retries.
	if g := n.admission; g != nil {
		verdict := g.check(req.id, sol, len(reports))
		if !verdict.passed() {
			switch verdict {
			case admissionReplay:
				n.cnt.admissionReplayed.Inc()
			case admissionThrottled:
				n.cnt.admissionThrottled.Inc()
			}
			n.cnt.admissionRequired.Add(int64(len(reports)))
			n.sendBatchAck(job, uniformStatuses(len(reports), StatusAdmissionRequired), g.bits)
			return
		}
		if verdict == admissionNewlyOK {
			n.cnt.admissionAdmitted.Inc()
		}
	}
	if err := n.agent.RegisterKey(req.id, req.sp); err != nil {
		return
	}
	select {
	case n.ingest.jobs <- job:
	default:
		// Admission control: the verification backlog is full. Shed the whole
		// batch before spending any signature check on it, and say so — the
		// sender re-queues saturated reports through its outbox.
		n.cnt.ingest[StatusSaturated].Add(int64(len(reports)))
		n.sendBatchAck(job, uniformStatuses(len(reports), StatusSaturated), 0)
	}
}

// uniformStatuses returns n copies of st: the ack of a batch judged whole.
func uniformStatuses(n int, st ReportStatus) []ReportStatus {
	statuses := make([]ReportStatus, n)
	for i := range statuses {
		statuses[i] = st
	}
	return statuses
}

// processReportBatch is the worker body: filter out reports this group does
// not own (cheap subject peek, before any signature work), batch-verify and
// commit the rest, count every outcome by reason, and return the ack.
func (n *Node) processReportBatch(job ingestJob) {
	statuses := make([]ReportStatus, len(job.reports))
	owned := make([][]byte, 0, len(job.reports))
	idx := make([]int, 0, len(job.reports))
	for i, rw := range job.reports {
		subject, err := agentdir.DecodeSubjectHint(rw)
		if err != nil {
			statuses[i] = StatusMalformed
			n.countIngest(statuses[i])
			continue
		}
		if write, _ := n.subjectOwnership(subject); !write {
			statuses[i] = StatusWrongOwner
			n.countIngest(statuses[i])
			continue
		}
		owned = append(owned, rw)
		idx = append(idx, i)
	}
	if len(owned) > 0 {
		_, errs := n.agent.SubmitReportBatch(job.req.id, owned)
		for j, err := range errs {
			statuses[idx[j]] = statusFromSubmitError(err)
			n.countIngest(statuses[idx[j]])
		}
	}
	n.cnt.reportBatches.Inc()
	n.sendBatchAck(job, statuses, 0)
}

// sendBatchAck answers one batch with its per-report statuses. bits, when
// positive, is the admission difficulty demanded of a bounced batch.
func (n *Node) sendBatchAck(job ingestJob, statuses []ReportStatus, bits int) {
	e := job.req.replyBody()
	encodeBatchAck(&e, statuses, bits)
	n.reply(&job.req, &e)
}

// statusFromSubmitError maps an agentdir.SubmitReport(Batch) outcome to its
// ack status. Anything that is not a recognized protocol reject is a store
// failure: real storage trouble must surface as retryable, never be
// conflated with a reject.
func statusFromSubmitError(err error) ReportStatus {
	switch {
	case err == nil:
		return StatusStored
	case errors.Is(err, repstore.ErrShardSealed):
		// The shard was sealed for handoff after this batch passed the
		// admission-time ownership check: the report is NOT in the sealed
		// export, so it must not ack stored. Wrong-owner sends it through the
		// outbox, which re-routes it to the new owner by the refreshed map.
		return StatusWrongOwner
	case errors.Is(err, agentdir.ErrReplayedReport):
		return StatusReplay
	case errors.Is(err, agentdir.ErrUnknownReporter),
		errors.Is(err, agentdir.ErrBadSignature),
		errors.Is(err, agentdir.ErrBadBinding):
		return StatusBadKey
	case errors.Is(err, agentdir.ErrBadReport):
		return StatusMalformed
	default:
		return StatusStoreFailed
	}
}

// countIngest counts one report's ingest outcome by reason.
func (n *Node) countIngest(st ReportStatus) {
	if int(st) < len(n.cnt.ingest) {
		n.cnt.ingest[st].Inc()
	}
}
