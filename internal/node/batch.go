package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
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

	numStatuses = int(StatusSaturated) + 1 // one past the last defined status
)

// Retryable reports whether the status names a condition worth re-sending
// the identical report for.
func (s ReportStatus) Retryable() bool {
	return s == StatusStoreFailed || s == StatusSaturated
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
// (agentdir.SignReport).
func encodeBatchBody(e *wire.Encoder, reports [][]byte) {
	e.U64(uint64(len(reports)))
	for _, r := range reports {
		e.Bytes(r)
	}
}

// decodeBatchBody parses a body written by encodeBatchBody, rejecting empty
// and oversized counts before allocating.
func decodeBatchBody(d *wire.Decoder) ([][]byte, error) {
	count := d.U64()
	if d.Err() != nil || count == 0 || count > MaxBatchReports {
		return nil, ErrBadMessage
	}
	reports := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		reports = append(reports, d.Bytes())
	}
	if d.Finish() != nil {
		return nil, ErrBadMessage
	}
	return reports, nil
}

// encodeBatchAck writes an ack reply body: one status byte per report.
func encodeBatchAck(e *wire.Encoder, statuses []ReportStatus) {
	raw := make([]byte, len(statuses))
	for i, s := range statuses {
		raw[i] = byte(s)
	}
	e.Bytes(raw)
}

// decodeBatchAck parses an ack reply body, which must carry exactly count
// defined statuses. An undefined status byte is refused rather than read:
// it is not retryable, so it would settle as a final reject and retire its
// report from the outbox unstored.
func decodeBatchAck(r *wire.Decoder, count int) ([]ReportStatus, error) {
	raw := r.Bytes()
	if r.Finish() != nil || len(raw) != count {
		return nil, ErrBadAgent
	}
	statuses := make([]ReportStatus, len(raw))
	for i, v := range raw {
		if int(v) >= numStatuses {
			return nil, ErrBadAgent
		}
		statuses[i] = ReportStatus(v)
	}
	return statuses, nil
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
	var statuses []ReportStatus
	err := n.retry(0, func(wait time.Duration) error {
		var aerr error
		statuses, aerr = n.reportBatchOnce(agent, reports, replyOnion, wait)
		return aerr
	})
	return statuses, err
}

// reportBatchOnce runs one complete batch/ack exchange under wait, signing
// every report under a fresh nonce.
func (n *Node) reportBatchOnce(agent AgentInfo, reports []BatchReport, replyOnion *onion.Onion, wait time.Duration) ([]ReportStatus, error) {
	q, err := n.newRequest(replyOnion)
	if err != nil {
		return nil, err
	}
	wires := make([][]byte, len(reports))
	for i, rep := range reports {
		rn, err := pkc.NewNonce(nil)
		if err != nil {
			return nil, err
		}
		wires[i] = agentdir.SignReport(q.self, rep.Subject, rep.Positive, rn)
	}
	encodeBatchBody(&q.body, wires)
	r, err := n.exchange(agent, wire.TReportBatch, &q, wait)
	if err != nil {
		return nil, err
	}
	return decodeBatchAck(&r, len(reports))
}

// errNotSent settles a report the delivery loop kept off the wire: its
// agent's breaker is not closed, or an earlier chunk's ack showed that every
// further chunk would bounce.
var errNotSent = errors.New("node: report not sent")

// deliver is the node's one acknowledged delivery loop (DESIGN.md §11),
// under the outbox flusher. It chunks reports to the node's batch size,
// skips the agent while its breaker is not closed, sends each chunk with
// ReportBatch, counts the acks, and hands each report's status — or the
// error that left it without one — to settle by index. An all-saturated ack
// stops the loop: every further chunk would be shed the same way. A stored
// ack opens the one-way fast path to the agent (reportOrDefer). It returns
// the first send error.
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
			case !st.Retryable():
				n.cnt.reportsRejected.Inc()
			}
			settle(lo+i, st, nil)
		}
		if allSaturated(statuses) {
			// Shed whole by a full verification queue: firing the remaining
			// chunks would only bounce each of them and spin against the
			// agent.
			unsent(hi, len(reports), errNotSent)
			break
		}
	}
	return firstErr
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
// onion: vet the request, register the self-certifying reporter key (§3.5.2, as for trust requests), then hand the
// batch to the verification pool — or shed with an all-saturated ack when the
// pool's admission queue is full.
func (n *Node) handleReportBatch(sealed []byte) {
	if n.agent == nil || n.ingest == nil {
		return
	}
	req, err := n.openRequest(sealed)
	var reports [][]byte
	if err == nil {
		reports, err = decodeBatchBody(&req.body)
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
		statuses := make([]ReportStatus, len(reports))
		for i := range statuses {
			statuses[i] = StatusSaturated
		}
		n.sendBatchAck(job, statuses)
	}
}

// processReportBatch is the worker body: batch-verify and commit the
// reports, count every outcome by reason, and return the ack.
func (n *Node) processReportBatch(job ingestJob) {
	statuses := make([]ReportStatus, len(job.reports))
	_, errs := n.agent.SubmitReportBatch(job.req.id, job.reports)
	for i, err := range errs {
		statuses[i] = statusFromSubmitError(err)
		n.countIngest(statuses[i])
	}
	n.cnt.reportBatches.Inc()
	n.sendBatchAck(job, statuses)
}

// sendBatchAck answers one batch with its per-report statuses.
func (n *Node) sendBatchAck(job ingestJob, statuses []ReportStatus) {
	e := job.req.replyBody()
	encodeBatchAck(&e, statuses)
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
