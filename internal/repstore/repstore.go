// Package repstore is the reputation-agent storage engine: the state a
// hiREP agent accumulates from signed transaction reports (§3.5.3), built to
// sustain the paper's premise that agents absorb the report/query load of
// the whole network.
//
// Layout:
//
//   - Subject state lives in power-of-two in-memory shards keyed by subject
//     pkc.NodeID, each under its own RWMutex, so concurrent ingest and query
//     spread across locks instead of serializing on one agent mutex.
//   - Each subject keeps a rolling positive/negative tally plus a
//     per-reporter breakdown, so ballot-stuffing analysis (how many distinct
//     reporters back an opinion) never needs a log scan.
//   - Durability (optional — Open with a directory) is an append-only WAL of
//     CRC32C-framed records with group commit: every record of one Append
//     call, and of every Append running beside it, rides one write+fsync. A
//     record is applied to the shards only after its batch is durable, so
//     observed state never runs ahead of the log.
//   - The WAL lives in epoch-named files (wal.<epoch>.log). Compaction
//     rotates to a fresh epoch, then writes an atomic snapshot (write tmp,
//     fsync, rename) naming that epoch as its replay floor; recovery = load
//     snapshot + replay only epochs at or above the floor, truncating the
//     active file at the first torn or corrupt frame. A crash anywhere in
//     the compaction sequence therefore never double-applies a record.
//
// Open with dir == "" for the pure in-memory backend (the simulator and
// default live node); give a directory for the durable agent store.
package repstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"hirep/internal/pkc"
	"hirep/internal/trust"
)

// Errors returned by the store.
var (
	ErrClosed            = errors.New("repstore: closed")
	ErrCorruptRecord     = errors.New("repstore: corrupt record")
	ErrCorruptSnapshot   = errors.New("repstore: corrupt snapshot")
	ErrRecordTooLarge    = errors.New("repstore: record exceeds frame limit")
	ErrShortFrame        = errors.New("repstore: truncated frame")
	errUnknownRecordKind = errors.New("repstore: unknown record kind")
)

// Options tunes a store.
type Options struct {
	// Shards is the shard count, rounded up to a power of two (default 16).
	Shards int
	// NoSync skips the fsync in group commit. Appends are still written to
	// the OS immediately; a machine crash (not just a process crash) can
	// lose the tail. Meant for tests and benchmarks.
	NoSync bool
	// CompactAfter triggers an automatic snapshot + WAL rotation once the
	// active log file exceeds this many bytes. 0 picks the default (4 MiB);
	// negative disables auto-compaction.
	CompactAfter int64
	// EvidenceCap, when positive, arms the evidence log (DESIGN.md §14): each
	// accepted report's signed wire bytes and reporter key are retained
	// alongside the tally, up to this many records per subject (the key once
	// per store, the wire once per record). Overflow
	// drops the oldest evidence and marks the subject's evidence truncated,
	// so a proof bundle built from it is honestly labeled partial. 0 (the
	// default) retains nothing — tallies only, the pre-§14 behavior.
	EvidenceCap int
}

const defaultCompactAfter = 4 << 20

// Record is one accepted transaction report, the unit of ingest.
type Record struct {
	Reporter pkc.NodeID
	Subject  pkc.NodeID
	Positive bool
	// Nonce is the report's replay nonce. The store persists it so an agent
	// reopening the WAL can re-seed its replay cache with the tail's nonces.
	Nonce pkc.Nonce
	// SP and Wire, when both non-empty on a store opened with EvidenceCap >
	// 0, are retained as the report's evidence: the reporter's public signing
	// key and the full signed report wire (agentdir formats — the store
	// treats both as opaque bytes). A proof assembler later re-serves them so
	// anyone can re-verify the signature and recompute the tally. Ignored
	// when the evidence log is off. The store copies what it keeps, so the
	// slices need only stay valid for the Append call.
	SP   []byte
	Wire []byte
}

// reporterTally is one reporter's contribution to a subject.
type reporterTally struct {
	pos, neg uint32
}

// subjectState is everything known about one subject. ev packs the evN
// retained evidence records in ingest order (oldest first), each
//
//	u32le key index | u16le wire length | wire
//
// where the key index names the reporter's (NodeID, SP) pair in the store's
// key table. evTrunc records that evidence was ever dropped — by the
// retention cap or by merging in tallies that arrived without evidence — so a
// proof built from this state must present itself as partial rather than
// claim completeness. ev is rewritten in place when the cap drops a record,
// so readers copy it (SubjectProof) rather than share it.
type subjectState struct {
	pos, neg  int
	reporters map[pkc.NodeID]reporterTally
	ev        []byte
	evN       int
	evTrunc   bool
}

// evHeader is the packed evidence record's header: u32le key index and
// u16le wire length.
const evHeader = 6

// evKey is one interned reporter key: the ID a report names and the signing
// key its wire verifies under. A peer's key is the same in every report it
// files (agentdir binds NodeID = SHA-1(SP) at registration), so the store
// keeps each pair once, not once per retained report.
type evKey struct {
	id pkc.NodeID
	sp []byte
}

// shard is one lock domain of the subject table.
type shard struct {
	mu       sync.RWMutex
	subjects map[pkc.NodeID]*subjectState
}

// Store is the reputation storage engine. Safe for concurrent use.
type Store struct {
	opts   Options
	mask   uint64
	shards []shard

	// applyMu serializes snapshots against in-flight mutations: Append and
	// Merge hold it for read across WAL commit + shard apply, Snapshot holds
	// it for write, so a snapshot always captures a state equal to a WAL
	// prefix with no pending bytes.
	applyMu sync.RWMutex

	reports    atomic.Int64
	closed     atomic.Bool
	compacting atomic.Bool

	// Auto-compaction health: failures are counted and the last error kept
	// so operators can see a store that cannot fold its log (disk full,
	// unwritable dir). compactRetryMin is the active-log size below which
	// retries are suppressed after a failure — back-off, so a persistently
	// failing snapshot does not stall every Append over the threshold.
	compactFailures atomic.Int64
	compactRetryMin atomic.Int64
	compactErrMu    sync.Mutex
	compactErr      error

	// lineage records every identity Merge the store has applied, old → new,
	// for auditors: a proof bundle spanning a §3.5 key rotation carries
	// evidence signed over the old subject ID, and the verifier needs the
	// link — with its key-update certificate, when the merge came from a
	// verified rotation — to accept it against the new ID's tally. Persisted
	// in the snapshot; WAL replay of the merge ops rebuilds the tail.
	lineMu  sync.Mutex
	lineage map[pkc.NodeID]lineageVal

	// keys is the evidence log's reporter-key table, append-only: an index
	// handed out names the same (NodeID, SP) pair for the store's lifetime.
	// keyIdx maps NodeID || SP to its index. The store still treats the key
	// bytes as opaque; two pairs are one entry only when both halves match.
	keyMu  sync.RWMutex
	keys   []evKey
	keyIdx map[string]uint32

	dir       string // "" for memory-only
	wal       *wal   // nil for memory-only
	recovered []pkc.Nonce
}

// lineageVal is the lineage table's record for one rotated-away identity:
// where its state went, plus the key-update certificate (old signing key and
// signed update wire) when the merge was certified. Empty sp/wire mark an
// uncertified link a bare Merge recorded.
type lineageVal struct {
	newID pkc.NodeID
	sp    []byte
	wire  []byte
}

// Open creates or reopens a store. dir == "" selects the pure in-memory
// backend; otherwise dir is created if needed, any snapshot is loaded, and
// the WAL epochs at or above the snapshot's replay floor are replayed in
// order (stale epochs below the floor — leftovers of a compaction that
// crashed before deleting them — are removed, never replayed).
func Open(dir string, opts Options) (*Store, error) {
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask.
	for n&(n-1) != 0 {
		n &= n - 1
		n <<= 1
	}
	s := &Store{opts: opts, mask: uint64(n - 1), shards: make([]shard, n), dir: dir,
		lineage: make(map[pkc.NodeID]lineageVal), keyIdx: make(map[string]uint32)}
	for i := range s.shards {
		s.shards[i].subjects = make(map[pkc.NodeID]*subjectState)
	}
	if opts.CompactAfter == 0 {
		s.opts.CompactAfter = defaultCompactAfter
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repstore: %w", err)
	}
	floor, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	live, err := liveWALEpochs(dir, floor)
	if err != nil {
		return nil, err
	}
	// The highest live epoch becomes the active append file; lower ones are
	// sealed by past rotations and only replayed.
	active := floor
	if n := len(live); n > 0 {
		active = live[n-1]
		live = live[:n-1]
	}
	for _, e := range live {
		ops, err := readSealedWAL(filepath.Join(dir, walFileName(e)))
		if err != nil {
			return nil, err
		}
		s.replayOps(ops)
	}
	w, ops, err := openWALFile(dir, active, opts.NoSync)
	if err != nil {
		return nil, err
	}
	s.replayOps(ops)
	w.apply = s.applyOps
	s.wal = w
	return s, nil
}

// liveWALEpochs lists the WAL epoch files in dir, removing stale ones below
// the snapshot's replay floor (their content is already in the snapshot; a
// compaction crashed before deleting them) and returning the rest ascending.
func liveWALEpochs(dir string, floor uint64) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("repstore: scan store dir: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		ep, ok := parseWALEpoch(e.Name())
		if !ok {
			continue
		}
		if ep < floor {
			// Best effort: a stale epoch that survives deletion is skipped
			// again (and re-deleted) at the next Open.
			_ = os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// replayOps applies recovered operations and collects report nonces for
// replay-cache reseeding.
func (s *Store) replayOps(ops []walOp) {
	for _, op := range ops {
		s.applyOp(op)
		if op.kind == kindReport || op.kind == kindReportEv {
			s.recovered = append(s.recovered, op.rec.Nonce)
		}
	}
}

// Memory reports whether the store is the in-memory backend (no WAL).
func (s *Store) Memory() bool { return s.wal == nil }

// Dir returns the store directory ("" for the in-memory backend).
func (s *Store) Dir() string { return s.dir }

// RecoveredNonces returns the report nonces replayed from the WAL at Open,
// in log order. An agent uses them to re-seed its replay cache so a restart
// does not reopen the replay window for recent reports.
func (s *Store) RecoveredNonces() []pkc.Nonce {
	out := make([]pkc.Nonce, len(s.recovered))
	copy(out, s.recovered)
	return out
}

// shardFor picks the shard owning a subject. NodeIDs are SHA-1 digests, so
// the leading bytes are already uniform.
func (s *Store) shardFor(subject pkc.NodeID) *shard {
	return &s.shards[binary.LittleEndian.Uint64(subject[:8])&s.mask]
}

func (s *Store) shardIndex(subject pkc.NodeID) uint64 {
	return binary.LittleEndian.Uint64(subject[:8]) & s.mask
}

// Append ingests reports, all or none. With a WAL every record of the call
// lands in one group-commit batch — one write and one fsync, shared with any
// Append running beside it — and Append returns only after that batch is
// durable and applied; the in-memory view never shows records the log does
// not hold. An error means none of recs was stored.
func (s *Store) Append(recs ...Record) error {
	var one [1]walOp // a single record needs no heap slice
	ops := one[:0]
	if len(recs) > 1 {
		ops = make([]walOp, 0, len(recs))
	}
	for _, r := range recs {
		// No copy of SP or Wire: the batch is applied before commit returns,
		// and applying interns the key and copies the wire.
		op := walOp{kind: kindReportEv, rec: r}
		if s.opts.EvidenceCap <= 0 || len(r.SP) == 0 || len(r.Wire) == 0 {
			op.kind, op.rec.SP, op.rec.Wire = kindReport, nil, nil
		} else if len(r.SP) > maxEvidenceKey || len(r.Wire) > maxEvidenceWire {
			return ErrRecordTooLarge
		}
		ops = append(ops, op)
	}
	return s.commit(ops...)
}

// Merge folds the state recorded about oldID into newID — the durable half
// of a §3.5 key rotation ("map and replace an old nodeid to a new nodeid").
// The operation is logged, so replay reproduces it in order. The recorded
// lineage link is uncertified — a proof bundle cannot ship it (see
// MergeCertified).
func (s *Store) Merge(oldID, newID pkc.NodeID) error {
	return s.commit(walOp{kind: kindMerge, oldID: oldID, newID: newID})
}

// MergeCertified is Merge carrying the §3.5 key-update certificate: the
// rotated-away identity's signing key and the signed update wire that
// authorizes the succession. The store persists both opaquely alongside the
// lineage link (WAL op, snapshot) so a proof bundle spanning
// the rotation can prove the link to a verifier — the caller (agentdir) must
// have verified the wire with pkc.VerifyKeyUpdate before merging.
func (s *Store) MergeCertified(oldID, newID pkc.NodeID, oldSP, updWire []byte) error {
	if len(oldSP) == 0 || len(updWire) == 0 {
		return s.Merge(oldID, newID)
	}
	if len(oldSP) > maxEvidenceKey || len(updWire) > maxEvidenceWire {
		return ErrRecordTooLarge
	}
	// Copy: the caller's slices may alias a network buffer it reuses, and the
	// store retains lineage indefinitely.
	op := walOp{kind: kindMergeCert, oldID: oldID, newID: newID}
	op.oldSP = append([]byte(nil), oldSP...)
	op.updWire = append([]byte(nil), updWire...)
	return s.commit(op)
}

// commit logs ops as one batch (memory stores apply them at once), then
// compacts if the log has outgrown its threshold.
func (s *Store) commit(ops ...walOp) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(ops) == 0 {
		return nil
	}
	s.applyMu.RLock()
	var err error
	if s.wal == nil {
		s.applyOps(ops)
	} else {
		err = s.wal.commit(ops...)
	}
	s.applyMu.RUnlock()
	if err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// applyOps applies a durable batch to the shards, in batch order. Called by
// the WAL group-commit leader after the batch is on disk.
func (s *Store) applyOps(ops []walOp) {
	for i := range ops {
		s.applyOp(ops[i])
	}
}

// applyOp applies one operation to the in-memory state.
func (s *Store) applyOp(op walOp) {
	switch op.kind {
	case kindReport, kindReportEv:
		r := op.rec
		// A store reopened with the evidence log off replays only the tally
		// half of an evidence op.
		keep := op.kind == kindReportEv && s.opts.EvidenceCap > 0
		var key uint32
		if keep {
			key = s.internKey(r.Reporter, r.SP)
		}
		sh := s.shardFor(r.Subject)
		sh.mu.Lock()
		st := sh.subjects[r.Subject]
		if st == nil {
			st = &subjectState{reporters: make(map[pkc.NodeID]reporterTally, 1)}
			sh.subjects[r.Subject] = st
		}
		rt := st.reporters[r.Reporter]
		if r.Positive {
			st.pos++
			rt.pos++
		} else {
			st.neg++
			rt.neg++
		}
		st.reporters[r.Reporter] = rt
		if keep {
			st.addEvidence(key, r.Wire, s.opts.EvidenceCap)
		}
		sh.mu.Unlock()
		s.reports.Add(1)
	case kindMerge, kindMergeCert:
		s.applyMerge(op)
	}
}

// applyMerge moves the old subject state into the new one, locking at most
// two shards in index order to stay deadlock-free.
func (s *Store) applyMerge(op walOp) {
	oldID, newID := op.oldID, op.newID
	if oldID == newID {
		return
	}
	// Record the lineage link even when oldID has no subject state: a rotation
	// audit needs the old→new binding regardless of whether anyone had filed
	// about the old identity yet.
	s.addLineage([]LineageLink{{Old: oldID, New: newID, OldSP: op.oldSP, Wire: op.updWire}})
	i, j := s.shardIndex(oldID), s.shardIndex(newID)
	si, sj := &s.shards[i], &s.shards[j]
	if i == j {
		si.mu.Lock()
		defer si.mu.Unlock()
	} else if i < j {
		si.mu.Lock()
		sj.mu.Lock()
		defer si.mu.Unlock()
		defer sj.mu.Unlock()
	} else {
		sj.mu.Lock()
		si.mu.Lock()
		defer sj.mu.Unlock()
		defer si.mu.Unlock()
	}
	src := si.subjects[oldID]
	if src == nil {
		return
	}
	delete(si.subjects, oldID)
	dst := sj.subjects[newID]
	if dst == nil {
		sj.subjects[newID] = src
		return
	}
	dst.pos += src.pos
	dst.neg += src.neg
	for rep, rt := range src.reporters {
		drt := dst.reporters[rep]
		drt.pos += rt.pos
		drt.neg += rt.neg
		dst.reporters[rep] = drt
	}
	// Evidence follows the tally it backs, kept as-ingested: the wires still
	// name oldID as their subject, which a verifier accepts through the
	// lineage link recorded above. Key indices are store-wide, so the packed
	// records concatenate as they are.
	if src.evN > 0 || src.evTrunc {
		dst.ev = append(dst.ev, src.ev...)
		dst.evN += src.evN
		dst.evTrunc = dst.evTrunc || src.evTrunc
		dst.trimEvidence(s.opts.EvidenceCap)
	}
}

// internKey returns the key-table index of (id, sp), adding the pair on
// first sight. sp is copied only then: the caller's bytes may alias a
// network or recovery buffer.
func (s *Store) internKey(id pkc.NodeID, sp []byte) uint32 {
	var buf [pkc.NodeIDSize + maxEvidenceKey]byte
	k := append(append(buf[:0], id[:]...), sp...)
	s.keyMu.RLock()
	i, ok := s.keyIdx[string(k)]
	s.keyMu.RUnlock()
	if ok {
		return i
	}
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	if i, ok := s.keyIdx[string(k)]; ok {
		return i
	}
	i = uint32(len(s.keys))
	s.keys = append(s.keys, evKey{id: id, sp: append([]byte(nil), sp...)})
	s.keyIdx[string(k)] = i
	return i
}

// keyTable returns the interned keys. Entries are never changed once added,
// so the caller may read the returned slice without the lock.
func (s *Store) keyTable() []evKey {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	return s.keys
}

// addEvidence packs one record onto the subject's evidence, dropping the
// oldest first when the subject already holds limit records, so the buffer
// never holds more than the cap.
func (st *subjectState) addEvidence(key uint32, wire []byte, limit int) {
	if st.evN >= limit {
		st.trimEvidence(limit - 1)
	}
	need := evHeader + len(wire)
	if n := len(st.ev); n+need > cap(st.ev) {
		// Grow by a quarter (at least one more record), not by doubling: most
		// subjects sit below the cap, and their slack is the log's overhead.
		// Never grow past limit records of the average length so far, so a
		// full subject carries no slack at all.
		size := n + need + max(n/4, need)
		if full := (n + need) / (st.evN + 1) * limit; full >= n+need && full < size {
			size = full
		}
		grown := make([]byte, n, size)
		copy(grown, st.ev)
		st.ev = grown
	}
	st.ev = binary.LittleEndian.AppendUint32(st.ev, key)
	st.ev = binary.LittleEndian.AppendUint16(st.ev, uint16(len(wire)))
	st.ev = append(st.ev, wire...)
	st.evN++
}

// trimEvidence drops the oldest evidence until at most keep records remain,
// marking the state truncated if any went.
func (st *subjectState) trimEvidence(keep int) {
	if st.evN <= keep {
		return
	}
	off := 0
	for ; st.evN > keep; st.evN-- {
		off += evHeader + int(binary.LittleEndian.Uint16(st.ev[off+4:]))
	}
	st.ev = st.ev[:copy(st.ev, st.ev[off:])]
	st.evTrunc = true
}

// eachEvidence calls fn with every packed record of ev, oldest first. wire
// aliases ev.
func eachEvidence(ev []byte, fn func(key uint32, wire []byte)) {
	for len(ev) > 0 {
		n := evHeader + int(binary.LittleEndian.Uint16(ev[4:]))
		fn(binary.LittleEndian.Uint32(ev), ev[evHeader:n:n])
		ev = ev[n:]
	}
}

// Tally returns the raw positive/negative counts for a subject. ok is false
// when the store holds no reports about it.
func (s *Store) Tally(subject pkc.NodeID) (pos, neg int, ok bool) {
	sh := s.shardFor(subject)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.subjects[subject]
	if st == nil || st.pos+st.neg == 0 {
		return 0, 0, false
	}
	return st.pos, st.neg, true
}

// TrustValue computes the Laplace-smoothed positive fraction (p+1)/(p+n+2)
// for a subject — the Beta-prior estimator the agent serves. ok is false
// when the store has no opinion.
func (s *Store) TrustValue(subject pkc.NodeID) (trust.Value, bool) {
	pos, neg, ok := s.Tally(subject)
	if !ok {
		return 0, false
	}
	return trust.Value(float64(pos+1) / float64(pos+neg+2)), true
}

// DistinctReporters returns how many different reporters have filed about a
// subject — the denominator of any ballot-stuffing check.
func (s *Store) DistinctReporters(subject pkc.NodeID) int {
	sh := s.shardFor(subject)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.subjects[subject]
	if st == nil {
		return 0
	}
	return len(st.reporters)
}

// ReportCount returns the total number of reports applied.
func (s *Store) ReportCount() int { return int(s.reports.Load()) }

// SubjectCount returns how many distinct subjects have state.
func (s *Store) SubjectCount() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.subjects)
		sh.mu.RUnlock()
	}
	return total
}

// WALSize returns the length in bytes of the active WAL epoch file (0 for
// memory-only).
func (s *Store) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.size.Load()
}

// WALEpoch returns the active WAL epoch (0 for memory-only) — a coarse,
// monotonic state-age marker. Proof bundles stamp it as their attestation
// epoch so a verifier can order two proofs from the same agent.
func (s *Store) WALEpoch() uint64 {
	if s.wal == nil {
		return 0
	}
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.epoch
}

// CompactFailures returns how many automatic compactions have failed since
// Open. A growing count with a non-nil CompactErr means the store cannot
// fold its log (e.g. disk full) and the WAL keeps growing.
func (s *Store) CompactFailures() int64 { return s.compactFailures.Load() }

// CompactErr returns the error of the most recent failed automatic
// compaction, or nil if the last attempt succeeded (or none ran).
func (s *Store) CompactErr() error {
	s.compactErrMu.Lock()
	defer s.compactErrMu.Unlock()
	return s.compactErr
}

// maybeCompact folds the WAL into a snapshot once the active epoch file
// outgrows the configured threshold. At most one compaction runs at a time;
// the unlucky appender that crosses the threshold pays for it. A failed
// compaction is counted, surfaced via CompactErr, and backed off: the next
// attempt waits until the log grows by another CompactAfter, so a
// persistently failing snapshot cannot stall every subsequent Append.
func (s *Store) maybeCompact() {
	if s.wal == nil || s.opts.CompactAfter < 0 {
		return
	}
	sz := s.wal.size.Load()
	if sz < s.opts.CompactAfter || sz < s.compactRetryMin.Load() {
		return
	}
	if s.compacting.Swap(true) {
		return
	}
	defer s.compacting.Store(false)
	if err := s.Snapshot(); err != nil {
		s.compactFailures.Add(1)
		s.compactErrMu.Lock()
		s.compactErr = err
		s.compactErrMu.Unlock()
		s.compactRetryMin.Store(s.wal.size.Load() + s.opts.CompactAfter)
		return
	}
	s.compactErrMu.Lock()
	s.compactErr = nil
	s.compactErrMu.Unlock()
	s.compactRetryMin.Store(0)
}

// Snapshot persists the full in-memory state and retires the log: the WAL
// rotates to a fresh epoch, the snapshot — naming that epoch as its replay
// floor — is atomically renamed into place, and sealed epochs below the
// floor are deleted. Recovery replays only epochs at or above the floor, so
// a crash between any two of these steps leaves either the old snapshot
// with its epochs still live, or the new snapshot with the old epochs
// stale — never a double apply. Blocks new appends for the duration;
// in-flight appends finish first, so the snapshot equals the durable log
// exactly. No-op for memory stores.
func (s *Store) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked runs the rotate → snapshot → delete sequence. Caller holds
// applyMu exclusively. If the snapshot write fails after the rotation, the
// old epoch simply stays live (still at or above the current floor) and is
// replayed alongside the new one at the next Open — correct, just not yet
// compact.
func (s *Store) compactLocked() error {
	floor := s.wal.epoch + 1
	if err := s.wal.rotate(floor); err != nil {
		return err
	}
	if err := s.writeSnapshot(floor); err != nil {
		return err
	}
	s.removeEpochsBelow(floor)
	return nil
}

// removeEpochsBelow deletes sealed WAL files the snapshot at floor has
// folded in. Best effort: survivors sit below the replay floor, so recovery
// skips (and re-deletes) them.
func (s *Store) removeEpochsBelow(floor uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if ep, ok := parseWALEpoch(e.Name()); ok && ep < floor {
			_ = os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Close snapshots (making the next Open fast) and releases the WAL. Safe to
// call more than once.
func (s *Store) Close() error {
	if s.wal == nil {
		s.closed.Store(true)
		return nil
	}
	// Exclude appends and compactions, then mark closed under the lock so no
	// snapshot can start against the closing WAL.
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	serr := s.compactLocked()
	cerr := s.wal.close()
	if serr != nil {
		return serr
	}
	return cerr
}
