package repstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hirep/internal/pkc"
)

// WAL file layout: a sequence of frames, each
//
//	u32le payload length | u32le CRC32C(payload) | payload
//
// The payload is one record (encodeOp/decodeOp). A crash can tear the last
// frame; recovery accepts the longest prefix of intact frames and truncates
// the rest. Anything after the first bad frame is unreachable by
// construction (frames are only ever appended), so truncation never drops a
// committed record.
//
// The log is split into epoch-named files, wal.<epoch>.log. Compaction
// rotates to a fresh epoch and then writes a snapshot naming that epoch as
// its replay floor, so recovery can always tell which epochs the snapshot
// already contains — a crash anywhere inside the compaction sequence never
// replays a record the snapshot has folded in (see Store.Snapshot).
const (
	walPrefix       = "wal."
	walSuffix       = ".log"
	frameHeaderSize = 8
	// maxFramePayload bounds a frame so a corrupt length field cannot force
	// a huge allocation. Records are tens of bytes; 64 KiB is generous.
	maxFramePayload = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walFileName names one epoch's log file, zero-padded so lexical and numeric
// order agree.
func walFileName(epoch uint64) string {
	return fmt.Sprintf("%s%016d%s", walPrefix, epoch, walSuffix)
}

// parseWALEpoch extracts the epoch from a WAL file name; ok is false for
// names that are not epoch logs.
func parseWALEpoch(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	mid := name[len(walPrefix) : len(name)-len(walSuffix)]
	if mid == "" {
		return 0, false
	}
	e, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// Record kinds inside WAL frames.
const (
	kindReport byte = 1
	kindMerge  byte = 2
	// kindReportEv is a report carrying its evidence: the reporter's signing
	// key and the full signed report wire ride in the same frame as the tally
	// op, so the evidence log (DESIGN.md §14) is WAL-consistent with the
	// count it backs by construction — there is no second log to tear.
	kindReportEv byte = 3
	// kindMergeCert is a merge carrying its §3.5 key-update certificate — the
	// rotated-away identity's signing key plus the signed update wire — so the
	// lineage link stays provable to bundle verifiers across replay.
	kindMergeCert byte = 4
)

// walOp is one logged operation: an accepted report or a key-rotation merge.
type walOp struct {
	kind    byte
	rec     Record     // kindReport / kindReportEv
	oldID   pkc.NodeID // kindMerge / kindMergeCert
	newID   pkc.NodeID
	oldSP   []byte // kindMergeCert: the old identity's signing key
	updWire []byte // kindMergeCert: the signed key-update wire
}

// reportPayloadSize is kind + reporter + subject + flag + nonce.
const reportPayloadSize = 1 + pkc.NodeIDSize + pkc.NodeIDSize + 1 + pkc.NonceSize

// mergePayloadSize is kind + old + new.
const mergePayloadSize = 1 + pkc.NodeIDSize + pkc.NodeIDSize

// mergeCertBaseSize is a kindMergeCert payload before the two variable-length
// certificate fields: the kindMerge layout plus a u8 key length and u16le
// wire length.
const mergeCertBaseSize = mergePayloadSize + 1 + 2

// Evidence field bounds. The store treats the key and wire as opaque bytes
// (agentdir owns their formats), so the bounds are generous caps against a
// corrupt length field, not format knowledge: an Ed25519 key is 32 bytes and
// a signed report wire 101.
const (
	maxEvidenceKey  = 255
	maxEvidenceWire = 4096
	// reportEvBaseSize is a kindReportEv payload before the two
	// variable-length evidence fields: the kindReport layout plus a u8 key
	// length and u16le wire length.
	reportEvBaseSize = reportPayloadSize + 1 + 2
)

// encodeOp appends the canonical payload encoding of op to dst.
func encodeOp(dst []byte, op walOp) []byte {
	switch op.kind {
	case kindReport:
		dst = append(dst, kindReport)
		dst = append(dst, op.rec.Reporter[:]...)
		dst = append(dst, op.rec.Subject[:]...)
		if op.rec.Positive {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = append(dst, op.rec.Nonce[:]...)
	case kindReportEv:
		dst = append(dst, kindReportEv)
		dst = append(dst, op.rec.Reporter[:]...)
		dst = append(dst, op.rec.Subject[:]...)
		if op.rec.Positive {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = append(dst, op.rec.Nonce[:]...)
		dst = append(dst, byte(len(op.rec.SP)))
		var wl [2]byte
		binary.LittleEndian.PutUint16(wl[:], uint16(len(op.rec.Wire)))
		dst = append(dst, wl[:]...)
		dst = append(dst, op.rec.SP...)
		dst = append(dst, op.rec.Wire...)
	case kindMerge:
		dst = append(dst, kindMerge)
		dst = append(dst, op.oldID[:]...)
		dst = append(dst, op.newID[:]...)
	case kindMergeCert:
		dst = append(dst, kindMergeCert)
		dst = append(dst, op.oldID[:]...)
		dst = append(dst, op.newID[:]...)
		dst = append(dst, byte(len(op.oldSP)))
		var wl [2]byte
		binary.LittleEndian.PutUint16(wl[:], uint16(len(op.updWire)))
		dst = append(dst, wl[:]...)
		dst = append(dst, op.oldSP...)
		dst = append(dst, op.updWire...)
	}
	return dst
}

// decodeOp parses one frame payload. Corrupt payloads error; they never
// panic and never decode to a different record than was encoded.
func decodeOp(p []byte) (walOp, error) {
	if len(p) == 0 {
		return walOp{}, ErrCorruptRecord
	}
	switch p[0] {
	case kindReport:
		if len(p) != reportPayloadSize {
			return walOp{}, ErrCorruptRecord
		}
		op := walOp{kind: kindReport}
		p = p[1:]
		copy(op.rec.Reporter[:], p[:pkc.NodeIDSize])
		p = p[pkc.NodeIDSize:]
		copy(op.rec.Subject[:], p[:pkc.NodeIDSize])
		p = p[pkc.NodeIDSize:]
		switch p[0] {
		case 0:
			op.rec.Positive = false
		case 1:
			op.rec.Positive = true
		default:
			return walOp{}, ErrCorruptRecord
		}
		copy(op.rec.Nonce[:], p[1:])
		return op, nil
	case kindReportEv:
		if len(p) < reportEvBaseSize {
			return walOp{}, ErrCorruptRecord
		}
		op := walOp{kind: kindReportEv}
		p = p[1:]
		copy(op.rec.Reporter[:], p[:pkc.NodeIDSize])
		p = p[pkc.NodeIDSize:]
		copy(op.rec.Subject[:], p[:pkc.NodeIDSize])
		p = p[pkc.NodeIDSize:]
		switch p[0] {
		case 0:
			op.rec.Positive = false
		case 1:
			op.rec.Positive = true
		default:
			return walOp{}, ErrCorruptRecord
		}
		copy(op.rec.Nonce[:], p[1:1+pkc.NonceSize])
		p = p[1+pkc.NonceSize:]
		spLen := int(p[0])
		wireLen := int(binary.LittleEndian.Uint16(p[1:3]))
		p = p[3:]
		if spLen == 0 || wireLen == 0 || wireLen > maxEvidenceWire || len(p) != spLen+wireLen {
			return walOp{}, ErrCorruptRecord
		}
		// SP and Wire alias p: applying the op interns the key and copies
		// the wire into the subject's packed evidence, so nothing retains
		// the recovery buffer.
		op.rec.SP = p[:spLen:spLen]
		op.rec.Wire = p[spLen:]
		return op, nil
	case kindMerge:
		if len(p) != mergePayloadSize {
			return walOp{}, ErrCorruptRecord
		}
		op := walOp{kind: kindMerge}
		copy(op.oldID[:], p[1:1+pkc.NodeIDSize])
		copy(op.newID[:], p[1+pkc.NodeIDSize:])
		return op, nil
	case kindMergeCert:
		if len(p) < mergeCertBaseSize {
			return walOp{}, ErrCorruptRecord
		}
		op := walOp{kind: kindMergeCert}
		p = p[1:]
		copy(op.oldID[:], p[:pkc.NodeIDSize])
		p = p[pkc.NodeIDSize:]
		copy(op.newID[:], p[:pkc.NodeIDSize])
		p = p[pkc.NodeIDSize:]
		spLen := int(p[0])
		wireLen := int(binary.LittleEndian.Uint16(p[1:3]))
		p = p[3:]
		if spLen == 0 || wireLen == 0 || wireLen > maxEvidenceWire || len(p) != spLen+wireLen {
			return walOp{}, ErrCorruptRecord
		}
		// Copy: decode buffers are recovery reads whose backing arrays must
		// not be pinned by the retained lineage table.
		op.oldSP = append([]byte(nil), p[:spLen]...)
		op.updWire = append([]byte(nil), p[spLen:]...)
		return op, nil
	default:
		return walOp{}, errUnknownRecordKind
	}
}

// appendFrame wraps payload in a length+CRC frame and appends it to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// scanFrames walks buf, returning the decoded ops of every intact frame and
// the byte length of that intact prefix. It never errors on torn or corrupt
// tails — that is the crash case recovery exists for — it just stops.
func scanFrames(buf []byte) (ops []walOp, goodLen int) {
	off := 0
	for {
		if len(buf)-off < frameHeaderSize {
			return ops, off
		}
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		crc := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if n > maxFramePayload || len(buf)-off-frameHeaderSize < n {
			return ops, off
		}
		payload := buf[off+frameHeaderSize : off+frameHeaderSize+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return ops, off
		}
		op, err := decodeOp(payload)
		if err != nil {
			return ops, off
		}
		ops = append(ops, op)
		off += frameHeaderSize + n
	}
}

// walFile is the slice of *os.File the log needs. Tests substitute a
// fault-injecting implementation to exercise write-failure paths.
type walFile interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// syncDir fsyncs a directory so renames and file creations inside it are
// durable. Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// wal is the append-only log with group commit. One leader goroutine at a
// time writes and fsyncs the accumulated batch, applies it to the store,
// and wakes every rider whose records the batch carried.
type wal struct {
	dir    string
	noSync bool
	apply  func([]walOp) // set by the store after recovery

	mu         sync.Mutex
	cond       *sync.Cond
	f          walFile
	epoch      uint64  // epoch of the active file; advanced only by rotate
	buf        []byte  // encoded frames awaiting commit
	ops        []walOp // decoded twins of buf, applied after the batch lands
	enc        []byte  // payload encoding buffer, reused under mu
	nextGen    uint64  // generation currently accumulating
	flushedGen uint64  // latest generation fully durable + applied
	flushing   bool
	err        error // sticky: first I/O failure poisons the log

	size atomic.Int64 // bytes in the active epoch file
}

// openWALFile opens (creating if absent) the log file for epoch in dir,
// replays every intact frame, truncates the torn tail, and positions the
// file for appending.
func openWALFile(dir string, epoch uint64, noSync bool) (*wal, []walOp, error) {
	f, err := os.OpenFile(filepath.Join(dir, walFileName(epoch)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("repstore: open wal: %w", err)
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("repstore: read wal: %w", err)
	}
	ops, goodLen := scanFrames(buf)
	if goodLen < len(buf) {
		if err := f.Truncate(int64(goodLen)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("repstore: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(goodLen), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("repstore: seek wal: %w", err)
	}
	w := &wal{dir: dir, epoch: epoch, f: f, noSync: noSync}
	w.cond = sync.NewCond(&w.mu)
	w.size.Store(int64(goodLen))
	return w, ops, nil
}

// readSealedWAL replays a non-active epoch file. Sealed epochs had no
// commit in flight when the log rotated past them, so the intact frame
// prefix is the committed content; a torn tail can only be the abandoned
// remains of a failed batch (whose records were reported failed to their
// callers) or disk damage, and is skipped either way. If a batch-write
// failure landed complete frames AND the claw-back truncate also failed,
// those acknowledged-failed frames are in the prefix and will replay — the
// residual ambiguity documented in DESIGN.md §7.
func readSealedWAL(path string) ([]walOp, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("repstore: read sealed wal: %w", err)
	}
	ops, _ := scanFrames(buf)
	return ops, nil
}

// commit makes ops durable and applied, all in the same batch: one frame per
// op, one write+fsync for the lot, and one outcome. Concurrent callers share
// that write+fsync: the first to find no flush in progress becomes the
// leader for everything queued so far; the rest wait for their generation.
func (w *wal) commit(ops ...walOp) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	for i := range ops {
		w.enc = encodeOp(w.enc[:0], ops[i])
		w.buf = appendFrame(w.buf, w.enc)
	}
	w.ops = append(w.ops, ops...)
	gen := w.nextGen
	for w.flushedGen <= gen && w.err == nil {
		if !w.flushing {
			w.flushBatchLocked()
		} else {
			w.cond.Wait()
		}
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// flushBatchLocked takes the pending batch, releases the lock for the I/O
// and apply, then publishes the new durable generation. Caller holds w.mu.
func (w *wal) flushBatchLocked() {
	w.flushing = true
	batch, ops, gen := w.buf, w.ops, w.nextGen
	w.buf, w.ops = nil, nil
	w.nextGen++
	preSize := w.size.Load()
	w.mu.Unlock()

	_, err := w.f.Write(batch)
	if err == nil && !w.noSync {
		err = w.f.Sync()
	}
	if err == nil {
		w.size.Add(int64(len(batch)))
		if w.apply != nil {
			w.apply(ops)
		}
	} else {
		// A failed write (or fsync) can still have landed a prefix of the
		// batch on disk. Every rider is told "failed", so complete frames in
		// that prefix must not be recovered at the next Open — claw the file
		// back to its pre-batch length. If the truncate itself fails the
		// torn tail stays ambiguous; the sticky error below stops the epoch
		// from growing, and the next rotation (Snapshot/Close) abandons the
		// tail for good.
		if terr := w.f.Truncate(preSize); terr == nil {
			_, _ = w.f.Seek(preSize, io.SeekStart)
			if !w.noSync {
				_ = w.f.Sync()
			}
		}
	}

	w.mu.Lock()
	w.flushing = false
	w.flushedGen = gen + 1
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("repstore: wal commit: %w", err)
	}
	w.cond.Broadcast()
}

// rotate seals the active epoch file and starts a fresh one. The caller
// (Snapshot/Close) holds the store's applyMu exclusively, so no commit is in
// flight. The sticky error is deliberately not consulted: rotating away from
// a poisoned file is how compaction abandons an ambiguous torn batch — the
// new epoch starts empty, and appends keep failing until reopen.
func (w *wal) rotate(newEpoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(w.dir, walFileName(newEpoch)), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("repstore: rotate wal: %w", err)
	}
	if !w.noSync {
		syncDir(w.dir)
	}
	old := w.f
	w.f = f
	w.epoch = newEpoch
	w.size.Store(0)
	if old != nil {
		_ = old.Close()
	}
	return nil
}

// close releases the file. Pending state was flushed by commit's synchronous
// contract; a final fsync covers the NoSync case.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.noSync {
		_ = w.f.Sync()
	}
	return w.f.Close()
}
