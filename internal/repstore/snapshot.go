package repstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"hirep/internal/pkc"
)

// Snapshot file layout:
//
//	8-byte magic | u64le epoch | u32le body length | u32le CRC32C(epoch|body) | body
//
// body: u32 subject count, then per subject
//
//	subject[20] | u64 pos | u64 neg | u32 reporter count |
//	  (reporter[20] | u32 pos | u32 neg)*
//
// The verifiable-read state (DESIGN.md §14) follows the tallies: the
// merge-lineage section — each link with its key-update certificate, so a
// bundle spanning a §3.5 rotation stays provable after compaction — then the
// evidence section (layouts in evidence.go). Both fold into the snapshot
// with the tallies in one atomic rename: evidence torn from the tally it
// backs would turn honest bundles partial (or worse, unverifiable) after a
// restart.
//
// epoch is the snapshot's WAL replay floor: the snapshot contains every
// record from WAL epochs below it, so recovery replays only epoch files at
// or above the floor. The CRC covers the floor too — a flipped epoch bit
// must not silently change which log files recovery trusts.
//
// The snapshot is written to a temp file, fsynced, and renamed over the old
// one, so a crash at any point leaves either the previous snapshot or the
// new one — never a torn file. A snapshot therefore either loads fully or is
// disk corruption, which is a hard error (unlike a torn WAL tail, which is
// the expected crash artifact).
const (
	snapName     = "snapshot"
	snapMagic    = "HRSNAP06"
	snapMagicLen = 8
)

// writeSnapshot persists the current in-memory state with epoch as the WAL
// replay floor. Caller holds applyMu exclusively, so the state is quiescent.
func (s *Store) writeSnapshot(epoch uint64) error {
	body := s.encodeState()
	buf := make([]byte, 0, len(snapMagic)+16+len(body))
	buf = append(buf, snapMagic...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], epoch)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	crc := crc32.Checksum(hdr[0:8], crcTable)
	crc = crc32.Update(crc, crcTable, body)
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, body...)

	tmp := filepath.Join(s.dir, snapName+".tmp")
	final := filepath.Join(s.dir, snapName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("repstore: snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("repstore: snapshot write: %w", err)
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("repstore: snapshot sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repstore: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("repstore: snapshot rename: %w", err)
	}
	if !s.opts.NoSync {
		syncDir(s.dir)
	}
	return nil
}

// encodeState serializes every shard into the snapshot body format.
func (s *Store) encodeState() []byte {
	count := 0
	for i := range s.shards {
		count += len(s.shards[i].subjects)
	}
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(b []byte, v uint32) []byte {
		binary.LittleEndian.PutUint32(u32[:], v)
		return append(b, u32[:]...)
	}
	put64 := func(b []byte, v uint64) []byte {
		binary.LittleEndian.PutUint64(u64[:], v)
		return append(b, u64[:]...)
	}
	body := put32(nil, uint32(count))
	for i := range s.shards {
		for subject, st := range s.shards[i].subjects {
			body = append(body, subject[:]...)
			body = put64(body, uint64(st.pos))
			body = put64(body, uint64(st.neg))
			body = put32(body, uint32(len(st.reporters)))
			for rep, rt := range st.reporters {
				body = append(body, rep[:]...)
				body = put32(body, uint32(rt.pos))
				body = put32(body, uint32(rt.neg))
			}
		}
	}
	body = appendLineageSection(body, s.LineageLinks())
	var subjects []pkc.NodeID
	for i := range s.shards {
		for subject := range s.shards[i].subjects {
			subjects = append(subjects, subject)
		}
	}
	body = appendEvidenceSection(body, subjects, func(id pkc.NodeID) *subjectState {
		return s.shardFor(id).subjects[id]
	})
	return body
}

// loadSnapshot restores state from the snapshot file, if one exists, and
// returns its WAL replay floor (0 when there is no snapshot). Called from
// Open before WAL replay.
func (s *Store) loadSnapshot() (uint64, error) {
	buf, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repstore: read snapshot: %w", err)
	}
	if len(buf) < snapMagicLen+16 {
		return 0, fmt.Errorf("%w: bad header", ErrCorruptSnapshot)
	}
	if string(buf[:snapMagicLen]) != snapMagic {
		return 0, fmt.Errorf("%w: bad header", ErrCorruptSnapshot)
	}
	hdr := buf[snapMagicLen:]
	epoch := binary.LittleEndian.Uint64(hdr[0:8])
	n := binary.LittleEndian.Uint32(hdr[8:12])
	crc := binary.LittleEndian.Uint32(hdr[12:16])
	body := hdr[16:]
	if uint32(len(body)) != n {
		return 0, fmt.Errorf("%w: length mismatch", ErrCorruptSnapshot)
	}
	want := crc32.Checksum(hdr[0:8], crcTable)
	want = crc32.Update(want, crcTable, body)
	if want != crc {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptSnapshot)
	}
	if err := s.decodeState(body); err != nil {
		return 0, err
	}
	return epoch, nil
}

// decodeState parses a snapshot body into the shards. The body passed its
// CRC, so structural violations still mean corruption and error out rather
// than guessing.
func (s *Store) decodeState(body []byte) error {
	d := snapReader{buf: body}
	count := d.u32()
	total := int64(0)
	for i := uint32(0); i < count; i++ {
		var subject pkc.NodeID
		copy(subject[:], d.take(pkc.NodeIDSize))
		pos := d.tally()
		neg := d.tally()
		nrep := d.u32()
		hint := int(nrep)
		if hint > 1024 { // cap the pre-allocation; a hostile count still has to survive take()
			hint = 1024
		}
		st := &subjectState{pos: pos, neg: neg, reporters: make(map[pkc.NodeID]reporterTally, hint)}
		for j := uint32(0); j < nrep; j++ {
			var rep pkc.NodeID
			copy(rep[:], d.take(pkc.NodeIDSize))
			rt := reporterTally{pos: d.u32(), neg: d.u32()}
			if d.err != nil {
				return d.err
			}
			st.reporters[rep] = rt
		}
		if d.err != nil {
			return d.err
		}
		s.shardFor(subject).subjects[subject] = st
		total += int64(pos + neg)
	}
	s.addLineage(decodeLineageSection(&d))
	decodeEvidenceSection(&d, func(subject pkc.NodeID, evs []evrec, truncated bool) bool {
		st := s.shardFor(subject).subjects[subject]
		if st == nil {
			return false // evidence for a subject the tally section never named
		}
		if s.opts.EvidenceCap <= 0 {
			return true // retention turned off this session; drop the wires
		}
		st.ev = evs
		st.evTrunc = truncated
		st.trimEvidence(s.opts.EvidenceCap) // cap may have shrunk across restarts
		return true
	})
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: trailing bytes", ErrCorruptSnapshot)
	}
	s.reports.Store(total)
	return nil
}

// snapReader is a bounds-checked cursor over the snapshot body. The first
// error sticks: every later read returns zero values.
type snapReader struct {
	buf []byte
	off int
	err error
}

func (d *snapReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		d.err = ErrCorruptSnapshot
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapReader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *snapReader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// tally reads a subject's u64 report count. A count past the int range is
// corrupt: converted, it would turn into a negative tally.
func (d *snapReader) tally() int {
	v := d.u64()
	if v > math.MaxInt {
		d.err = ErrCorruptRecord
		return 0
	}
	return int(v)
}
