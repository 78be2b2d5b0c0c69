package repstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"hirep/internal/pkc"
)

// This file is the store's replication surface (DESIGN.md §10): the hooks a
// primary agent uses to ship its committed WAL batches to replicas, and the
// shard-granular digest/export/import operations anti-entropy repair is built
// from. The batch framing IS the WAL framing (appendFrame/scanFrames), so a
// replica applies exactly the bytes the primary made durable — no second
// codec to keep in sync.
//
// Shard export layout (one shard, canonical order):
//
//	u64le version | u32le subject count | per subject, ascending by subject
//	bytes:
//	  subject[20] | u64 pos | u64 neg | u32 reporter count |
//	    (reporter[20] | u32 pos | u32 neg)*  — ascending by reporter bytes
//
// The canonical ordering makes the encoding deterministic, so two stores
// holding the same state produce byte-identical exports and therefore equal
// CRCs — which is what lets a digest comparison stand in for a full state
// transfer.
//
// When the exporting store holds verifiable-read state (DESIGN.md §14) the
// export carries a trailing lineage + evidence section pair (layouts in
// evidence.go, subjects and links ascending). The digest CRC deliberately
// covers only the tally body above: evidence retention is a per-store
// configuration choice, and a primary with the evidence log on must still
// digest-match a replica running without it — anti-entropy compares counts,
// never retention policy. A decoder finding no bytes after the tally body
// reads an evidence-free export, which is also what pre-§14 stores produce.

// ShardDigest summarizes one shard for anti-entropy comparison. CRC is the
// CRC32C of the shard's canonical encoding and is the ground truth for
// "same state". Version counts the ops applied to the shard since Open (or
// the version adopted by the last ImportShard); it is a session-local
// tiebreaker for pull-repair direction, not a durability invariant — a
// restart resets it while the content survives.
type ShardDigest struct {
	CRC     uint32
	Version uint64
}

// ShardCount returns the number of shards (a power of two fixed at Open).
// Replication peers must agree on it for digests to be comparable.
func (s *Store) ShardCount() int { return len(s.shards) }

// Digests returns the digest of every shard, indexed by shard number.
func (s *Store) Digests() []ShardDigest {
	out := make([]ShardDigest, len(s.shards))
	for i := range s.shards {
		out[i] = s.shardDigest(i)
	}
	return out
}

// shardDigest returns one shard's digest, recomputing the CRC only when a
// mutation invalidated the cached one — so periodic anti-entropy digest
// passes over an unchanged store never re-encode shard bodies.
func (s *Store) shardDigest(i int) ShardDigest {
	sh := &s.shards[i]
	sh.mu.RLock()
	if sh.digValid {
		d := ShardDigest{CRC: sh.digCRC, Version: sh.version}
		sh.mu.RUnlock()
		return d
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.digValid {
		body, _ := encodeShardLocked(sh)
		sh.digCRC = crc32.Checksum(body, crcTable)
		sh.digValid = true
	}
	return ShardDigest{CRC: sh.digCRC, Version: sh.version}
}

// ExportShard serializes one shard — version header plus canonical body,
// plus the trailing lineage/evidence sections when the store holds any — for
// an anti-entropy repair or a replica catch-up.
func (s *Store) ExportShard(i int) []byte {
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	links := s.LineageLinks() // before the shard lock; lineMu is independent
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	body, subjects := encodeShardLocked(sh)
	out := make([]byte, 0, 8+len(body))
	out = binary.LittleEndian.AppendUint64(out, sh.version)
	out = append(out, body...)
	hasEv := false
	for _, st := range sh.subjects {
		if len(st.ev) > 0 || st.evTrunc {
			hasEv = true
			break
		}
	}
	if hasEv || len(links) > 0 {
		out = appendLineageSection(out, links)
		out = appendEvidenceSection(out, subjects, func(id pkc.NodeID) *subjectState {
			return sh.subjects[id]
		})
	}
	return out
}

// encodeShardLocked produces the canonical (sorted) body of a shard and the
// sorted subject order it used. Caller holds the shard lock.
func encodeShardLocked(sh *shard) ([]byte, []pkc.NodeID) {
	subjects := make([]pkc.NodeID, 0, len(sh.subjects))
	for subject := range sh.subjects {
		subjects = append(subjects, subject)
	}
	sort.Slice(subjects, func(a, b int) bool {
		return string(subjects[a][:]) < string(subjects[b][:])
	})
	body := binary.LittleEndian.AppendUint32(nil, uint32(len(subjects)))
	for _, subject := range subjects {
		st := sh.subjects[subject]
		body = append(body, subject[:]...)
		body = binary.LittleEndian.AppendUint64(body, uint64(st.pos))
		body = binary.LittleEndian.AppendUint64(body, uint64(st.neg))
		body = binary.LittleEndian.AppendUint32(body, uint32(len(st.reporters)))
		reps := make([]pkc.NodeID, 0, len(st.reporters))
		for rep := range st.reporters {
			reps = append(reps, rep)
		}
		sort.Slice(reps, func(a, b int) bool {
			return string(reps[a][:]) < string(reps[b][:])
		})
		for _, rep := range reps {
			rt := st.reporters[rep]
			body = append(body, rep[:]...)
			body = binary.LittleEndian.AppendUint32(body, rt.pos)
			body = binary.LittleEndian.AppendUint32(body, rt.neg)
		}
	}
	return body, subjects
}

// ImportShard replaces shard i's contents with a peer's ExportShard payload,
// adopting the exported version. Every subject in the payload must actually
// belong to shard i under this store's shard count — a mismatched or hostile
// export is rejected without touching state. The import is an in-memory
// repair: a WAL-backed store must Snapshot() after a repair round to make the
// imported state durable (the WAL does not describe it).
func (s *Store) ImportShard(i int, data []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("repstore: import shard %d of %d", i, len(s.shards))
	}
	if len(data) < 8 {
		return fmt.Errorf("%w: short shard export", ErrCorruptRecord)
	}
	version := binary.LittleEndian.Uint64(data[:8])
	subjects, links, err := s.decodeShardBody(i, data[8:])
	if err != nil {
		return err
	}
	newTotal := int64(0)
	for _, st := range subjects {
		newTotal += int64(st.pos + st.neg)
		s.normalizeEvidence(st)
	}
	s.addLineage(links)
	// Treated as a mutation for snapshot purposes: Snapshot (applyMu held
	// exclusively) must never observe a half-swapped shard.
	s.applyMu.RLock()
	defer s.applyMu.RUnlock()
	sh := &s.shards[i]
	sh.mu.Lock()
	oldTotal := int64(0)
	for _, st := range sh.subjects {
		oldTotal += int64(st.pos + st.neg)
	}
	sh.subjects = subjects
	sh.version = version
	sh.digValid = false
	sh.mu.Unlock()
	s.reports.Add(newTotal - oldTotal)
	return nil
}

// decodeShardBody parses a canonical shard body, verifying every subject
// routes to shard i. Bytes after the tally part are the optional lineage +
// evidence sections; evidence is attached to the decoded subject states, and
// the lineage links are returned for the caller to fold in.
func (s *Store) decodeShardBody(i int, body []byte) (map[pkc.NodeID]*subjectState, []LineageLink, error) {
	d := snapReader{buf: body}
	count := d.u32()
	subjects := make(map[pkc.NodeID]*subjectState, min(int(count), 4096))
	for n := uint32(0); n < count; n++ {
		var subject pkc.NodeID
		copy(subject[:], d.take(pkc.NodeIDSize))
		pos := int(d.u64())
		neg := int(d.u64())
		nrep := d.u32()
		hint := int(nrep)
		if hint > 1024 {
			hint = 1024
		}
		st := &subjectState{pos: pos, neg: neg, reporters: make(map[pkc.NodeID]reporterTally, hint)}
		for j := uint32(0); j < nrep; j++ {
			var rep pkc.NodeID
			copy(rep[:], d.take(pkc.NodeIDSize))
			rt := reporterTally{pos: d.u32(), neg: d.u32()}
			if d.err != nil {
				return nil, nil, d.err
			}
			st.reporters[rep] = rt
		}
		if d.err != nil {
			return nil, nil, d.err
		}
		if s.shardIndex(subject) != uint64(i) {
			return nil, nil, fmt.Errorf("%w: subject routed to wrong shard", ErrCorruptRecord)
		}
		subjects[subject] = st
	}
	var links []LineageLink
	if d.err == nil && d.off < len(d.buf) {
		links = decodeLineageSection(&d)
		decodeEvidenceSection(&d, func(subject pkc.NodeID, evs []evrec, truncated bool) bool {
			st := subjects[subject]
			if st == nil {
				return false // evidence for a subject the tally part never named
			}
			st.ev = evs
			st.evTrunc = truncated
			return true
		})
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, nil, fmt.Errorf("%w: trailing bytes in shard export", ErrCorruptRecord)
	}
	return subjects, links, nil
}

// ApplyBatch ingests one replicated group-commit batch — the exact framed
// bytes a primary's OnCommit hook produced. The whole batch must parse; a
// torn or corrupt batch is rejected without applying any prefix. On a
// WAL-backed store the batch is group-committed through the replica's own
// log (durable before applied), reusing the already-framed bytes. It returns
// the number of operations applied.
func (s *Store) ApplyBatch(batch []byte) (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	ops, goodLen := scanFrames(batch)
	if goodLen != len(batch) {
		return 0, fmt.Errorf("%w: replicated batch does not parse", ErrCorruptRecord)
	}
	if len(ops) == 0 {
		return 0, nil
	}
	s.applyMu.RLock()
	var err error
	if s.wal == nil {
		s.applyOps(ops)
	} else {
		err = s.wal.commitBatch(ops, batch)
	}
	s.applyMu.RUnlock()
	if err != nil {
		return 0, err
	}
	s.maybeCompact()
	return len(ops), nil
}

// Range calls fn for every subject with state, in no particular order,
// stopping early when fn returns false. The tally passed is the subject's
// aggregate positive/negative count. Kept as a thin adapter over Subjects
// (evidence.go), the shared iterator surface.
func (s *Store) Range(fn func(subject pkc.NodeID, pos, neg int) bool) {
	s.Subjects(func(stat SubjectStat) bool {
		return fn(stat.Subject, stat.Pos, stat.Neg)
	})
}

// SyncPoint runs fn with the store quiescent: no append, merge, replicated
// batch, or import is in flight, and every OnCommit callback for applied
// state has returned. A primary uses it to capture a mutually consistent
// (digests, exports, shipped-sequence) triple for anti-entropy. fn must not
// mutate the store (Append/Merge/ApplyBatch/ImportShard/Snapshot would
// deadlock); reads like Digests and ExportShard are safe.
func (s *Store) SyncPoint(fn func()) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	fn()
}
