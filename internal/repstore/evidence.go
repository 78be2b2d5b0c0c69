package repstore

import (
	"encoding/binary"
	"sort"

	"hirep/internal/pkc"
)

// This file is the store's verifiable-read surface (DESIGN.md §14): the
// evidence log accessors a proof assembler consumes, the merge-lineage table
// auditors need to follow §3.5 key rotations, and the shared iterator/stat
// API.
//
// Evidence section layout (in the snapshot body):
//
//	u32 subject count | per subject:
//	  subject[20] | u8 flags (bit0: truncated) | u32 evidence count |
//	    (reporter[20] | u8 key length | key | u16le wire length | wire)*
//
// Lineage section layout:
//
//	u32 link count | (old[20] | new[20] | u8 key length | u16le wire length |
//	  key | wire)*
//
// where key/wire are the rotated-away identity's signing key and the signed
// key-update certificate authorizing the succession (both empty for an
// uncertified link recorded by a bare Merge).

const evFlagTruncated byte = 1

// Evidence is one retained signed report: the wire bytes exactly as the
// reporter signed them, plus the public key they verify under. The store
// treats both as opaque (agentdir owns the formats); callers must not mutate
// the slices, which may be shared with the store's retained copy.
type Evidence struct {
	Reporter pkc.NodeID
	SP       []byte
	Wire     []byte
}

// EvidenceEnabled reports whether the store retains evidence (EvidenceCap >
// 0).
func (s *Store) EvidenceEnabled() bool { return s.opts.EvidenceCap > 0 }

// SubjectProof returns a subject's tally together with the evidence backing
// it, read under one shard lock so the pair is mutually consistent — the
// invariant a proof bundle attests. truncated reports that evidence was
// dropped (retention cap, or tallies merged in without their evidence), in
// which case the bundle built from this read must be marked partial. ok is
// false when the store holds no reports about the subject.
func (s *Store) SubjectProof(subject pkc.NodeID) (pos, neg int, evs []Evidence, truncated bool, ok bool) {
	sh := s.shardFor(subject)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.subjects[subject]
	if st == nil || st.pos+st.neg == 0 {
		return 0, 0, nil, false, false
	}
	evs = make([]Evidence, len(st.ev))
	for i, e := range st.ev {
		evs[i] = Evidence{Reporter: e.reporter, SP: e.sp, Wire: e.wire}
	}
	return st.pos, st.neg, evs, st.evTrunc, true
}

// LineageLink is one identity-merge record: the old identity folded into the
// new one, plus — when the merge came from a verified §3.5 key rotation — the
// certificate proving the old identity authorized it: the old signing key and
// the signed key-update wire (pkc.VerifyKeyUpdate re-checks both). The store
// treats OldSP/Wire as opaque bytes; agentdir verifies them before a
// certified merge, and proof.Verify re-verifies them in every bundle.
type LineageLink struct {
	Old, New pkc.NodeID
	OldSP    []byte
	Wire     []byte
}

// Certified reports whether the link carries its key-update certificate. Only
// certified links are exportable in proof bundles — an uncertified link is
// trusted locally but proves nothing to a verifier.
func (l LineageLink) Certified() bool { return len(l.OldSP) > 0 && len(l.Wire) > 0 }

// LineageLinks returns every identity-merge link the store has applied, old →
// new, sorted by old ID. A proof bundle ships the certified links its
// evidence needs so a verifier can resolve reports signed over pre-rotation
// subject IDs and check the old key authorized each hop.
func (s *Store) LineageLinks() []LineageLink {
	s.lineMu.Lock()
	out := make([]LineageLink, 0, len(s.lineage))
	for old, v := range s.lineage {
		out = append(out, LineageLink{Old: old, New: v.newID, OldSP: v.sp, Wire: v.wire})
	}
	s.lineMu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		return string(out[a].Old[:]) < string(out[b].Old[:])
	})
	return out
}

// addLineage folds links (from a snapshot or merge) into the
// table. Links are only ever added — forgetting one would orphan evidence —
// and a certified record is never downgraded by an uncertified copy of the
// same succession arriving later.
func (s *Store) addLineage(links []LineageLink) {
	if len(links) == 0 {
		return
	}
	s.lineMu.Lock()
	for _, l := range links {
		if cur, ok := s.lineage[l.Old]; ok && cur.newID == l.New &&
			len(cur.wire) > 0 && len(l.Wire) == 0 {
			continue
		}
		s.lineage[l.Old] = lineageVal{newID: l.New, sp: l.OldSP, wire: l.Wire}
	}
	s.lineMu.Unlock()
}

// SubjectStat is one subject's summary row for the iterator surface: the
// aggregate tally, the distinct-reporter count behind it, and the state of
// its evidence log.
type SubjectStat struct {
	Subject   pkc.NodeID
	Pos, Neg  int
	Reporters int
	// Evidence is how many signed report wires are retained; Truncated
	// reports that some were dropped, so Evidence < Pos+Neg is expected.
	Evidence  int
	Truncated bool
}

// Subjects calls fn with every subject's stat row, in no particular order,
// stopping early when fn returns false. It is the shared iteration surface
// (ROADMAP: proof assembly, gossip aggregation, ballot-stuffing sweeps):
// each shard is read-locked only while its own subjects stream, so a long
// consumer never blocks ingest on more than one shard.
func (s *Store) Subjects(fn func(SubjectStat) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for subject, st := range sh.subjects {
			stat := SubjectStat{
				Subject:   subject,
				Pos:       st.pos,
				Neg:       st.neg,
				Reporters: len(st.reporters),
				Evidence:  len(st.ev),
				Truncated: st.evTrunc,
			}
			if !fn(stat) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// SubjectStat returns one subject's stat row. ok is false when the store
// holds no state about it.
func (s *Store) SubjectStat(subject pkc.NodeID) (SubjectStat, bool) {
	sh := s.shardFor(subject)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.subjects[subject]
	if st == nil {
		return SubjectStat{}, false
	}
	return SubjectStat{
		Subject:   subject,
		Pos:       st.pos,
		Neg:       st.neg,
		Reporters: len(st.reporters),
		Evidence:  len(st.ev),
		Truncated: st.evTrunc,
	}, true
}

// appendEvidenceSection serializes the evidence of the given subjects (those
// with any evidence state) in the given order.
func appendEvidenceSection(body []byte, subjects []pkc.NodeID, get func(pkc.NodeID) *subjectState) []byte {
	withEv := subjects[:0:0]
	for _, subject := range subjects {
		st := get(subject)
		if len(st.ev) > 0 || st.evTrunc {
			withEv = append(withEv, subject)
		}
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(withEv)))
	for _, subject := range withEv {
		st := get(subject)
		body = append(body, subject[:]...)
		var flags byte
		if st.evTrunc {
			flags |= evFlagTruncated
		}
		body = append(body, flags)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(st.ev)))
		for _, e := range st.ev {
			body = append(body, e.reporter[:]...)
			body = append(body, byte(len(e.sp)))
			body = append(body, e.sp...)
			var wl [2]byte
			binary.LittleEndian.PutUint16(wl[:], uint16(len(e.wire)))
			body = append(body, wl[:]...)
			body = append(body, e.wire...)
		}
	}
	return body
}

// decodeEvidenceSection parses one evidence section, handing each subject's
// decoded evidence to attach. The reader's error state is the only failure
// channel; attach is never called after an error.
func decodeEvidenceSection(d *snapReader, attach func(subject pkc.NodeID, evs []evrec, truncated bool) bool) {
	count := d.u32()
	for i := uint32(0); i < count; i++ {
		var subject pkc.NodeID
		copy(subject[:], d.take(pkc.NodeIDSize))
		fb := d.take(1)
		var flags byte
		if fb != nil {
			flags = fb[0]
		}
		n := d.u32()
		hint := int(n)
		if hint > 1024 {
			hint = 1024
		}
		evs := make([]evrec, 0, hint)
		for j := uint32(0); j < n; j++ {
			var e evrec
			copy(e.reporter[:], d.take(pkc.NodeIDSize))
			lb := d.take(1)
			if lb == nil {
				return
			}
			spLen := int(lb[0])
			e.sp = append([]byte(nil), d.take(spLen)...)
			wb := d.take(2)
			if wb == nil {
				return
			}
			wireLen := int(binary.LittleEndian.Uint16(wb))
			if spLen == 0 || wireLen == 0 || wireLen > maxEvidenceWire {
				d.err = ErrCorruptRecord
				return
			}
			e.wire = append([]byte(nil), d.take(wireLen)...)
			if d.err != nil {
				return
			}
			evs = append(evs, e)
		}
		if d.err != nil {
			return
		}
		if !attach(subject, evs, flags&evFlagTruncated != 0) {
			d.err = ErrCorruptRecord
			return
		}
	}
}

// appendLineageSection serializes lineage links, certificates included.
func appendLineageSection(body []byte, links []LineageLink) []byte {
	body = binary.LittleEndian.AppendUint32(body, uint32(len(links)))
	for _, l := range links {
		body = append(body, l.Old[:]...)
		body = append(body, l.New[:]...)
		body = append(body, byte(len(l.OldSP)))
		var wl [2]byte
		binary.LittleEndian.PutUint16(wl[:], uint16(len(l.Wire)))
		body = append(body, wl[:]...)
		body = append(body, l.OldSP...)
		body = append(body, l.Wire...)
	}
	return body
}

// decodeLineageSection parses one lineage section.
func decodeLineageSection(d *snapReader) []LineageLink {
	count := d.u32()
	hint := int(count)
	if hint > 1024 {
		hint = 1024
	}
	links := make([]LineageLink, 0, hint)
	for i := uint32(0); i < count; i++ {
		var l LineageLink
		copy(l.Old[:], d.take(pkc.NodeIDSize))
		copy(l.New[:], d.take(pkc.NodeIDSize))
		lb := d.take(1)
		if lb == nil {
			return nil
		}
		spLen := int(lb[0])
		wb := d.take(2)
		if wb == nil {
			return nil
		}
		wireLen := int(binary.LittleEndian.Uint16(wb))
		if wireLen > maxEvidenceWire {
			d.err = ErrCorruptRecord
			return nil
		}
		if spLen > 0 {
			l.OldSP = append([]byte(nil), d.take(spLen)...)
		}
		if wireLen > 0 {
			l.Wire = append([]byte(nil), d.take(wireLen)...)
		}
		if d.err != nil {
			return nil
		}
		links = append(links, l)
	}
	return links
}
