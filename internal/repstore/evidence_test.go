package repstore

import (
	"bytes"
	"fmt"
	"testing"

	"hirep/internal/pkc"
)

// evRecord builds a Record carrying opaque evidence bytes. The store treats
// SP and Wire as opaque (agentdir owns their formats), so deterministic junk
// exercises the retention machinery fully.
func evRecord(i int, subject pkc.NodeID) Record {
	return Record{
		Reporter: nid(i % 7),
		Subject:  subject,
		Positive: i%3 != 0,
		Nonce:    nnc(i),
		SP:       []byte(fmt.Sprintf("sp-%04d", i)),
		Wire:     []byte(fmt.Sprintf("wire-%04d-padding", i)),
	}
}

func TestEvidenceRetentionAndCap(t *testing.T) {
	s, err := Open("", Options{EvidenceCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	subject := nid(500)
	for i := 0; i < 3; i++ {
		if err := s.Append(evRecord(i, subject)); err != nil {
			t.Fatal(err)
		}
	}
	pos, neg, evs, truncated, ok := s.SubjectProof(subject)
	if !ok || truncated || pos+neg != 3 || len(evs) != 3 {
		t.Fatalf("SubjectProof = (%d,%d,%d evs,trunc=%v,ok=%v), want full 3", pos, neg, len(evs), truncated, ok)
	}
	// Ingest order, with the wires intact.
	for i, ev := range evs {
		if !bytes.Equal(ev.Wire, evRecord(i, subject).Wire) || !bytes.Equal(ev.SP, evRecord(i, subject).SP) {
			t.Fatalf("evidence %d out of order or corrupted", i)
		}
	}
	// Overflow the cap: the oldest wires drop and the bundle turns partial.
	for i := 3; i < 10; i++ {
		if err := s.Append(evRecord(i, subject)); err != nil {
			t.Fatal(err)
		}
	}
	pos, neg, evs, truncated, _ = s.SubjectProof(subject)
	if pos+neg != 10 || len(evs) != 4 || !truncated {
		t.Fatalf("after overflow: tally %d, %d evs, trunc=%v; want 10 tally, 4 evs, truncated", pos+neg, len(evs), truncated)
	}
	if !bytes.Equal(evs[0].Wire, evRecord(6, subject).Wire) {
		t.Fatal("cap did not drop the oldest evidence")
	}

	// A record without evidence bytes still tallies, evidence-free.
	plain := nid(501)
	if err := s.Append(Record{Reporter: nid(1), Subject: plain, Positive: true, Nonce: nnc(100)}); err != nil {
		t.Fatal(err)
	}
	if _, _, evs, _, ok := s.SubjectProof(plain); !ok || len(evs) != 0 {
		t.Fatalf("plain record grew evidence: %d", len(evs))
	}
}

func TestEvidenceDisabledRetainsNothing(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	subject := nid(510)
	for i := 0; i < 5; i++ {
		if err := s.Append(evRecord(i, subject)); err != nil {
			t.Fatal(err)
		}
	}
	pos, neg, evs, truncated, ok := s.SubjectProof(subject)
	if !ok || pos+neg != 5 || len(evs) != 0 || truncated {
		t.Fatalf("EvidenceCap=0 store kept evidence: %d evs, trunc=%v", len(evs), truncated)
	}
}

func TestEvidenceOversizeRejected(t *testing.T) {
	s, err := Open("", Options{EvidenceCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := evRecord(0, nid(520))
	r.Wire = make([]byte, maxEvidenceWire+1)
	if err := s.Append(r); err != ErrRecordTooLarge {
		t.Fatalf("oversize wire accepted: %v", err)
	}
	r = evRecord(1, nid(520))
	r.SP = make([]byte, maxEvidenceKey+1)
	if err := s.Append(r); err != ErrRecordTooLarge {
		t.Fatalf("oversize key accepted: %v", err)
	}
}

// TestEvidenceDurability pins the WAL and snapshot halves of retention: the
// evidence log must survive a crash with only WAL replay, a compaction into a
// snapshot, and both combined — and reopening with retention off (or a
// smaller cap) must degrade to tallies (or a trimmed, truncated log) rather
// than resurrect dropped wires.
func TestEvidenceDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactAfter: -1, EvidenceCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	subject := nid(530)
	for i := 0; i < 6; i++ {
		if err := s.Append(evRecord(i, subject)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash with the evidence only in the WAL.
	crash := copyStoreDir(t, dir)
	re, err := Open(crash, Options{NoSync: true, EvidenceCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, evs, trunc, ok := re.SubjectProof(subject); !ok || len(evs) != 6 || trunc {
		t.Fatalf("WAL replay lost evidence: %d evs, trunc=%v", len(evs), trunc)
	}
	re.Close()

	// Compact into a snapshot, append a tail, crash again: snapshot section
	// plus WAL tail must stitch back together in order.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if err := s.Append(evRecord(i, subject)); err != nil {
			t.Fatal(err)
		}
	}
	crash2 := copyStoreDir(t, dir)
	re2, err := Open(crash2, Options{NoSync: true, EvidenceCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, _, evs, trunc, ok := re2.SubjectProof(subject)
	if !ok || len(evs) != 9 || trunc {
		t.Fatalf("snapshot+tail recovery: %d evs, trunc=%v", len(evs), trunc)
	}
	for i, ev := range evs {
		if !bytes.Equal(ev.Wire, evRecord(i, subject).Wire) {
			t.Fatalf("evidence %d mangled across snapshot+tail", i)
		}
	}
	re2.Close()

	// Reopen with retention off: tallies only, no evidence resurrected.
	reOff, err := Open(copyStoreDir(t, dir), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if pos, neg, evs, _, ok := reOff.SubjectProof(subject); !ok || pos+neg != 9 || len(evs) != 0 {
		t.Fatalf("retention-off reopen: tally %d, %d evs", pos+neg, len(evs))
	}
	reOff.Close()

	// Reopen with a shrunken cap: trimmed to the newest, marked truncated.
	reSmall, err := Open(copyStoreDir(t, dir), Options{NoSync: true, EvidenceCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, evs, trunc, _ := reSmall.SubjectProof(subject); len(evs) != 2 || !trunc {
		t.Fatalf("shrunken-cap reopen: %d evs, trunc=%v", len(evs), trunc)
	} else if !bytes.Equal(evs[1].Wire, evRecord(8, subject).Wire) {
		t.Fatal("shrunken cap did not keep the newest evidence")
	}
	reSmall.Close()
	s.Close()
}

// TestEvidenceMergeAndLineage pins identity rotation against the evidence
// log: Merge moves the old subject's evidence (as ingested, still naming the
// old ID in its wires) under the new ID and records the old→new lineage link
// durably — via the snapshot and via raw WAL replay.
func TestEvidenceMergeAndLineage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactAfter: -1, EvidenceCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	oldID, newID := nid(540), nid(541)
	for i := 0; i < 3; i++ {
		if err := s.Append(evRecord(i, oldID)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(evRecord(10, newID)); err != nil {
		t.Fatal(err)
	}
	// A certified merge: the store persists the key-update certificate
	// opaquely (agentdir verified it; bundle verifiers re-verify it).
	certSP := []byte("old-signing-key")
	certWire := []byte("signed-key-update-wire")
	if err := s.MergeCertified(oldID, newID, certSP, certWire); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, ok := s.SubjectProof(oldID); ok {
		t.Fatal("old subject still has proof state after merge")
	}
	pos, neg, evs, trunc, ok := s.SubjectProof(newID)
	if !ok || pos+neg != 4 || len(evs) != 4 || trunc {
		t.Fatalf("merged proof: tally %d, %d evs, trunc=%v", pos+neg, len(evs), trunc)
	}
	wantCert := func(what string, links []LineageLink) {
		t.Helper()
		for _, l := range links {
			if l.Old != oldID {
				continue
			}
			if l.New != newID {
				t.Fatalf("%s: link = %v→%v, want →%v", what, l.Old, l.New, newID)
			}
			if !l.Certified() || string(l.OldSP) != string(certSP) || string(l.Wire) != string(certWire) {
				t.Fatalf("%s: certificate lost: sp=%q wire=%q", what, l.OldSP, l.Wire)
			}
			return
		}
		t.Fatalf("%s: no lineage link for %v in %v", what, oldID, links)
	}
	if links := s.LineageLinks(); len(links) != 1 {
		t.Fatalf("LineageLinks = %v, want one link", links)
	} else {
		wantCert("live", links)
	}
	// A merge of a subject with no state still records lineage: the binding
	// matters to verifiers even when no tally moved.
	ghost := nid(542)
	if err := s.Merge(ghost, newID); err != nil {
		t.Fatal(err)
	}
	if links := s.LineageLinks(); len(links) != 2 {
		t.Fatalf("ghost merge not recorded in lineage: %v", links)
	}

	// Crash recovery via WAL replay rebuilds lineage from kindMerge ops.
	re, err := Open(copyStoreDir(t, dir), Options{NoSync: true, EvidenceCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if links := re.LineageLinks(); len(links) != 2 {
		t.Fatalf("WAL replay lost lineage: %v", links)
	} else {
		wantCert("WAL replay", links)
	}
	if _, _, evs, _, _ := re.SubjectProof(newID); len(evs) != 4 {
		t.Fatalf("WAL replay lost merged evidence: %d evs", len(evs))
	}
	re.Close()

	// Snapshot persistence: compact, then reopen from the snapshot alone.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir, Options{NoSync: true, EvidenceCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if links := re2.LineageLinks(); len(links) != 2 {
		t.Fatalf("snapshot lost lineage: %v", links)
	} else {
		wantCert("snapshot", links)
	}
	if _, _, evs, _, _ := re2.SubjectProof(newID); len(evs) != 4 {
		t.Fatalf("snapshot lost merged evidence: %d evs", len(evs))
	}
}

// TestEvidenceShardExportMerge pins evidence and lineage riding shard
// replication: exports carry them as trailing sections, imports fold them
// in, and the shard digest ignores them entirely (anti-entropy
// compares tallies, never retention policy).
func TestEvidenceShardExportMerge(t *testing.T) {
	src, err := Open("", Options{Shards: 4, EvidenceCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	subject := nid(550)
	for i := 0; i < 5; i++ {
		if err := src.Append(evRecord(i, subject)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.MergeCertified(nid(551), subject, []byte("sp551"), []byte("wire551")); err != nil {
		t.Fatal(err)
	}
	shard := int(src.shardIndex(subject))

	// Digest parity: a store with identical tallies but no evidence must
	// digest identically, or mixed-retention replica groups would repair
	// forever.
	bare, err := Open("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	for i := 0; i < 5; i++ {
		r := evRecord(i, subject)
		r.SP, r.Wire = nil, nil
		if err := bare.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bare.Merge(nid(551), subject); err != nil {
		t.Fatal(err)
	}
	sd := src.shardDigest(shard)
	bd := bare.shardDigest(shard)
	if sd.CRC != bd.CRC {
		t.Fatalf("evidence changed the shard digest: %x vs %x", sd.CRC, bd.CRC)
	}

	// Import into a fresh evidence-enabled store: everything travels.
	dst, err := Open("", Options{Shards: 4, EvidenceCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.ImportShard(shard, src.ExportShard(shard)); err != nil {
		t.Fatal(err)
	}
	if _, _, evs, trunc, ok := dst.SubjectProof(subject); !ok || len(evs) != 5 || trunc {
		t.Fatalf("import dropped evidence: %d evs, trunc=%v", len(evs), trunc)
	}
	if links := dst.LineageLinks(); len(links) != 1 {
		t.Fatalf("import dropped lineage: %v", links)
	} else if !links[0].Certified() || string(links[0].Wire) != "wire551" {
		t.Fatalf("import dropped lineage certificate: %+v", links[0])
	}

	// An evidence-off receiver applies the tally half and drops the wires.
	dstOff, err := Open("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer dstOff.Close()
	if err := dstOff.ImportShard(shard, src.ExportShard(shard)); err != nil {
		t.Fatal(err)
	}
	if pos, neg, evs, _, ok := dstOff.SubjectProof(subject); !ok || pos+neg != 5 || len(evs) != 0 {
		t.Fatalf("evidence-off import: tally %d, %d evs", pos+neg, len(evs))
	}
}

// TestSubjectsIterator pins the shared iterator/stat surface that Range and
// the proof path ride on.
func TestSubjectsIterator(t *testing.T) {
	s, err := Open("", Options{Shards: 4, EvidenceCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		if err := s.Append(evRecord(i, nid(560+i%3))); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[pkc.NodeID]SubjectStat)
	s.Subjects(func(st SubjectStat) bool {
		seen[st.Subject] = st
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("iterator saw %d subjects, want 3", len(seen))
	}
	for id, st := range seen {
		if st.Pos+st.Neg != 10 || st.Reporters == 0 {
			t.Fatalf("subject %v: stat %+v", id, st)
		}
		if st.Evidence != 4 || !st.Truncated {
			t.Fatalf("subject %v: evidence %d trunc=%v, want capped 4", id, st.Evidence, st.Truncated)
		}
		got, ok := s.SubjectStat(id)
		if !ok || got != st {
			t.Fatalf("SubjectStat(%v) = %+v/%v, iterator said %+v", id, got, ok, st)
		}
	}
	// Early stop.
	count := 0
	s.Subjects(func(SubjectStat) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d subjects", count)
	}
}
