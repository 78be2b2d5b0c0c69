package repstore

import (
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hirep/internal/pkc"
)

// The store directory under testdata/format-v06 was written by the store as
// it stood before the evidence log was packed (snapshot magic HRSNAP06): a
// snapshot holding tallies, evidence, a truncated subject and one certified
// merge, plus a WAL tail with more evidence, a second certified merge and a
// bare report, left as a crash image (no Close). format-v06.golden is
// formatDump of that store as its writer read it back. Run
//
//	go test ./internal/repstore -run TestFormatPinned -update-format
//
// only when the on-disk format changes on purpose; the layouts are pinned so
// that a change to the in-memory layout cannot move them.
var updateFormat = flag.Bool("update-format", false, "rewrite testdata/format-v06 and its golden dump")

const (
	formatDir    = "testdata/format-v06"
	formatGolden = "testdata/format-v06.golden"
	formatCap    = 4
)

// formatKey is reporter k's deterministic signing key; its ID is the SHA-1
// of the key, the binding agentdir enforces.
func formatKey(k int) (pkc.NodeID, []byte) {
	sp := sha256.Sum256([]byte(fmt.Sprintf("format-reporter-%d", k)))
	return pkc.NodeID(sha1.Sum(sp[:])), sp[:]
}

// formatRecord is report i by reporter k about subject: a 101-byte opaque
// wire, the length of a signed agentdir report.
func formatRecord(i, k int, subject pkc.NodeID) Record {
	id, sp := formatKey(k)
	wire := make([]byte, 0, 101)
	for j := byte(0); len(wire) < 101; j++ {
		h := sha256.Sum256([]byte(fmt.Sprintf("format-wire-%d-%d", i, j)))
		wire = append(wire, h[:]...)
	}
	return Record{Reporter: id, Subject: subject, Positive: i%3 != 1, Nonce: nnc(7000 + i),
		SP: sp, Wire: wire[:101]}
}

// writeFormatStore builds the pinned store in dir and leaves it open, so the
// WAL tail is not folded into the snapshot.
func writeFormatStore(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true, CompactAfter: -1, EvidenceCap: formatCap})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	add := func(subject pkc.NodeID, k, n int) {
		for ; n > 0; n-- {
			if err := s.Append(formatRecord(i, k, subject)); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	certify := func(oldID, newID pkc.NodeID) {
		_, sp := formatKey(9)
		upd := sha256.Sum256(append(oldID[:], newID[:]...))
		if err := s.MergeCertified(oldID, newID, sp, upd[:]); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot: under the cap, truncated by the cap, a certified merge whose
	// evidence joins an existing subject, and a report without evidence.
	add(nid(901), 0, 3)
	add(nid(902), 1, 6)
	add(nid(903), 2, 2)
	add(nid(904), 0, 1)
	certify(nid(903), nid(904))
	if err := s.Append(Record{Reporter: nid(1), Subject: nid(905), Positive: true, Nonce: nnc(7900)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// WAL tail: a snapshot subject pushed past the cap, a new subject merged
	// away under a second certificate, and a bare report.
	add(nid(901), 1, 2)
	add(nid(906), 2, 2)
	certify(nid(906), nid(907))
	if err := s.Append(Record{Reporter: nid(2), Subject: nid(905), Positive: false, Nonce: nnc(7901)}); err != nil {
		t.Fatal(err)
	}
}

// formatDump renders everything a reader can observe of a store, in a fixed
// order: report count, recovered nonces, each subject's stat row and proof
// (reporter, key and wire of every retained report, oldest first), and the
// lineage table.
func formatDump(s *Store) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reports %d\n", s.ReportCount())
	for _, n := range s.RecoveredNonces() {
		fmt.Fprintf(&b, "nonce %x\n", n[:])
	}
	var stats []SubjectStat
	s.Subjects(func(st SubjectStat) bool { stats = append(stats, st); return true })
	sort.Slice(stats, func(i, j int) bool { return bytes.Compare(stats[i].Subject[:], stats[j].Subject[:]) < 0 })
	for _, st := range stats {
		fmt.Fprintf(&b, "subject %x pos %d neg %d reporters %d evidence %d truncated %v\n",
			st.Subject[:], st.Pos, st.Neg, st.Reporters, st.Evidence, st.Truncated)
		pos, neg, evs, trunc, ok := s.SubjectProof(st.Subject)
		fmt.Fprintf(&b, "  proof pos %d neg %d truncated %v ok %v\n", pos, neg, trunc, ok)
		for _, ev := range evs {
			fmt.Fprintf(&b, "  ev %x %x %s\n", ev.Reporter[:], ev.SP, hex.EncodeToString(ev.Wire))
		}
	}
	for _, l := range s.LineageLinks() {
		fmt.Fprintf(&b, "link %x -> %x sp %x wire %x\n", l.Old[:], l.New[:], l.OldSP, l.Wire)
	}
	return b.String()
}

// TestFormatPinned reopens the checked-in store and requires exactly the
// state its writer saw: tallies, evidence in order with keys and wires,
// truncation flags and lineage. It then closes the store (a snapshot written
// by this code), reopens it, and requires the same state again.
func TestFormatPinned(t *testing.T) {
	if *updateFormat {
		if err := os.RemoveAll(formatDir); err != nil {
			t.Fatal(err)
		}
		tmp := t.TempDir()
		writeFormatStore(t, tmp)
		if err := os.MkdirAll(formatDir, 0o755); err != nil {
			t.Fatal(err)
		}
		img := copyStoreDir(t, tmp)
		entries, _ := os.ReadDir(img)
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(img, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(formatDir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re, err := Open(copyStoreDir(t, formatDir), Options{NoSync: true, EvidenceCap: formatCap})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(formatGolden, []byte(formatDump(re)), 0o644); err != nil {
			t.Fatal(err)
		}
		re.Close()
	}
	golden, err := os.ReadFile(formatGolden)
	if err != nil {
		t.Fatal(err)
	}
	dir := copyStoreDir(t, formatDir)
	s, err := Open(dir, Options{NoSync: true, EvidenceCap: formatCap})
	if err != nil {
		t.Fatal(err)
	}
	if got := formatDump(s); got != string(golden) {
		t.Fatalf("pinned store reopened to a different state:\n%s\nwant:\n%s", got, golden)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{NoSync: true, EvidenceCap: formatCap})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Close folded the tail into the snapshot, so nothing replays from a WAL.
	want := string(golden)
	var kept []string
	for _, line := range strings.SplitAfter(want, "\n") {
		if !strings.HasPrefix(line, "nonce ") {
			kept = append(kept, line)
		}
	}
	if got := formatDump(re); got != strings.Join(kept, "") {
		t.Fatalf("state changed across a snapshot written by this code:\n%s\nwant:\n%s", got, strings.Join(kept, ""))
	}
}

// TestFormatWALFramesPinned re-encodes every frame of the pinned WAL tail and
// requires the file's bytes back, so the frame layout cannot drift.
func TestFormatWALFramesPinned(t *testing.T) {
	entries, err := os.ReadDir(formatDir)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, e := range entries {
		if _, ok := parseWALEpoch(e.Name()); !ok {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(formatDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ops, goodLen := scanFrames(buf)
		if goodLen != len(buf) {
			t.Fatalf("%s: %d of %d bytes intact", e.Name(), goodLen, len(buf))
		}
		var re []byte
		for _, op := range ops {
			re = appendFrame(re, encodeOp(nil, op))
		}
		if !bytes.Equal(re, buf) {
			t.Fatalf("%s: re-encoded frames differ from the pinned bytes", e.Name())
		}
		frames += len(ops)
	}
	if frames == 0 {
		t.Fatal("pinned store has no WAL frames")
	}
}
