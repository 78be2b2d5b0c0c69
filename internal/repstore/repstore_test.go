package repstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hirep/internal/pkc"
	"hirep/internal/trust"
)

// nid builds a deterministic NodeID from a small integer.
func nid(i int) pkc.NodeID {
	var id pkc.NodeID
	binary.LittleEndian.PutUint64(id[:8], uint64(i)*0x9e3779b97f4a7c15+1)
	binary.LittleEndian.PutUint64(id[8:16], uint64(i))
	return id
}

// nnc builds a deterministic nonce from a small integer.
func nnc(i int) pkc.Nonce {
	var n pkc.Nonce
	binary.LittleEndian.PutUint64(n[:8], uint64(i))
	return n
}

// shadow is the reference model the engine must match.
type shadow struct {
	pos, neg map[pkc.NodeID]int
	reports  int
}

func newShadow() *shadow {
	return &shadow{pos: make(map[pkc.NodeID]int), neg: make(map[pkc.NodeID]int)}
}

func (m *shadow) apply(r Record) {
	if r.Positive {
		m.pos[r.Subject]++
	} else {
		m.neg[r.Subject]++
	}
	m.reports++
}

func (m *shadow) merge(oldID, newID pkc.NodeID) {
	if m.pos[oldID] == 0 && m.neg[oldID] == 0 {
		return
	}
	m.pos[newID] += m.pos[oldID]
	m.neg[newID] += m.neg[oldID]
	delete(m.pos, oldID)
	delete(m.neg, oldID)
}

// check asserts the store agrees with the shadow on every subject.
func (m *shadow) check(t *testing.T, s *Store) {
	t.Helper()
	if got := s.ReportCount(); got != m.reports {
		t.Fatalf("ReportCount = %d, shadow has %d", got, m.reports)
	}
	subjects := make(map[pkc.NodeID]bool)
	for id := range m.pos {
		subjects[id] = true
	}
	for id := range m.neg {
		subjects[id] = true
	}
	live := 0
	for id := range subjects {
		if m.pos[id]+m.neg[id] > 0 {
			live++
		}
	}
	if got := s.SubjectCount(); got != live {
		t.Fatalf("SubjectCount = %d, shadow has %d", got, live)
	}
	for id := range subjects {
		wp, wn := m.pos[id], m.neg[id]
		gp, gn, ok := s.Tally(id)
		if wp+wn == 0 {
			if ok {
				t.Fatalf("subject %v: store has tally, shadow empty", id)
			}
			continue
		}
		if !ok || gp != wp || gn != wn {
			t.Fatalf("subject %v: tally (%d,%d,%v), want (%d,%d)", id, gp, gn, ok, wp, wn)
		}
		want := trust.Value(float64(wp+1) / float64(wp+wn+2))
		if got, _ := s.TrustValue(id); got != want {
			t.Fatalf("subject %v: trust %v, want %v", id, got, want)
		}
	}
}

func TestMemoryStoreBasics(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Memory() {
		t.Fatal("dirless store should be memory-only")
	}
	model := newShadow()
	for i := 0; i < 100; i++ {
		r := Record{Reporter: nid(i % 7), Subject: nid(100 + i%13), Positive: i%3 != 0, Nonce: nnc(i)}
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		model.apply(r)
	}
	model.check(t, s)
	if got := s.DistinctReporters(nid(100)); got == 0 {
		t.Fatal("no distinct reporters recorded")
	}
	if err := s.Snapshot(); err != nil { // no-op on memory stores
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 16}, {1, 1}, {2, 2}, {3, 4}, {9, 16}, {16, 16}, {17, 32}} {
		s, err := Open("", Options{Shards: tc.in})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.shards) != tc.want {
			t.Fatalf("Shards %d → %d shards, want %d", tc.in, len(s.shards), tc.want)
		}
	}
}

func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	model := newShadow()
	for i := 0; i < 200; i++ {
		r := Record{Reporter: nid(i % 5), Subject: nid(50 + i%11), Positive: i%4 != 0, Nonce: nnc(i)}
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		model.apply(r)
	}
	// Rotation merge must survive too.
	if err := s.Merge(nid(50), nid(999)); err != nil {
		t.Fatal(err)
	}
	model.merge(nid(50), nid(999))
	model.check(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	model.check(t, re)
	// Clean close snapshots and truncates the log.
	if re.WALSize() != 0 {
		t.Fatalf("WAL not compacted on close: %d bytes", re.WALSize())
	}
}

func TestSnapshotPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	model := newShadow()
	add := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := Record{Reporter: nid(i % 3), Subject: nid(30 + i%7), Positive: i%2 == 0, Nonce: nnc(i)}
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
			model.apply(r)
		}
	}
	add(0, 80)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() != 0 {
		t.Fatal("snapshot did not truncate WAL")
	}
	add(80, 140) // tail after the snapshot
	// Crash: copy the dir as-is, no Close.
	crashDir := copyStoreDir(t, dir)
	re, err := Open(crashDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	model.check(t, re)
	// The tail's nonces must be recoverable for replay-cache reseeding.
	if got := len(re.RecoveredNonces()); got != 60 {
		t.Fatalf("recovered %d nonces, want 60 (the WAL tail)", got)
	}
}

// TestCrashRecoveryProperty is the acceptance property: a store killed at an
// arbitrary WAL offset reopens cleanly and recovers exactly the committed
// reports.
func TestCrashRecoveryProperty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 150
	recs := make([]Record, n)
	var ends []int // WAL offset at which record i is fully committed
	off := 0
	for i := range recs {
		recs[i] = Record{
			Reporter: nid(rng.Intn(6)),
			Subject:  nid(40 + rng.Intn(9)),
			Positive: rng.Intn(3) != 0,
			Nonce:    nnc(i),
		}
		if err := s.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
		off += frameHeaderSize + reportPayloadSize
		ends = append(ends, off)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) != off {
		t.Fatalf("WAL is %d bytes, expected %d", len(walBytes), off)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Kill the store at every byte offset in a sampled set (plus all frame
	// boundaries and their neighbours) and check exact recovery.
	cuts := map[int]bool{0: true, len(walBytes): true}
	for _, e := range ends {
		cuts[e] = true
		cuts[e-1] = true
		cuts[e+3] = true
	}
	for i := 0; i < 64; i++ {
		cuts[rng.Intn(len(walBytes))] = true
	}
	for cut := range cuts {
		if cut < 0 || cut > len(walBytes) {
			continue
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walFileName(0)), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Committed = every record whose final byte lies within the cut.
		model := newShadow()
		for i, e := range ends {
			if e <= cut {
				model.apply(recs[i])
			}
		}
		re, err := Open(crashDir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		model.check(t, re)
		if len(re.RecoveredNonces()) != model.reports {
			t.Fatalf("cut %d: recovered %d nonces, want %d", cut, len(re.RecoveredNonces()), model.reports)
		}
		// A second reopen (after the truncation repair) must be stable.
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re2, err := Open(crashDir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		model.check(t, re2)
		re2.Close()
	}
}

// TestStaleEpochNotDoubleApplied reproduces the compaction crash window the
// epoch protocol exists for: the snapshot rename lands but the pre-rotation
// WAL file survives (the crash hit before its deletion). Recovery must not
// replay that file on top of the snapshot that already contains it.
func TestStaleEpochNotDoubleApplied(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	model := newShadow()
	add := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := Record{Reporter: nid(i % 4), Subject: nid(20 + i%6), Positive: i%3 != 0, Nonce: nnc(i)}
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
			model.apply(r)
		}
	}
	add(0, 60)
	// Keep the epoch-0 log as it was the instant before compaction.
	wal0, err := os.ReadFile(filepath.Join(dir, walFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	add(60, 90) // tail in the post-rotation epoch
	// Crash between the snapshot rename and the stale-epoch deletion:
	// resurrect wal.0 next to the new snapshot and the epoch-1 tail.
	if err := os.WriteFile(filepath.Join(dir, walFileName(0)), wal0, 0o644); err != nil {
		t.Fatal(err)
	}
	crashDir := copyStoreDir(t, dir)
	re, err := Open(crashDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	model.check(t, re) // a double apply would inflate every tally
	if got := len(re.RecoveredNonces()); got != 30 {
		t.Fatalf("recovered %d nonces, want 30 (the live tail only)", got)
	}
	// Recovery deletes the stale epoch instead of ever replaying it.
	if _, err := os.Stat(filepath.Join(crashDir, walFileName(0))); !os.IsNotExist(err) {
		t.Fatalf("stale epoch file survived recovery: %v", err)
	}
}

// TestCompactionFailureSurfacedAndBackedOff pins the failure-path contract
// of auto-compaction: a failing snapshot must not fail appends, must be
// visible (counter + error), must not be retried on every append, and the
// degraded multi-epoch state must still recover exactly.
func TestCompactionFailureSurfacedAndBackedOff(t *testing.T) {
	dir := t.TempDir()
	const threshold = 256
	s, err := Open(dir, Options{NoSync: true, CompactAfter: threshold})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the snapshot's tmp path with a directory so its O_CREATE open
	// fails deterministically (permission tricks don't bite when running as
	// root; EISDIR always does).
	if err := os.Mkdir(filepath.Join(dir, snapName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	model := newShadow()
	recSize := frameHeaderSize + reportPayloadSize
	perEpoch := threshold/recSize + 1 // appends needed to cross the threshold
	seq := 0
	add := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			r := Record{Reporter: nid(seq % 4), Subject: nid(10 + seq%5), Positive: seq%2 == 0, Nonce: nnc(seq)}
			if err := s.Append(r); err != nil {
				t.Fatalf("append %d during failed compaction: %v", seq, err)
			}
			model.apply(r)
			seq++
		}
	}
	add(perEpoch) // crosses the threshold: compaction attempts and fails
	if s.CompactFailures() == 0 {
		t.Fatal("compaction failure not counted")
	}
	if s.CompactErr() == nil {
		t.Fatal("compaction failure not surfaced via CompactErr")
	}
	fails := s.CompactFailures()
	add(perEpoch - 2) // stays under the back-off point
	if got := s.CompactFailures(); got != fails {
		t.Fatalf("compaction retried %d extra times during back-off", got-fails)
	}
	model.check(t, s)
	// A crash in the degraded state leaves several live epochs (each failed
	// attempt rotated before the snapshot write failed); recovery replays
	// them in order.
	crashDir := copyStoreDir(t, dir)
	re, err := Open(crashDir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	model.check(t, re)
	re.Close()
	// Unblock the snapshot path; the next threshold crossing succeeds and
	// clears the failure signal.
	if err := os.Remove(filepath.Join(dir, snapName+".tmp")); err != nil {
		t.Fatal(err)
	}
	add(perEpoch + 2)
	if err := s.CompactErr(); err != nil {
		t.Fatalf("CompactErr still set after successful compaction: %v", err)
	}
	if got := s.CompactFailures(); got != fails {
		t.Fatalf("failure counter moved (%d → %d) after recovery", fails, got)
	}
	model.check(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	model.check(t, re2)
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: a handful of appends triggers snapshot+truncate.
	s, err := Open(dir, Options{NoSync: true, CompactAfter: 256})
	if err != nil {
		t.Fatal(err)
	}
	model := newShadow()
	for i := 0; i < 500; i++ {
		r := Record{Reporter: nid(1), Subject: nid(2 + i%3), Positive: true, Nonce: nnc(i)}
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		model.apply(r)
	}
	if s.WALSize() >= 500*(frameHeaderSize+reportPayloadSize) {
		t.Fatalf("auto-compaction never ran: WAL %d bytes", s.WALSize())
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	model.check(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	model.check(t, re)
}

func TestCorruptSnapshotRejected(t *testing.T) {
	for name, damage := range map[string]func(buf []byte){
		"flipped byte": func(buf []byte) { buf[len(buf)-1] ^= 0xFF },
		// HRSNAP06 is the only format: an older magic over an otherwise
		// intact file is refused, not loaded under guessed layout rules.
		"old magic": func(buf []byte) { copy(buf, "HRSNAP04") },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Append(Record{Reporter: nid(1), Subject: nid(2), Positive: true, Nonce: nnc(1)})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, snapName)
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damage(buf)
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("damaged snapshot opened: %v", err)
			}
		})
	}
}

// TestPreviousSnapshotLayoutRefused writes a snapshot in the layout before
// the shard-merge markers were dropped — magic HRSNAP05, a marker
// section between the tallies and the lineage section, valid CRC — and
// checks Open refuses it. Read under the current layout the marker count
// would be taken for the lineage section and every later section misread.
func TestPreviousSnapshotLayoutRefused(t *testing.T) {
	le := binary.LittleEndian
	body := le.AppendUint32(nil, 1) // one subject
	subject, reporter := nid(2), nid(1)
	body = append(body, subject[:]...)
	body = le.AppendUint64(body, 1) // pos
	body = le.AppendUint64(body, 0) // neg
	body = le.AppendUint32(body, 1) // one reporter
	body = append(body, reporter[:]...)
	body = le.AppendUint32(body, 1)
	body = le.AppendUint32(body, 0)
	body = le.AppendUint32(body, 1) // one merge marker: epoch, shard
	body = le.AppendUint64(body, 3)
	body = le.AppendUint32(body, 0)
	body = appendLineageSection(body, nil)
	body = appendEvidenceSection(body, nil, nil)
	const epoch = 0
	hdr := le.AppendUint64(nil, epoch)
	crc := crc32.Update(crc32.Checksum(hdr, crcTable), crcTable, body)
	buf := append([]byte("HRSNAP05"), hdr...)
	buf = le.AppendUint32(buf, uint32(len(body)))
	buf = le.AppendUint32(buf, crc)
	buf = append(buf, body...)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrCorruptSnapshot) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("previous-layout snapshot opened: %v", err)
	}
}

// TestConcurrentIngestQuery is the acceptance race-stress test: ≥8 writer
// goroutines ingest while readers query, under -race.
func TestConcurrentIngestQuery(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		dir := ""
		if durable {
			name = "durable"
			dir = t.TempDir()
		}
		t.Run(name, func(t *testing.T) {
			s, err := Open(dir, Options{NoSync: true, Shards: 8})
			if err != nil {
				t.Fatal(err)
			}
			const writers = 8
			const perWriter = 400
			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Readers hammer queries until the writers finish.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for i := 0; i < 16; i++ {
							_, _ = s.TrustValue(nid(200 + i))
							_, _, _ = s.Tally(nid(200 + i))
						}
						_ = s.ReportCount()
						_ = s.SubjectCount()
					}
				}(r)
			}
			var werr error
			var werrMu sync.Mutex
			var wwg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(w int) {
					defer wwg.Done()
					for i := 0; i < perWriter; i++ {
						r := Record{
							Reporter: nid(w),
							Subject:  nid(200 + (w*perWriter+i)%64),
							Positive: i%5 != 0,
							Nonce:    nnc(w*perWriter + i),
						}
						if err := s.Append(r); err != nil {
							werrMu.Lock()
							werr = err
							werrMu.Unlock()
							return
						}
					}
					// Sprinkle merges into the mix.
					_ = s.Merge(nid(200+w), nid(300+w))
				}(w)
			}
			wwg.Wait()
			close(stop)
			wg.Wait()
			if werr != nil {
				t.Fatal(werr)
			}
			if got := s.ReportCount(); got != writers*perWriter {
				t.Fatalf("ReportCount = %d, want %d", got, writers*perWriter)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if durable {
				re, err := Open(dir, Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if got := re.ReportCount(); got != writers*perWriter {
					t.Fatalf("recovered ReportCount = %d, want %d", got, writers*perWriter)
				}
			}
		})
	}
}

func TestMergeAcrossShards(t *testing.T) {
	s, err := Open("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Find two subjects on different shards and one pair on the same shard.
	a, b := nid(1), nid(2)
	for i := 3; s.shardIndex(a) == s.shardIndex(b); i++ {
		b = nid(i)
	}
	for i := 0; i < 4; i++ {
		_ = s.Append(Record{Reporter: nid(90), Subject: a, Positive: true, Nonce: nnc(i)})
	}
	_ = s.Append(Record{Reporter: nid(91), Subject: b, Positive: false, Nonce: nnc(99)})
	if err := s.Merge(a, b); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Tally(a); ok {
		t.Fatal("old subject still has state after merge")
	}
	gp, gn, ok := s.Tally(b)
	if !ok || gp != 4 || gn != 1 {
		t.Fatalf("merged tally (%d,%d,%v), want (4,1)", gp, gn, ok)
	}
	if got := s.DistinctReporters(b); got != 2 {
		t.Fatalf("merged reporters %d, want 2", got)
	}
	// Merging a subject with no state is a durable no-op.
	if err := s.Merge(nid(77), b); err != nil {
		t.Fatal(err)
	}
	// Self-merge must not wipe state.
	if err := s.Merge(b, b); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Tally(b); !ok {
		t.Fatal("self-merge destroyed the subject")
	}
}

// copyStoreDir clones a store directory byte-for-byte — the moral equivalent
// of kill -9 plus disk image.
func copyStoreDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
