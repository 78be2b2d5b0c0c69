package repstore_test

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"hirep/internal/agentdir"
	"hirep/internal/pkc"
	"hirep/internal/repstore"
)

var errInjectedWrite = errors.New("injected write failure")

// countingFile counts the log's syncs and, once failWrites is set, lands
// half of each write and fails it — a short write the claw-back must undo.
type countingFile struct {
	repstore.WALFile
	syncs      atomic.Int64
	failWrites atomic.Bool
}

func (f *countingFile) Sync() error {
	f.syncs.Add(1)
	return f.WALFile.Sync()
}

func (f *countingFile) Write(p []byte) (int, error) {
	if f.failWrites.Load() {
		n, _ := f.WALFile.Write(p[:len(p)/2])
		return n, errInjectedWrite
	}
	return f.WALFile.Write(p)
}

func wrapCounting(t *testing.T, s *repstore.Store) *countingFile {
	t.Helper()
	var cf *countingFile
	repstore.WrapWALFile(s, func(f repstore.WALFile) repstore.WALFile {
		cf = &countingFile{WALFile: f}
		return cf
	})
	return cf
}

func identity(t *testing.T) *pkc.Identity {
	t.Helper()
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// durableAgent opens a WAL-backed store in dir (fsync on, evidence kept, no
// auto-compaction) and an agent over it that knows reporter's key.
func durableAgent(t *testing.T, dir string, reporter *pkc.Identity) (*agentdir.Agent, *repstore.Store) {
	t.Helper()
	st, err := repstore.Open(dir, repstore.Options{CompactAfter: -1, EvidenceCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	a := agentdir.NewWithStore(identity(t), 0, st)
	if err := a.RegisterKey(reporter.ID, reporter.Sign.Public); err != nil {
		t.Fatal(err)
	}
	return a, st
}

// signedBatch is n fresh reports by reporter about n/8 subjects.
func signedBatch(t *testing.T, reporter *pkc.Identity, n int) [][]byte {
	t.Helper()
	subjects := make([]*pkc.Identity, n/8+1)
	for i := range subjects {
		subjects[i] = identity(t)
	}
	wires := make([][]byte, n)
	for i := range wires {
		nonce, err := pkc.NewNonce(nil)
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = agentdir.SignReport(reporter, subjects[i%len(subjects)].ID, i%3 != 0, nonce)
	}
	return wires
}

// TestSubmitReportBatchOneSync pins the batch commit: a 256-report batch on
// a durable store is one WAL write and one fsync, not one per report.
func TestSubmitReportBatchOneSync(t *testing.T) {
	reporter := identity(t)
	a, st := durableAgent(t, t.TempDir(), reporter)
	defer st.Close()
	cf := wrapCounting(t, st)
	_, errs := a.SubmitReportBatch(reporter.ID, signedBatch(t, reporter, 256))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	if got := cf.syncs.Load(); got != 1 {
		t.Fatalf("a 256-report batch made %d fsyncs, want 1", got)
	}
	if got := st.ReportCount(); got != 256 {
		t.Fatalf("stored %d reports, want 256", got)
	}
}

// TestSubmitReportBatchRejectsAloneInOneCommit mixes a forged and a replayed
// report into a durable batch: each rejects with its own reason, the rest
// commit together in one fsync.
func TestSubmitReportBatchRejectsAloneInOneCommit(t *testing.T) {
	reporter, stranger := identity(t), identity(t)
	a, st := durableAgent(t, t.TempDir(), reporter)
	defer st.Close()
	earlier := signedBatch(t, reporter, 1)
	if _, err := a.SubmitReport(reporter.ID, earlier[0]); err != nil {
		t.Fatal(err)
	}
	wires := signedBatch(t, reporter, 16)
	nonce, _ := pkc.NewNonce(nil)
	wires[3] = agentdir.SignReport(stranger, stranger.ID, true, nonce) // forged: not reporter's key
	wires[9] = earlier[0]                                              // replayed
	cf := wrapCounting(t, st)
	_, errs := a.SubmitReportBatch(reporter.ID, wires)
	for i, err := range errs {
		switch i {
		case 3:
			if !errors.Is(err, agentdir.ErrBadSignature) {
				t.Fatalf("forged report: %v, want ErrBadSignature", err)
			}
		case 9:
			if !errors.Is(err, agentdir.ErrReplayedReport) {
				t.Fatalf("replayed report: %v, want ErrReplayedReport", err)
			}
		default:
			if err != nil {
				t.Fatalf("report %d: %v", i, err)
			}
		}
	}
	if got := cf.syncs.Load(); got != 1 {
		t.Fatalf("batch made %d fsyncs, want 1", got)
	}
	if got := st.ReportCount(); got != 1+14 {
		t.Fatalf("stored %d reports, want 15", got)
	}
}

// TestSubmitReportBatchWriteFailure fails the batch's WAL write partway:
// every report of the batch gets the error and gives its nonce back, the
// log holds none of it after a crash, and the identical batch resent to an
// agent over the recovered store is stored whole.
func TestSubmitReportBatchWriteFailure(t *testing.T) {
	reporter := identity(t)
	dir := t.TempDir()
	a, st := durableAgent(t, dir, reporter)
	defer st.Close()
	first := signedBatch(t, reporter, 3)
	if _, errs := a.SubmitReportBatch(reporter.ID, first); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("first batch: %v", errs)
	}

	cf := wrapCounting(t, st)
	cf.failWrites.Store(true)
	batch := signedBatch(t, reporter, 256)
	_, errs := a.SubmitReportBatch(reporter.ID, batch)
	for i, err := range errs {
		if !errors.Is(err, errInjectedWrite) {
			t.Fatalf("report %d of the failed batch: %v, want the write error", i, err)
		}
	}
	// The nonces went back: resent to the same agent, whose log is now
	// poisoned, every report fails on the store again, none as a replay.
	_, errs = a.SubmitReportBatch(reporter.ID, batch)
	for i, err := range errs {
		if err == nil || errors.Is(err, agentdir.ErrReplayedReport) {
			t.Fatalf("report %d resent to the poisoned store: %v, want a store error", i, err)
		}
	}
	if got := st.ReportCount(); got != 3 {
		t.Fatalf("store applied %d reports, want the first 3", got)
	}

	// A crash image now recovers only the first batch, its nonces included.
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, st2 := durableAgent(t, crash, reporter)
	defer st2.Close()
	if got := st2.ReportCount(); got != 3 {
		t.Fatalf("recovered %d reports, want 3", got)
	}
	if got := len(st2.RecoveredNonces()); got != 3 {
		t.Fatalf("recovered %d nonces, want 3", got)
	}
	_, errs = b.SubmitReportBatch(reporter.ID, batch)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("report %d of the resent batch: %v", i, err)
		}
	}
	if got := st2.ReportCount(); got != 3+256 {
		t.Fatalf("after the resend the store holds %d reports, want 259", got)
	}
	// The first batch is still a replay on the recovered agent.
	if _, err := b.SubmitReport(reporter.ID, first[0]); !errors.Is(err, agentdir.ErrReplayedReport) {
		t.Fatalf("first batch resent after recovery: %v, want ErrReplayedReport", err)
	}
}
