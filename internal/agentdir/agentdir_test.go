package agentdir

import (
	"errors"
	"math"
	"sync"
	"testing"

	"hirep/internal/pkc"
	"hirep/internal/repstore"
)

func ident(t *testing.T) *pkc.Identity {
	t.Helper()
	id, err := pkc.NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func nonce(t *testing.T) pkc.Nonce {
	t.Helper()
	n, err := pkc.NewNonce(nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRegisterKeyBinding(t *testing.T) {
	a := New(ident(t), 0)
	p := ident(t)
	if err := a.RegisterKey(p.ID, p.Sign.Public); err != nil {
		t.Fatal(err)
	}
	if !a.KnowsKey(p.ID) {
		t.Fatal("key not registered")
	}
	// Spoofer presents its own key under p's nodeID.
	spoofer := ident(t)
	if err := a.RegisterKey(p.ID, spoofer.Sign.Public); !errors.Is(err, ErrBadBinding) {
		t.Fatalf("spoofed binding accepted: %v", err)
	}
	if a.KeyCount() != 1 {
		t.Fatalf("key count %d", a.KeyCount())
	}
}

func TestSubmitReportHappyPath(t *testing.T) {
	a := New(ident(t), 0)
	p, subject := ident(t), ident(t)
	if err := a.RegisterKey(p.ID, p.Sign.Public); err != nil {
		t.Fatal(err)
	}
	wire := SignReport(p, subject.ID, true, nonce(t))
	rep, err := a.SubmitReport(p.ID, wire)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Subject != subject.ID || !rep.Positive || rep.Reporter != p.ID {
		t.Fatalf("report fields: %+v", rep)
	}
	if a.ReportCount() != 1 || a.SubjectCount() != 1 {
		t.Fatal("counts wrong")
	}
}

func TestSubmitReportUnknownReporter(t *testing.T) {
	a := New(ident(t), 0)
	p, subject := ident(t), ident(t)
	wire := SignReport(p, subject.ID, true, nonce(t))
	if _, err := a.SubmitReport(p.ID, wire); !errors.Is(err, ErrUnknownReporter) {
		t.Fatalf("unregistered reporter accepted: %v", err)
	}
}

func TestSubmitReportForgedSignature(t *testing.T) {
	a := New(ident(t), 0)
	p, forger, subject := ident(t), ident(t), ident(t)
	_ = a.RegisterKey(p.ID, p.Sign.Public)
	// Forger signs with its own key but claims p's identity.
	wire := SignReport(forger, subject.ID, false, nonce(t))
	if _, err := a.SubmitReport(p.ID, wire); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged report accepted: %v (identity spoofing, §4.2.2)", err)
	}
}

func TestSubmitReportTampered(t *testing.T) {
	a := New(ident(t), 0)
	p, subject := ident(t), ident(t)
	_ = a.RegisterKey(p.ID, p.Sign.Public)
	wire := SignReport(p, subject.ID, false, nonce(t))
	// Flip the outcome bit: negative -> positive.
	wire[pkc.NodeIDSize] = 1
	if _, err := a.SubmitReport(p.ID, wire); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered outcome accepted: %v", err)
	}
}

func TestSubmitReportReplay(t *testing.T) {
	a := New(ident(t), 0)
	p, subject := ident(t), ident(t)
	_ = a.RegisterKey(p.ID, p.Sign.Public)
	wire := SignReport(p, subject.ID, true, nonce(t))
	if _, err := a.SubmitReport(p.ID, wire); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitReport(p.ID, wire); !errors.Is(err, ErrReplayedReport) {
		t.Fatalf("replay accepted: %v", err)
	}
	if a.ReportCount() != 1 {
		t.Fatal("replay inflated report count")
	}
}

func TestSubmitReportMalformed(t *testing.T) {
	a := New(ident(t), 0)
	p := ident(t)
	_ = a.RegisterKey(p.ID, p.Sign.Public)
	for _, wire := range [][]byte{nil, {}, make([]byte, 10), make([]byte, 200)} {
		if _, err := a.SubmitReport(p.ID, wire); !errors.Is(err, ErrBadReport) {
			t.Fatalf("malformed %d-byte report: %v", len(wire), err)
		}
	}
	// Outcome byte other than 0/1.
	good := SignReport(p, ident(t).ID, true, nonce(t))
	good[pkc.NodeIDSize] = 7
	if _, err := a.SubmitReport(p.ID, good); !errors.Is(err, ErrBadReport) {
		t.Fatalf("bad outcome byte: %v", err)
	}
}

func TestTrustValueSmoothing(t *testing.T) {
	a := New(ident(t), 0)
	p, subject := ident(t), ident(t)
	_ = a.RegisterKey(p.ID, p.Sign.Public)
	if _, ok := a.TrustValue(subject.ID); ok {
		t.Fatal("agent has an opinion with no reports")
	}
	// 3 positive, 1 negative: (3+1)/(4+2) = 2/3.
	for _, pos := range []bool{true, true, true, false} {
		wire := SignReport(p, subject.ID, pos, nonce(t))
		if _, err := a.SubmitReport(p.ID, wire); err != nil {
			t.Fatal(err)
		}
	}
	v, ok := a.TrustValue(subject.ID)
	if !ok {
		t.Fatal("no value")
	}
	if math.Abs(float64(v)-2.0/3.0) > 1e-12 {
		t.Fatalf("trust %v want 2/3", v)
	}
}

func TestTrustValueConvergesToBehaviour(t *testing.T) {
	a := New(ident(t), 0)
	p, good, bad := ident(t), ident(t), ident(t)
	_ = a.RegisterKey(p.ID, p.Sign.Public)
	for i := 0; i < 50; i++ {
		if _, err := a.SubmitReport(p.ID, SignReport(p, good.ID, true, nonce(t))); err != nil {
			t.Fatal(err)
		}
		if _, err := a.SubmitReport(p.ID, SignReport(p, bad.ID, false, nonce(t))); err != nil {
			t.Fatal(err)
		}
	}
	gv, _ := a.TrustValue(good.ID)
	bv, _ := a.TrustValue(bad.ID)
	if gv < 0.9 || bv > 0.1 {
		t.Fatalf("trust did not converge: good=%v bad=%v", gv, bv)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	a := New(ident(t), 0)
	subject := ident(t)
	const workers = 8
	reporters := make([]*pkc.Identity, workers)
	for i := range reporters {
		reporters[i] = ident(t)
		if err := a.RegisterKey(reporters[i].ID, reporters[i].Sign.Public); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(p *pkc.Identity) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				n, _ := pkc.NewNonce(nil)
				if _, err := a.SubmitReport(p.ID, SignReport(p, subject.ID, true, n)); err != nil {
					t.Error(err)
					return
				}
			}
		}(reporters[i])
	}
	wg.Wait()
	if a.ReportCount() != workers*50 {
		t.Fatalf("report count %d, want %d", a.ReportCount(), workers*50)
	}
}

func TestDecodeNonceHint(t *testing.T) {
	p := ident(t)
	n := nonce(t)
	wire := SignReport(p, ident(t).ID, true, n)
	got, err := DecodeNonceHint(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatal("nonce hint mismatch")
	}
	if _, err := DecodeNonceHint([]byte("short")); err == nil {
		t.Fatal("short wire decoded")
	}
}

func TestStringSummary(t *testing.T) {
	a := New(ident(t), 0)
	if a.String() == "" {
		t.Fatal("empty summary")
	}
}

// TestSubmitReportStoreFailureReleasesNonce pins that a report the store
// rejects does not burn its replay nonce: once the store works again, a
// retry of the same signed report is accepted — and only then does the wire
// become a true replay.
func TestSubmitReportStoreFailureReleasesNonce(t *testing.T) {
	st, err := repstore.Open("", repstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewWithStore(ident(t), 0, st)
	p, subject := ident(t), ident(t)
	if err := a.RegisterKey(p.ID, p.Sign.Public); err != nil {
		t.Fatal(err)
	}
	wire := SignReport(p, subject.ID, true, nonce(t))
	// Simulate a sticky store failure: a closed store refuses appends the
	// same way a poisoned WAL does.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitReport(p.ID, wire); !errors.Is(err, repstore.ErrClosed) {
		t.Fatalf("append against failed store: %v", err)
	}
	// The store recovers (in production: a restart reopening the same dir;
	// here: swap in a fresh backend). The SAME wire must now be accepted.
	if a.store, err = repstore.Open("", repstore.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitReport(p.ID, wire); err != nil {
		t.Fatalf("legitimate retry rejected after store failure: %v", err)
	}
	if _, err := a.SubmitReport(p.ID, wire); !errors.Is(err, ErrReplayedReport) {
		t.Fatalf("true replay accepted: %v", err)
	}
	if a.ReportCount() != 1 {
		t.Fatalf("report count %d, want 1", a.ReportCount())
	}
}

// TestApplyKeyUpdateStoreFailureKeepsKeys pins the all-or-nothing contract
// of key rotation: if the durable tally merge fails, the public-key list
// must be left untouched so the caller can tell nothing applied and retry.
func TestApplyKeyUpdateStoreFailureKeepsKeys(t *testing.T) {
	st, err := repstore.Open("", repstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewWithStore(ident(t), 0, st)
	old := ident(t)
	if err := a.RegisterKey(old.ID, old.Sign.Public); err != nil {
		t.Fatal(err)
	}
	_, wire, err := old.Rotate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyKeyUpdate(wire); !errors.Is(err, repstore.ErrClosed) {
		t.Fatalf("key update with failed store: %v", err)
	}
	if !a.KnowsKey(old.ID) || a.KeyCount() != 1 {
		t.Fatal("key map mutated although the update failed")
	}
	// Once the store recovers, the same update applies end to end.
	if a.store, err = repstore.Open("", repstore.Options{}); err != nil {
		t.Fatal(err)
	}
	upd, err := a.ApplyKeyUpdate(wire)
	if err != nil {
		t.Fatalf("retry after store recovery failed: %v", err)
	}
	if a.KnowsKey(old.ID) || !a.KnowsKey(upd.NewID) {
		t.Fatal("retry did not rotate the key")
	}
}

// TestReplayCapOverflowKeepsRecentNonces audits the replay-nonce cache at
// replayCap overflow: a nonce that was recently REJECTED as a replay must
// keep being rejected even after enough fresh reports arrive to overflow the
// cache — eviction follows observation recency, not first-insertion order.
func TestReplayCapOverflowKeepsRecentNonces(t *testing.T) {
	const cap = 8
	a := New(ident(t), cap)
	rep := ident(t)
	if err := a.RegisterKey(rep.ID, rep.Sign.Public); err != nil {
		t.Fatal(err)
	}
	subject := ident(t)

	// Fill the cache to capacity.
	wires := make([][]byte, cap)
	for i := range wires {
		wires[i] = SignReport(rep, subject.ID, true, nonce(t))
		if _, err := a.SubmitReport(rep.ID, wires[i]); err != nil {
			t.Fatal(err)
		}
	}
	// An attacker replays the oldest report; it must be rejected, and the
	// rejection refreshes its recency.
	if _, err := a.SubmitReport(rep.ID, wires[0]); !errors.Is(err, ErrReplayedReport) {
		t.Fatalf("replay accepted: %v", err)
	}
	// Fresh reports overflow the cache (evicting cap-1 others), after which
	// the just-replayed wire must STILL be rejected.
	for i := 0; i < cap-1; i++ {
		if _, err := a.SubmitReport(rep.ID, SignReport(rep, subject.ID, true, nonce(t))); err != nil {
			t.Fatal(err)
		}
	}
	before := a.ReportCount()
	if _, err := a.SubmitReport(rep.ID, wires[0]); !errors.Is(err, ErrReplayedReport) {
		t.Fatalf("recently-replayed report re-accepted after overflow: %v", err)
	}
	if a.ReportCount() != before {
		t.Fatal("replayed report was double-counted")
	}
	// The truly least-recently-observed nonce (wires[1]) is the legitimate
	// eviction victim — the bounded cache forgets it.
	if _, err := a.SubmitReport(rep.ID, wires[1]); err != nil {
		t.Fatalf("evicted nonce should be forgotten (bounded-cache semantics): %v", err)
	}
}
