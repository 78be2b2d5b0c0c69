package repstore

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hirep/internal/pkc"
)

// digestsMismatch reports the shard indexes where two digest vectors differ
// — the shards an anti-entropy pass would repair.
func digestsMismatch(a, b []ShardDigest) []int {
	var out []int
	for i := range a {
		if a[i] != b[i] {
			out = append(out, i)
		}
	}
	return out
}

// assertConverged fails unless replica holds byte-for-byte the same state as
// primary: equal digests, equal report counts, and identical tallies.
func assertConverged(t *testing.T, primary, replica *Store) {
	t.Helper()
	if miss := digestsMismatch(primary.Digests(), replica.Digests()); miss != nil {
		t.Fatalf("digests still differ at shards %v", miss)
	}
	if p, r := primary.ReportCount(), replica.ReportCount(); p != r {
		t.Fatalf("ReportCount: primary %d, replica %d", p, r)
	}
	primary.Range(func(subject pkc.NodeID, pos, neg int) bool {
		rp, rn, ok := replica.Tally(subject)
		if !ok || rp != pos || rn != neg {
			t.Fatalf("subject %x: replica tally (%d,%d,%v), primary (%d,%d)", subject[:4], rp, rn, ok, pos, neg)
		}
		return true
	})
	if p, r := primary.SubjectCount(), replica.SubjectCount(); p != r {
		t.Fatalf("SubjectCount: primary %d, replica %d", p, r)
	}
}

// repair runs one anti-entropy round: import the primary's export for every
// shard whose digest disagrees. This is the pure-state half of the node's
// RDigest/RRepair exchange.
func repair(t *testing.T, primary, replica *Store) int {
	t.Helper()
	miss := digestsMismatch(primary.Digests(), replica.Digests())
	for _, i := range miss {
		if err := replica.ImportShard(i, primary.ExportShard(i)); err != nil {
			t.Fatalf("ImportShard(%d): %v", i, err)
		}
	}
	return len(miss)
}

// TestReplicatedBatchesReconstructReplica streams every committed batch from
// a WAL-backed primary into a replica and checks the replica is an exact
// copy — the steady-state replication path with nothing lost.
func TestReplicatedBatchesReconstructReplica(t *testing.T) {
	var mu sync.Mutex
	var batches [][]byte
	primary, err := Open(t.TempDir(), Options{
		NoSync:       true,
		CompactAfter: -1,
		OnCommit: func(b []byte) {
			mu.Lock()
			batches = append(batches, b)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 500; i++ {
		if err := primary.Append(Record{Reporter: nid(i % 7), Subject: nid(100 + i%31), Positive: i%3 != 0, Nonce: nnc(i)}); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if err := primary.Merge(nid(100+i%31), nid(200+i%5)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Replica is WAL-backed too: batches must group-commit through its own
	// log and survive a reopen.
	rdir := t.TempDir()
	replica, err := Open(rdir, Options{NoSync: true, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range batches {
		n, err := replica.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total < 500 {
		t.Fatalf("applied only %d ops", total)
	}
	assertConverged(t, primary, replica)
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(rdir, Options{NoSync: true, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	// Content — shard digests and tallies — must survive exactly.
	if miss := digestsMismatch(primary.Digests(), reopened.Digests()); miss != nil {
		t.Fatalf("digests differ after reopen at shards %v", miss)
	}
	if p, r := primary.ReportCount(), reopened.ReportCount(); p != r {
		t.Fatalf("ReportCount after reopen: %d, want %d", r, p)
	}
}

// TestMemoryStoreEmitsOnCommit checks the memory backend fires the tap with
// one parseable single-op batch per mutation.
func TestMemoryStoreEmitsOnCommit(t *testing.T) {
	var mu sync.Mutex
	var batches [][]byte
	s, err := Open("", Options{OnCommit: func(b []byte) {
		mu.Lock()
		batches = append(batches, b)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(Record{Reporter: nid(1), Subject: nid(2), Positive: true, Nonce: nnc(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(nid(2), nid(3)); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}
	replica, _ := Open("", Options{})
	defer replica.Close()
	for _, b := range batches {
		if _, err := replica.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	assertConverged(t, s, replica)
}

// TestApplyBatchRejectsCorrupt flips bytes in a valid batch and checks the
// replica refuses the whole thing without applying a prefix.
func TestApplyBatchRejectsCorrupt(t *testing.T) {
	var batch []byte
	s, _ := Open("", Options{OnCommit: func(b []byte) { batch = b }})
	defer s.Close()
	if err := s.Append(Record{Reporter: nid(1), Subject: nid(2), Positive: true, Nonce: nnc(1)}); err != nil {
		t.Fatal(err)
	}
	replica, _ := Open("", Options{})
	defer replica.Close()
	for flip := range batch {
		bad := append([]byte(nil), batch...)
		bad[flip] ^= 0x40
		if _, err := replica.ApplyBatch(bad); err == nil {
			// A flip inside the length field can still parse if it makes a
			// shorter valid prefix impossible — but CRC framing means any
			// accepted batch decoded identically, so acceptance of a flipped
			// batch is always a bug.
			t.Fatalf("corrupt batch (flip at %d) accepted", flip)
		}
	}
	if replica.ReportCount() != 0 {
		t.Fatalf("corrupt batches leaked %d reports", replica.ReportCount())
	}
	// Truncated tail: also rejected outright.
	if _, err := replica.ApplyBatch(batch[:len(batch)-3]); err == nil {
		t.Fatal("torn batch accepted")
	}
	if !errors.Is(mustErr(replica.ApplyBatch(batch[:len(batch)-3])), ErrCorruptRecord) {
		t.Fatal("torn batch error does not wrap ErrCorruptRecord")
	}
}

func mustErr(_ int, err error) error { return err }

// TestImportShardRejectsOverflowingTally: a u64 tally past the int range
// must be rejected as corrupt, on import and on snapshot load alike, not
// converted into a negative count.
func TestImportShardRejectsOverflowingTally(t *testing.T) {
	s, err := Open("", Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	subject := nid(1)
	body := binary.LittleEndian.AppendUint32(nil, 1)
	body = append(body, subject[:]...)
	body = binary.LittleEndian.AppendUint64(body, math.MaxUint64) // pos
	body = binary.LittleEndian.AppendUint64(body, math.MaxUint64) // neg
	body = binary.LittleEndian.AppendUint32(body, 0)              // reporters
	if err := s.ImportShard(int(s.shardIndex(subject)), body); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("import of a 2^64-1 tally: err = %v, want ErrCorruptRecord", err)
	}
	if n := s.ReportCount(); n != 0 {
		t.Fatalf("ReportCount = %d after a rejected import", n)
	}
	if err := s.decodeState(body); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("snapshot load of a 2^64-1 tally: err = %v, want ErrCorruptRecord", err)
	}
}

// TestImportShardRejectsMisrouted checks a shard export cannot be imported
// at the wrong index (subjects would become unreachable by shardFor).
func TestImportShardRejectsMisrouted(t *testing.T) {
	s, _ := Open("", Options{Shards: 4})
	defer s.Close()
	// Fill every shard so any cross-index import has subjects to reject.
	for i := 0; i < 64; i++ {
		if err := s.Append(Record{Reporter: nid(i), Subject: nid(500 + i), Positive: true, Nonce: nnc(i)}); err != nil {
			t.Fatal(err)
		}
	}
	src := -1
	for i := 0; i < s.ShardCount(); i++ {
		if len(s.shards[i].subjects) > 0 {
			src = i
			break
		}
	}
	if src < 0 {
		t.Fatal("no populated shard")
	}
	dst := (src + 1) % s.ShardCount()
	if err := s.ImportShard(dst, s.ExportShard(src)); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("misrouted import: err = %v, want ErrCorruptRecord", err)
	}
	if err := s.ImportShard(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("short export accepted")
	}
	if err := s.ImportShard(99, s.ExportShard(src)); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestAntiEntropyConvergesProperty is the acceptance property test: for
// random miss patterns — a replica that dropped an arbitrary subset of the
// primary's batches, up to all of them (cold standby) — one digest-compare +
// import round makes the replica exactly equal to the primary. Every few
// trials the replica is WAL-backed and must still be converged after a
// snapshot + reopen (imports are memory-only until snapshotted).
func TestAntiEntropyConvergesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	missProbs := []float64{0.05, 0.3, 0.7, 1.0}
	for trial := 0; trial < 24; trial++ {
		missProb := missProbs[trial%len(missProbs)]
		durable := trial%6 == 5

		var mu sync.Mutex
		var batches [][]byte
		primary, err := Open("", Options{Shards: 8, OnCommit: func(b []byte) {
			mu.Lock()
			batches = append(batches, b)
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
		nOps := 50 + rng.Intn(300)
		for i := 0; i < nOps; i++ {
			if rng.Intn(10) == 0 {
				// Merges exercise the two-shard path, including no-op
				// merges of subjects with no state.
				if err := primary.Merge(nid(100+rng.Intn(40)), nid(100+rng.Intn(40))); err != nil {
					t.Fatal(err)
				}
				continue
			}
			err := primary.Append(Record{
				Reporter: nid(rng.Intn(16)),
				Subject:  nid(100 + rng.Intn(40)),
				Positive: rng.Intn(3) != 0,
				Nonce:    nnc(trial*1000 + i),
			})
			if err != nil {
				t.Fatal(err)
			}
		}

		rdir := ""
		if durable {
			rdir = t.TempDir()
		}
		replica, err := Open(rdir, Options{Shards: 8, NoSync: true, CompactAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		missed := 0
		for _, b := range batches {
			if rng.Float64() < missProb {
				missed++
				continue
			}
			if _, err := replica.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		repaired := repair(t, primary, replica)
		assertConverged(t, primary, replica)
		if missed > 0 && repaired == 0 && primary.ReportCount() != replica.ReportCount() {
			t.Fatalf("trial %d: missed %d batches but nothing repaired", trial, missed)
		}
		// A second round must be a no-op: convergence is a fixed point.
		if again := repair(t, primary, replica); again != 0 {
			t.Fatalf("trial %d: repair not idempotent, %d shards differ after convergence", trial, again)
		}
		if durable {
			if err := replica.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := replica.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := Open(rdir, Options{Shards: 8, NoSync: true, CompactAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			// Digests carry no session state: the reopened replica must
			// still digest-match the primary, tally for tally.
			if miss := digestsMismatch(primary.Digests(), reopened.Digests()); miss != nil {
				t.Fatalf("trial %d reopen: digests differ at shards %v", trial, miss)
			}
			primary.Range(func(subject pkc.NodeID, pos, neg int) bool {
				rp, rn, ok := reopened.Tally(subject)
				if !ok || rp != pos || rn != neg {
					t.Fatalf("trial %d reopen: subject %x tally (%d,%d,%v), want (%d,%d)", trial, subject[:4], rp, rn, ok, pos, neg)
				}
				return true
			})
			if p, r := primary.ReportCount(), reopened.ReportCount(); p != r {
				t.Fatalf("trial %d reopen: ReportCount %d, want %d", trial, r, p)
			}
			reopened.Close()
		} else {
			replica.Close()
		}
		primary.Close()
	}
}

// TestSyncPointObservesExactlyShippedState checks the consistency contract
// anti-entropy rests on: inside SyncPoint, the store's state equals exactly
// the set of batches the OnCommit tap has delivered — no unshipped applied
// ops, no shipped unapplied ops — even with concurrent appenders.
func TestSyncPointObservesExactlyShippedState(t *testing.T) {
	var shipped atomic.Int64
	s, err := Open(t.TempDir(), Options{NoSync: true, CompactAfter: -1, OnCommit: func(b []byte) {
		ops, good := scanFrames(b)
		if good != len(b) {
			t.Error("tap received unparseable batch")
		}
		shipped.Add(int64(len(ops)))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Append(Record{Reporter: nid(w), Subject: nid(100 + i%13), Positive: true, Nonce: nnc(w*1_000_000 + i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for k := 0; k < 25; k++ {
		s.SyncPoint(func() {
			if got, want := int(shipped.Load()), s.ReportCount(); got != want {
				t.Errorf("sync point %d: shipped %d ops, store holds %d", k, got, want)
			}
		})
	}
	close(stop)
	wg.Wait()
}

// BenchmarkRepstoreIngestReplicated is the acceptance benchmark: concurrent
// Append throughput on a WAL-backed primary with the replication tap live
// and two replica targets — comparable against BenchmarkRepstoreIngest/wal
// (same store options, no tap) in BENCH_repstore.json. The shape mirrors
// internal/node's shipping loop: the tap hands each committed batch to a
// bounded per-target queue (HandoffCap-sized, so the in-flight window stays
// cache-resident like the live outbox ring does) drained by one sender
// goroutine per target. The network send and the replicas' ApplyBatch run
// off the primary's commit path — on other machines, live — so the senders
// here only frame-walk the batch to tally the ops shipped; a sender that
// falls behind exerts backpressure on ingest, as live. Apply-equivalence of
// shipped bytes is pinned separately by TestOnCommitTapMatchesSyncPoint and
// the node chaos failover test; the count check here pins that every
// committed op reached every target's queue.
func BenchmarkRepstoreIngestReplicated(b *testing.B) {
	const nReplicas = 2
	ships := make([]chan []byte, nReplicas)
	shipped := make([]atomic.Int64, nReplicas)
	done := make(chan struct{}, nReplicas)
	for i := range ships {
		ships[i] = make(chan []byte, 1024)
		go func(ship chan []byte, n *atomic.Int64) {
			defer func() { done <- struct{}{} }()
			for batch := range ship {
				ops := int64(0)
				for off := 0; off+frameHeaderSize <= len(batch); {
					off += frameHeaderSize + int(binary.LittleEndian.Uint32(batch[off:off+4]))
					ops++
				}
				n.Add(ops)
			}
		}(ships[i], &shipped[i])
	}
	s, err := Open(b.TempDir(), Options{NoSync: true, CompactAfter: -1, OnCommit: func(batch []byte) {
		for _, ship := range ships {
			ship <- batch
		}
	}})
	if err != nil {
		b.Fatal(err)
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if err := s.Append(benchRecord(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	s.Close()
	for _, ship := range ships {
		close(ship)
	}
	for range ships {
		<-done
	}
	for i := range shipped {
		if got, want := shipped[i].Load(), ctr.Load(); got != want {
			b.Fatalf("target %d saw %d ops ship, want %d", i, got, want)
		}
	}
}

// shardIndexOf exposes the routing function to tests in this package.
func shardIndexOf(s *Store, subject pkc.NodeID) uint64 { return s.shardIndex(subject) }

// TestDigestsExportUnderConcurrentAppend hammers the replication read
// surface — Digests, ExportShard, and ImportShard's decode path — while
// writers mutate the store, under the race detector. Anti-entropy calls
// exactly these on a live primary, so they must be safe against concurrent
// Append (and the digest CRC cache must not serve torn values).
func TestDigestsExportUnderConcurrentAppend(t *testing.T) {
	s, err := Open("", Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sink, err := Open("", Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Every exit path stops and joins the writers before the stores close: a
	// failing round must not leave them appending to a closed store.
	stopWriters := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopWriters()
	var seq atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(seq.Add(1))
				if err := s.Append(benchRecord(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		digs := s.Digests()
		if len(digs) != 8 {
			t.Fatalf("round %d: %d digests", round, len(digs))
		}
		shard := round % 8
		export := s.ExportShard(shard)
		if len(export) < 4 {
			t.Fatalf("round %d: short export", round)
		}
		// A concurrently-captured export must still parse and merge cleanly.
		if err := sink.ImportShard(shard, export); err != nil {
			t.Fatalf("round %d: import live export: %v", round, err)
		}
	}
	stopWriters()
	// Quiesced, the surfaces must agree with themselves: an export taken now
	// re-imports to an identical digest.
	for i := 0; i < 8; i++ {
		if err := sink.ImportShard(i, s.ExportShard(i)); err != nil {
			t.Fatal(err)
		}
	}
	if miss := digestsMismatch(s.Digests(), sink.Digests()); miss != nil {
		t.Fatalf("digests differ at %v after quiesced import", miss)
	}
}
