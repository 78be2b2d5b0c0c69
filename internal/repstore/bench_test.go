package repstore

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"

	"hirep/internal/pkc"
)

// benchRecord makes ingest benchmarks cheap to vary: reporter and subject
// cycle through small deterministic pools so shard and map behaviour is
// realistic without per-iteration hashing in the loop.
func benchRecord(i int) Record {
	return Record{
		Reporter: nid(i & 63),
		Subject:  nid(1000 + i&1023),
		Positive: i&3 != 0,
		Nonce:    nnc(i),
	}
}

// BenchmarkRepstoreIngest measures concurrent Append throughput: the memory
// backend (simulator path), the WAL without fsync (OS-crash durability), and
// the full fsync group-commit path.
func BenchmarkRepstoreIngest(b *testing.B) {
	run := func(b *testing.B, dir string, opts Options) {
		s, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
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
	}
	b.Run("mem", func(b *testing.B) {
		run(b, "", Options{})
	})
	b.Run("wal", func(b *testing.B) {
		run(b, b.TempDir(), Options{NoSync: true, CompactAfter: -1})
	})
	b.Run("wal-fsync", func(b *testing.B) {
		run(b, b.TempDir(), Options{CompactAfter: -1})
	})
}

// benchEvidenceRecord is benchRecord carrying evidence bytes of realistic
// size — a 32-byte Ed25519 key and a 101-byte signed report wire. Both sides
// of the evidence A/B benchmark ingest identical records; EvidenceCap alone
// decides whether the wires are retained.
func benchEvidenceRecord(i int, sp, wire []byte) Record {
	r := benchRecord(i)
	r.SP, r.Wire = sp, wire
	return r
}

// BenchmarkRepstoreIngestEvidence is the §14 retention-overhead gate pair:
// identical fsync group-commit ingest (the configuration a durable agent
// actually runs) with the evidence log off versus on. verify.sh holds the
// on/off ratio down: against real commit latency, retaining the ~133 extra
// evidence bytes per record must stay a small constant tax. The NoSync pair
// would not pass such a gate — with fsync removed, ingest is pure memcpy and
// retention's 3x byte volume shows at full scale — which is why the gate is
// defined over the durable path.
func BenchmarkRepstoreIngestEvidence(b *testing.B) {
	sp := make([]byte, 32)
	wire := make([]byte, 101)
	for i := range wire {
		wire[i] = byte(i)
	}
	run := func(b *testing.B, opts Options) {
		s, err := Open(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var ctr atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				if err := s.Append(benchEvidenceRecord(i, sp, wire)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("off", func(b *testing.B) {
		run(b, Options{CompactAfter: -1})
	})
	b.Run("on", func(b *testing.B) {
		run(b, Options{CompactAfter: -1, EvidenceCap: 256})
	})
}

// BenchmarkRepstoreQuery measures concurrent TrustValue reads against a
// store preloaded with 64k reports over 1k subjects.
func BenchmarkRepstoreQuery(b *testing.B) {
	s, err := Open("", Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 1<<16; i++ {
		if err := s.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if _, ok := s.TrustValue(nid(1000 + i&1023)); !ok {
				b.Fatal("missing subject")
			}
		}
	})
}

// BenchmarkRepstoreEvidenceRetained measures what the evidence log keeps
// alive per retained report: 4,096 subjects, each sent 80 reports (past the
// cap of 64) by 2 reporters with 32-byte keys and 101-byte signed wires, the
// shape of a durable agent under steady ingest. It reports the live heap the
// filled store holds, divided by the 4,096 × 64 records it retains, as
// B/record; verify.sh gates it.
func BenchmarkRepstoreEvidenceRetained(b *testing.B) {
	const subjects, evCap, perSubject = 4096, 64, 80
	reporters := [2]pkc.NodeID{nid(1), nid(2)}
	sps := [2][]byte{make([]byte, 32), make([]byte, 32)}
	sps[0][0], sps[1][0] = 1, 2
	wire := make([]byte, 101)
	var perRecord float64
	for n := 0; n < b.N; n++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := Open("", Options{EvidenceCap: evCap})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < subjects*perSubject; i++ {
			k := i / subjects % 2
			binary.LittleEndian.PutUint64(wire, uint64(i))
			r := Record{Reporter: reporters[k], Subject: nid(100000 + i%subjects), Positive: i%3 != 0,
				Nonce: nnc(i), SP: sps[k], Wire: wire}
			if err := s.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perRecord = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (subjects * evCap)
		runtime.KeepAlive(s)
	}
	b.ReportMetric(perRecord, "B/record")
}
