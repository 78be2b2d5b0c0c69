package repstore

import (
	"bytes"
	"slices"
	"testing"

	"hirep/internal/pkc"
)

// FuzzDecodeOp hardens the WAL record codec: arbitrary payloads must error
// or decode to a record whose canonical re-encoding is byte-identical —
// corrupt frames can never panic or silently misparse.
func FuzzDecodeOp(f *testing.F) {
	rep := Record{Reporter: pkc.NodeID{1, 2}, Subject: pkc.NodeID{3, 4}, Positive: true, Nonce: pkc.Nonce{5}}
	f.Add(encodeOp(nil, walOp{kind: kindReport, rec: rep}))
	f.Add(encodeOp(nil, walOp{kind: kindMerge, oldID: pkc.NodeID{9}, newID: pkc.NodeID{8}}))
	f.Add([]byte{})
	f.Add([]byte{kindReport})
	f.Add([]byte{kindMerge, 0, 0})
	f.Add([]byte{0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, err := decodeOp(payload)
		if err != nil {
			return
		}
		if re := encodeOp(nil, op); !bytes.Equal(re, payload) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", payload, re)
		}
	})
}

// FuzzScanFrames treats the input as a crashed WAL file: scanning must never
// panic, must only accept an intact frame prefix, and that prefix must
// re-encode to exactly the bytes consumed (no misparse, no over-read).
func FuzzScanFrames(f *testing.F) {
	rep := Record{Reporter: pkc.NodeID{7}, Subject: pkc.NodeID{11}, Positive: false, Nonce: pkc.Nonce{13}}
	good := appendFrame(nil, encodeOp(nil, walOp{kind: kindReport, rec: rep}))
	good = appendFrame(good, encodeOp(nil, walOp{kind: kindMerge, oldID: pkc.NodeID{1}, newID: pkc.NodeID{2}}))
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, goodLen := scanFrames(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0,%d]", goodLen, len(data))
		}
		var re []byte
		for _, op := range ops {
			re = appendFrame(re, encodeOp(nil, op))
		}
		if !bytes.Equal(re, data[:goodLen]) {
			t.Fatalf("accepted prefix does not round-trip:\n in  %x\n out %x", data[:goodLen], re)
		}
		// Scanning the accepted prefix again must be a fixed point.
		ops2, goodLen2 := scanFrames(data[:goodLen])
		if goodLen2 != goodLen || len(ops2) != len(ops) {
			t.Fatalf("rescan diverged: %d/%d ops, %d/%d bytes", len(ops2), len(ops), goodLen2, goodLen)
		}
	})
}

// FuzzImportShard hardens the anti-entropy import, the one decoder that takes
// a whole shard from the network: it must never panic; a rejected export
// must leave the store untouched; and an accepted one must hold no negative
// tally and re-export to a payload a fresh store imports to the same digest.
func FuzzImportShard(f *testing.F) {
	const shards = 4
	open := func(t testing.TB) *Store {
		s, err := Open("", Options{Shards: shards, EvidenceCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Seeds: every shard of a tallies-only store, then of one holding
	// evidence and a certified lineage link.
	src := open(f)
	defer src.Close()
	for i := 0; i < 24; i++ {
		r := evRecord(i, nid(600+i%6))
		r.SP, r.Wire = nil, nil
		if err := src.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	for i := 0; i < shards; i++ {
		f.Add(uint8(i), src.ExportShard(i))
	}
	for i := 0; i < 6; i++ {
		if err := src.Append(evRecord(100+i, nid(600+i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := src.MergeCertified(nid(605), nid(600), []byte("sp605"), []byte("wire605")); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		f.Add(uint8(i), src.ExportShard(i))
	}
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, shard uint8, data []byte) {
		i := int(shard % shards)
		s := open(t)
		defer s.Close()
		for k := 0; k < 8; k++ {
			if err := s.Append(evRecord(k, nid(700+k%4))); err != nil {
				t.Fatal(err)
			}
		}
		digests, count := s.Digests(), s.ReportCount()
		if err := s.ImportShard(i, data); err != nil {
			if !slices.Equal(s.Digests(), digests) || s.ReportCount() != count {
				t.Fatalf("rejected import (%v) changed the store", err)
			}
			return
		}
		s.Subjects(func(st SubjectStat) bool {
			if st.Pos < 0 || st.Neg < 0 {
				t.Fatalf("subject %x imported with tally %d/%d", st.Subject[:4], st.Pos, st.Neg)
			}
			return true
		})
		fresh := open(t)
		defer fresh.Close()
		if err := fresh.ImportShard(i, s.ExportShard(i)); err != nil {
			t.Fatalf("re-export does not import: %v", err)
		}
		if got, want := fresh.Digests()[i], s.Digests()[i]; got != want {
			t.Fatalf("re-imported digest %x, want %x", got.CRC, want.CRC)
		}
	})
}
