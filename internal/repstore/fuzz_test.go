package repstore

import (
	"bytes"
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
