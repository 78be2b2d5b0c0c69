package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hardens the framing layer against hostile byte streams: it
// must never panic or over-allocate, and everything it accepts must
// round-trip.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, TOnion, []byte("payload"))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 1, 5, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("accepted frame cannot be rewritten: %v", err)
		}
		typ2, payload2, err := ReadFrame(&buf)
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip broke: %v", err)
		}
	})
}

// FuzzSessionFrames hardens the stream-framed session decoder against
// hostile byte streams — torn frames, oversized length prefixes, and
// interleaved valid/invalid frames. Every frame accepted before the first
// error must round-trip exactly, and the reader must never panic or
// over-allocate.
func FuzzSessionFrames(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteStreamFrame(&seed, TTrustReq, 1, []byte("first"))
	_ = WriteStreamFrame(&seed, TReply, 2, []byte("second, interleaved"))
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-4]) // torn tail
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 5, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 3, 5, 0, 0}) // length too small for a stream id
	f.Add(EncodeHello(Hello{Version: SessionVersion, MaxStreams: 64}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, stream, payload, err := ReadStreamFrame(r)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := WriteStreamFrame(&buf, typ, stream, payload); err != nil {
				t.Fatalf("accepted frame cannot be rewritten: %v", err)
			}
			typ2, stream2, payload2, err := ReadStreamFrame(&buf)
			if err != nil || typ2 != typ || stream2 != stream || !bytes.Equal(payload2, payload) {
				t.Fatalf("stream frame round trip broke: %v", err)
			}
		}
	})
}

// FuzzDecoder hardens the field codec: arbitrary bytes must decode without
// panic, and the sticky error must fire before any out-of-bounds access.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.Bytes([]byte("ab")).String("cd").U64(7).Bool(true)
	f.Add(e.Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.Bytes()
		_ = d.String()
		_ = d.U64()
		_ = d.Bool()
		_ = d.Finish()
	})
}
