package wire

import (
	"bytes"
	"strings"
	"testing"
)

func TestStreamFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		typ     MsgType
		stream  uint32
		payload string
	}{
		{TPing, 0, ""},
		{TOnion, 1, "onion bytes"},
		{TReply, 0xFFFFFFFF, "max stream id"},
		{TPong, 7, strings.Repeat("x", 4096)},
	}
	for _, f := range frames {
		if err := WriteStreamFrame(&buf, f.typ, f.stream, []byte(f.payload)); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range frames {
		typ, stream, payload, err := ReadStreamFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != f.typ || stream != f.stream || string(payload) != f.payload {
			t.Fatalf("frame %d: got (%v, %d, %q)", i, typ, stream, payload)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes", buf.Len())
	}
}

func TestStreamFrameTornAndOversized(t *testing.T) {
	// Torn mid-body: must error, not block or panic.
	var buf bytes.Buffer
	if err := WriteStreamFrame(&buf, TPing, 3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	if _, _, _, err := ReadStreamFrame(bytes.NewReader(torn)); err == nil {
		t.Fatal("torn frame accepted")
	}
	// Oversized length prefix: rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(TPing), 0, 0, 0, 1}
	if _, _, _, err := ReadStreamFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Length too small to hold a stream id.
	small := []byte{0, 0, 0, 3, byte(TPing), 0, 0}
	if _, _, _, err := ReadStreamFrame(bytes.NewReader(small)); err == nil {
		t.Fatal("undersized frame accepted")
	}
	// Writer refuses payloads that would exceed MaxFrame.
	if err := WriteStreamFrame(&buf, TPing, 0, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestAppendStreamFrameReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	out, err := AppendStreamFrame(buf, TPong, 9, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("append did not reuse the buffer")
	}
	typ, stream, payload, err := ReadStreamFrame(bytes.NewReader(out))
	if err != nil || typ != TPong || stream != 9 || string(payload) != "abc" {
		t.Fatalf("got (%v, %d, %q, %v)", typ, stream, payload, err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Version: SessionVersion, MaxStreams: 128}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v, want %+v", got, h)
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXX\x01\x00\x00\x00\x10"), // wrong magic
		[]byte{'H', 'R', 'T', 'P', 0, 0, 0, 0, 16},   // version 0
		append(EncodeHello(Hello{Version: 1}), 0xAA), // trailing byte
	}
	for i, c := range cases {
		if _, err := DecodeHello(c); err == nil {
			t.Fatalf("case %d: garbage hello accepted", i)
		}
	}
}
