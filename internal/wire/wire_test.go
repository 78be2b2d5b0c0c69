package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, TOnion, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != TOnion || !bytes.Equal(got, p) {
			t.Fatalf("frame corrupted: %v %q != %q", typ, got, p)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TOnion, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
	// A forged oversized header must be rejected before allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(TOnion)}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read: %v", err)
	}
}

func TestFrameZeroLengthRejected(t *testing.T) {
	hdr := []byte{0, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("zero-length frame accepted (no type byte)")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, TReport, []byte("full payload"))
	data := buf.Bytes()
	for _, n := range []int{0, 3, 5, 8} {
		if _, _, err := ReadFrame(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", n)
		}
	}
}

func TestFrameOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			done <- err
			return
		}
		done <- WriteFrame(conn, typ, payload)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := []byte("echo me")
	if err := WriteFrame(conn, TTrustReq, want); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TTrustReq || !bytes.Equal(got, want) {
		t.Fatalf("echo mismatch: %v %q", typ, got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.Bytes([]byte("hello")).String("world").U64(12345678901234).Bool(true).Bool(false)
	d := NewDecoder(e.Encode())
	if got := d.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("bytes %q", got)
	}
	if got := d.String(); got != "world" {
		t.Fatalf("string %q", got)
	}
	if got := d.U64(); got != 12345678901234 {
		t.Fatalf("u64 %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools wrong")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderTruncation(t *testing.T) {
	var e Encoder
	e.String("field").U64(7)
	full := e.Encode()
	for n := 0; n < len(full); n++ {
		d := NewDecoder(full[:n])
		d.Bytes()
		d.U64()
		if d.Finish() == nil {
			t.Fatalf("truncation at %d undetected", n)
		}
	}
}

func TestDecoderTrailingData(t *testing.T) {
	var e Encoder
	e.U64(1)
	d := NewDecoder(append(e.Encode(), 0xFF))
	d.U64()
	if err := d.Finish(); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("trailing byte outcome: %v", err)
	}
}

func TestDecoderErrorSticks(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	d.U64() // fails
	if d.Err() == nil {
		t.Fatal("error not recorded")
	}
	// Subsequent reads return zero values, not panics.
	if d.Bytes() != nil || d.U64() != 0 || d.Bool() || d.String() != "" {
		t.Fatal("post-error reads not zeroed")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(a []byte, s string, v uint64, b bool) bool {
		var e Encoder
		e.Bytes(a).String(s).U64(v).Bool(b)
		d := NewDecoder(e.Encode())
		ga := d.Bytes()
		gs := d.String()
		gv := d.U64()
		gb := d.Bool()
		return d.Finish() == nil && bytes.Equal(ga, a) && gs == s && gv == v && gb == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, typ := range []MsgType{TRelayRequest, TRelayResponse, TKeyVerify, TKeyConfirm, TOnion, TTrustReq, TReply, TReport} {
		if typ.String() == "" {
			t.Fatalf("type %d has empty string", typ)
		}
	}
	if MsgType(200).String() == "" {
		t.Fatal("unknown type renders empty")
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) && err == nil {
		t.Fatal("EOF not surfaced")
	}
}
