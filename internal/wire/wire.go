// Package wire is the framing and field codec of the live hiREP node
// prototype (the paper's future-work deployment target): length-prefixed
// frames over TCP, with a minimal deterministic field encoding.
//
// Frame layout:
//
//	u32 big-endian payload length | u8 message type | payload
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MsgType tags a frame's payload.
type MsgType byte

// Frame types of the hiREP node protocol.
const (
	// Relay anonymity-key handshake (Figure 3).
	TRelayRequest MsgType = 1 + iota
	TRelayResponse
	TKeyVerify
	TKeyConfirm
	// TOnion carries an onion blob plus an opaque end-to-end payload.
	TOnion
	// Inner payload types carried through onions. TTrustReq, TReportBatch
	// and TProofReq are the requests of the one sealed exchange
	// (DESIGN.md §5.1); TReply is the answer to all of them, matched to its
	// request by nonce. TReport is the unacknowledged single report.
	TTrustReq
	TReply
	TReport
	// TKeyUpdate announces a §3.5 key rotation to an agent.
	TKeyUpdate
	// TAgentListReq / TAgentListResp carry the live agent-discovery walk
	// (the §3.4.1 trusted-agent list request over real links).
	TAgentListReq
	TAgentListResp
	// TPing / TPong probe a node's liveness (the §3.4.3 backup-agent probe).
	TPing
	TPong
	// THello / THelloAck negotiate a stream-multiplexed transport session on
	// a fresh connection (DESIGN.md §9). Both travel as plain frames: the
	// server tells a session from a one-shot exchange by its first frame.
	THello
	THelloAck
	// TReportBatch carries the batched, acknowledged report-ingest pipeline
	// (DESIGN.md §11): many signed transaction reports in one request,
	// answered by a per-report status — unlike the fire-and-forget
	// TReport, rejected reports are visible to the sender instead of
	// vanishing.
	TReportBatch
	// TProofReq asks an agent for a subject's reputation as evidence rather
	// than as a bare tally (DESIGN.md §14); the reply carries a
	// self-verifying proof bundle or a compact signed trust snapshot.
	TProofReq
)

// NumMsgTypes is one past the highest assigned MsgType, for per-type
// counter arrays.
const NumMsgTypes = int(TProofReq) + 1

func (t MsgType) String() string {
	switch t {
	case TRelayRequest:
		return "relay-request"
	case TRelayResponse:
		return "relay-response"
	case TKeyVerify:
		return "key-verify"
	case TKeyConfirm:
		return "key-confirm"
	case TOnion:
		return "onion"
	case TTrustReq:
		return "trust-req"
	case TReply:
		return "reply"
	case TReport:
		return "report"
	case TKeyUpdate:
		return "key-update"
	case TAgentListReq:
		return "agent-list-req"
	case TAgentListResp:
		return "agent-list-resp"
	case TPing:
		return "ping"
	case TPong:
		return "pong"
	case THello:
		return "hello"
	case THelloAck:
		return "hello-ack"
	case TReportBatch:
		return "report-batch"
	case TProofReq:
		return "proof-req"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// MaxFrame bounds accepted frame sizes; onions over ~30 hops stay far below.
const MaxFrame = 1 << 20

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrShortField    = errors.New("wire: truncated field")
	ErrTrailingData  = errors.New("wire: trailing bytes after last field")
)

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: write payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: read payload: %w", err)
	}
	return MsgType(hdr[4]), payload, nil
}

// Encoder appends length-delimited fields to a buffer.
type Encoder struct{ buf []byte }

// Bytes appends a u32-length-prefixed byte field.
func (e *Encoder) Bytes(b []byte) *Encoder {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	e.buf = append(e.buf, l[:]...)
	e.buf = append(e.buf, b...)
	return e
}

// String appends a string field.
func (e *Encoder) String(s string) *Encoder { return e.Bytes([]byte(s)) }

// U64 appends a fixed 8-byte unsigned integer.
func (e *Encoder) U64(v uint64) *Encoder {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// Bool appends one byte.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	return e
}

// Encode returns the accumulated buffer.
func (e *Encoder) Encode() []byte { return e.buf }

// Decoder consumes fields written by Encoder. The first error sticks; check
// Err after reading all fields.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Bytes reads a length-prefixed byte field.
func (d *Decoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < 4 {
		d.err = ErrShortField
		return nil
	}
	n := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	if uint32(len(d.buf)) < n {
		d.err = ErrShortField
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// String reads a string field.
func (d *Decoder) String() string { return string(d.Bytes()) }

// U64 reads a fixed 8-byte unsigned integer.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = ErrShortField
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Bool reads one byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < 1 {
		d.err = ErrShortField
		return false
	}
	v := d.buf[0] != 0
	d.buf = d.buf[1:]
	return v
}

// Err returns the first decode error, or ErrTrailingData if bytes remain
// after Finish was called.
func (d *Decoder) Err() error { return d.err }

// Finish asserts the payload was fully consumed.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		d.err = ErrTrailingData
	}
	return d.err
}
