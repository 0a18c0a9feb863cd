// Package wire implements the queue service's one data transport: a
// length-prefixed framing protocol plus a pipelined connection-pool
// client (Client) and a listener-side server (Server), both speaking
// queue.API. A node advertises its listener over HTTP at GET /wire
// (Advertise), and DiscoverAddr reads that advertisement.
//
// # Frame layout
//
// Every frame — request or response — is one uvarint length prefix
// followed by that many body bytes:
//
//	uvarint(len(body)) || body
//	body = op(1) || uvarint(correlation id) || str(queue) || str(trace) || payload
//	str  = uvarint(len) || bytes
//
// The correlation id pairs a response with its request so responses may
// return out of order (pipelining); the trace string carries the
// request's trace ID from hop to hop. The payload
// is op-specific (see protocol.go). Response frames echo the request's
// op and correlation id and carry a status byte first: 0 for success,
// otherwise an error code that maps back to the queue package's
// sentinel errors, followed by the error message. One cap, maxFrame,
// bounds a frame body on every reader.
//
// # Pipelining model
//
// A connection carries many requests concurrently: the client assigns
// each call a fresh correlation id, one writer goroutine coalesces
// frames into large writes, and one reader goroutine demultiplexes
// responses to waiting callers by id. Long polls therefore do not
// head-of-line block unrelated traffic on the same connection. The
// server mirrors the pair — one reader handing each request to an idle
// handler of the connection's pool (starting another only when none is
// idle, up to maxConcurrent), one writer serializing responses — so a
// slow receive never stalls the pipe, and handlers live as long as the
// connection rather than one request. A call waits
// requestTimeout for its response, plus whatever long-poll wait the
// request itself asked for.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/codec"
)

// Request opcodes. A response frame reuses the opcode of the request it
// answers.
const (
	OpCreateQueue byte = iota + 1
	OpDeleteQueue
	OpListQueues
	OpSend
	OpSendBatch
	OpReceive
	OpDelete
	OpDeleteBatch
	OpChangeVisibility
	OpCount
	OpPurge
	OpRequests
	OpRequestsFor
	OpTransfer
	opMax // one past the last valid opcode
)

// opNames label per-op telemetry series and error messages.
var opNames = map[byte]string{
	OpCreateQueue:      "create_queue",
	OpDeleteQueue:      "delete_queue",
	OpListQueues:       "list_queues",
	OpSend:             "send",
	OpSendBatch:        "send_batch",
	OpReceive:          "receive",
	OpDelete:           "delete",
	OpDeleteBatch:      "delete_batch",
	OpChangeVisibility: "change_visibility",
	OpCount:            "count",
	OpPurge:            "purge",
	OpRequests:         "requests",
	OpRequestsFor:      "requests_for",
	OpTransfer:         "transfer",
}

// maxFrame caps one frame's body, on every reader: client, server and
// DecodeFrame. Queue bodies are task descriptors, not blobs, so 16 MiB
// leaves two orders of magnitude of headroom while bounding what a
// corrupt or hostile peer can make the reader allocate.
const maxFrame = 16 << 20

// Framing errors. ErrShortFrame reports a frame that declares more
// bytes than are present — for a stream reader that simply means "read
// more", for DecodeFrame on a finite buffer it is corruption.
var (
	ErrShortFrame   = errors.New("wire: truncated frame")
	ErrFrameTooBig  = fmt.Errorf("wire: frame exceeds %d bytes", maxFrame)
	ErrCorruptFrame = errors.New("wire: corrupt frame")
)

// Frame is one decoded protocol frame.
type Frame struct {
	Op      byte
	CorrID  uint64
	Queue   string
	Trace   string
	Payload []byte
}

// AppendFrame appends f's wire encoding (length prefix included) to dst
// and returns the extended slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	// Body is assembled after a reserved gap for the length prefix so
	// encoding stays single-pass: write a maximal-width prefix, encode,
	// then re-encode the true length over the gap... varints are not
	// fixed width, so instead encode the body into the scratch region
	// past len(dst) and prefix it explicitly.
	body := encodeBody(nil, f)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

func encodeBody(dst []byte, f *Frame) []byte {
	e := codec.Enc{B: dst}
	e.Byte(f.Op)
	e.U64(f.CorrID)
	e.Str(f.Queue)
	e.Str(f.Trace)
	e.B = append(e.B, f.Payload...)
	return e.B
}

// EncodeFrame returns f's full wire encoding.
func EncodeFrame(f Frame) []byte { return AppendFrame(nil, &f) }

// DecodeFrame decodes one frame from the front of data, returning the
// frame and the number of bytes consumed. Queue and Trace are copied
// out; Payload aliases data and is only valid while data is. Truncated,
// oversized, or garbage input returns an error without panicking and
// without reading past len(data).
func DecodeFrame(data []byte) (Frame, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return Frame{}, 0, ErrShortFrame
	}
	if n > maxFrame {
		return Frame{}, 0, ErrFrameTooBig
	}
	if uint64(len(data)-used) < n {
		return Frame{}, 0, ErrShortFrame
	}
	f, err := parseBody(data[used : used+int(n)])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, used + int(n), nil
}

// parseBody decodes a frame body (everything after the length prefix).
func parseBody(body []byte) (Frame, error) {
	d := codec.Dec{B: body}
	f := Frame{Op: d.Byte(), CorrID: d.U64()}
	f.Queue = d.Str()
	f.Trace = d.Str()
	f.Payload = d.Rest()
	if d.Err != nil {
		return Frame{}, ErrCorruptFrame
	}
	if f.Op == 0 || f.Op >= opMax {
		return Frame{}, fmt.Errorf("%w: unknown op %d", ErrCorruptFrame, f.Op)
	}
	return f, nil
}
