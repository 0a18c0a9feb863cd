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

// maxFrame caps one frame's body on every reader (readFrameBody, which
// client and server share). Queue bodies are task descriptors, not
// blobs, so 16 MiB leaves two orders of magnitude of headroom while
// bounding what a corrupt or hostile peer can make the reader allocate.
const maxFrame = 16 << 20

// Framing errors. A stream that ends inside a frame reads as
// io.ErrUnexpectedEOF.
var (
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
