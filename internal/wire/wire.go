// Package wire defines the binary protocol sparsestore serves data
// over: length-prefixed frames carrying the store's serializable
// request types (store.QueryRequest, batches, regions, kernels) and
// their responses, plus a typed error model whose codes survive the
// round trip — errors.Is(err, sentinel) holds on both sides of the
// connection.
//
// Frame layout (all integers little-endian):
//
//	u32  payload length (excluding this 13-byte header)
//	u8   message type (Msg*), high bit = trace block present
//	u64  request id (echoed verbatim in the response)
//	...  optional 25-byte trace-context block (see below)
//	...  payload
//
// Requests and responses are matched by request id, so one connection
// can pipeline concurrent requests; the server answers in completion
// order. Every request payload begins with a u64 relative deadline in
// nanoseconds (0 = none) from which the server derives the request's
// context.
//
// # Trace context
//
// When the type byte's high bit (FlagTrace) is set, a fixed 25-byte
// block follows the header, before the payload:
//
//	u64  trace ID, high half
//	u64  trace ID, low half
//	u64  parent span ID (the sender's current span)
//	u8   flags (bit 0: sampled)
//
// The scheme is version-tolerant in both directions: a frame written
// without trace context is byte-identical to the pre-trace format, and
// a decoder that predates the block would reject the unknown type byte
// rather than misparse the payload. ReadFrame (the legacy entry point)
// understands and discards the block, so trace-carrying frames decode
// identically minus the context.
package wire

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sparseart/internal/buf"
	"sparseart/internal/obs"
	"sparseart/internal/store"
)

// Message types. Requests are < 0x40; responses have the high bits.
const (
	MsgQuery = uint8(0x01) // store.QueryRequest → Result + ReadReport
	// 0x02 was MsgReadPoints (now store.AlignPoints over a MsgQuery result): reserved, never reassign.
	// 0x03 was the one-fragment write (now a one-batch MsgWriteBatch): reserved, never reassign.
	MsgWriteBatch = uint8(0x04) // batches + workers → []WriteReport
	MsgDelete     = uint8(0x05) // region → WriteReport
	MsgKernel     = uint8(0x06) // store.KernelRequest → KernelResult
	MsgInfo       = uint8(0x07) // → Info
	MsgObs        = uint8(0x08) // → obs snapshot JSON
	MsgPing       = uint8(0x09) // → empty OK

	MsgOK  = uint8(0x40) // success; payload is the op's response body
	MsgErr = uint8(0x41) // failure; payload is an encoded Error
)

// MaxFrame bounds one frame's payload; a peer announcing more is
// corrupt (or hostile) and the connection is dropped.
const MaxFrame = 1 << 30

// eagerFrame is the largest payload ReadFrameTrace allocates for on
// the header's word alone.
const eagerFrame = 1 << 20

// frameHeaderLen is the fixed frame header size.
const frameHeaderLen = 4 + 1 + 8

// FlagTrace on the type byte marks a frame carrying a trace-context
// block between the header and the payload. Message types stay below
// 0x80, so the bit is unambiguous.
const FlagTrace = uint8(0x80)

// traceBlockLen is the fixed trace-context block size.
const traceBlockLen = 8 + 8 + 8 + 1

// traceFlagSampled marks a sampled trace in the block's flags byte.
const traceFlagSampled = uint8(0x01)

// WriteFrame writes one frame with no trace context. Callers serialize
// concurrent writers.
func WriteFrame(w io.Writer, typ uint8, id uint64, payload []byte) error {
	return WriteFrameTrace(w, typ, id, obs.TraceContext{}, payload)
}

// WriteFrameTrace writes one frame, attaching tc as a trace-context
// block when it names a trace. A zero tc produces a frame
// byte-identical to the pre-trace format.
func WriteFrameTrace(w io.Writer, typ uint8, id uint64, tc obs.TraceContext, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit", len(payload))
	}
	if typ&FlagTrace != 0 {
		return fmt.Errorf("wire: message type %#x collides with the trace flag", typ)
	}
	traced := tc.Valid()
	n := frameHeaderLen
	if traced {
		n += traceBlockLen
		typ |= FlagTrace
	}
	hdr := buf.NewWriter(n)
	hdr.U32(uint32(len(payload)))
	hdr.U8(typ)
	hdr.U64(id)
	if traced {
		hdr.U64(tc.Hi)
		hdr.U64(tc.Lo)
		hdr.U64(tc.Span)
		var flags uint8
		if tc.Sampled {
			flags |= traceFlagSampled
		}
		hdr.U8(flags)
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, allocating the payload. A trace-context
// block, if present, is consumed and discarded; use ReadFrameTrace to
// keep it.
func ReadFrame(r io.Reader) (typ uint8, id uint64, payload []byte, err error) {
	typ, id, _, payload, err = ReadFrameTrace(r)
	return typ, id, payload, err
}

// ReadFrameTrace reads one frame along with its trace context. Frames
// without a trace block (the pre-trace format) return a zero context.
// The returned type has FlagTrace stripped.
func ReadFrameTrace(r io.Reader) (typ uint8, id uint64, tc obs.TraceContext, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, obs.TraceContext{}, nil, err
	}
	br := buf.NewReader(hdr[:])
	n := br.U32()
	typ = br.U8()
	id = br.U64()
	if n > MaxFrame {
		return 0, 0, obs.TraceContext{}, nil, fmt.Errorf("wire: frame payload %d exceeds limit", n)
	}
	if typ&FlagTrace != 0 {
		typ &^= FlagTrace
		var blk [traceBlockLen]byte
		if _, err = io.ReadFull(r, blk[:]); err != nil {
			return 0, 0, obs.TraceContext{}, nil, err
		}
		tr := buf.NewReader(blk[:])
		tc.Hi = tr.U64()
		tc.Lo = tr.U64()
		tc.Span = tr.U64()
		tc.Sampled = tr.U8()&traceFlagSampled != 0
	}
	// Allocation tracks bytes received, not bytes announced: up to
	// eagerFrame the payload is one exact allocation, past that the
	// buffer doubles (never beyond n) each time the peer has filled it,
	// so a header claiming a gigabyte costs nothing until the bytes come.
	payload = make([]byte, min(n, eagerFrame))
	for got := 0; ; {
		if _, err = io.ReadFull(r, payload[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised a payload
			}
			return 0, 0, obs.TraceContext{}, nil, err
		}
		if got = len(payload); got == int(n) {
			return typ, id, tc, payload, nil
		}
		payload = append(payload, make([]byte, min(got, int(n)-got))...)
	}
}

// Code is a wire-stable error code. Codes never change meaning across
// versions; new ones append.
type Code uint16

const (
	// CodeUnknown carries errors with no specific code; only the
	// message survives.
	CodeUnknown Code = iota
	// CodeBadRequest maps store.ErrBadRequest.
	CodeBadRequest
	// CodeShapeMismatch maps store.ErrShapeMismatch.
	CodeShapeMismatch
	// CodeOverloaded maps ErrOverloaded.
	CodeOverloaded
	// CodeShardUnavailable maps ErrShardUnavailable.
	CodeShardUnavailable
	// CodeDeadlineExceeded maps context.DeadlineExceeded.
	CodeDeadlineExceeded
	// CodeCanceled maps context.Canceled.
	CodeCanceled
)

// Typed sentinels for the serving layer's own failure modes; the
// request-shape sentinels live in internal/store (the layer that
// validates requests).
var (
	// ErrOverloaded rejects a request because the server's bounded
	// in-flight window is full — back-pressure, not failure: the
	// client may retry after backing off.
	ErrOverloaded = errors.New("server overloaded")

	// ErrShardUnavailable marks a router request that could not reach
	// the shard owning the data.
	ErrShardUnavailable = errors.New("shard unavailable")
)

// codeSentinels orders the errors.Is probes for CodeOf. Context errors
// come first: a canceled request wrapped in a store error should
// surface as cancellation.
var codeSentinels = []struct {
	code Code
	err  error
}{
	{CodeDeadlineExceeded, context.DeadlineExceeded},
	{CodeCanceled, context.Canceled},
	{CodeOverloaded, ErrOverloaded},
	{CodeShardUnavailable, ErrShardUnavailable},
	{CodeBadRequest, store.ErrBadRequest},
	{CodeShapeMismatch, store.ErrShapeMismatch},
}

// CodeOf classifies an error for transport.
func CodeOf(err error) Code {
	for _, cs := range codeSentinels {
		if errors.Is(err, cs.err) {
			return cs.code
		}
	}
	return CodeUnknown
}

// sentinelFor inverts CodeOf.
func sentinelFor(code Code) error {
	for _, cs := range codeSentinels {
		if cs.code == code {
			return cs.err
		}
	}
	return nil
}

// Error is the decoded form of a remote failure: the original message
// verbatim plus the code, satisfying errors.Is for the code's
// sentinel. The round trip is lossless — Error() returns exactly the
// server-side err.Error(), and the errors.Is behavior for the typed
// sentinels is preserved.
type Error struct {
	Code Code
	Msg  string
}

// Error returns the remote error's original message.
func (e *Error) Error() string { return e.Msg }

// Is matches the sentinel the code maps to, so client code can use
// errors.Is(err, store.ErrBadRequest), errors.Is(err,
// context.DeadlineExceeded), etc. on decoded remote errors.
func (e *Error) Is(target error) bool {
	s := sentinelFor(e.Code)
	return s != nil && target == s
}

// EncodeError serializes err as a MsgErr payload.
func EncodeError(err error) []byte {
	w := buf.NewWriter(2 + len(err.Error()))
	w.U16(uint16(CodeOf(err)))
	w.Bytes32([]byte(err.Error()))
	return w.Bytes()
}

// DecodeError parses a MsgErr payload back into an *Error.
func DecodeError(payload []byte) error {
	r := buf.NewReader(payload)
	code := Code(r.U16())
	msg := string(r.Bytes32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: bad error payload: %w", err)
	}
	return &Error{Code: code, Msg: msg}
}
