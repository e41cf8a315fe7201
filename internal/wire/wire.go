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
// # Pooled framing
//
// The serving path moves a frame without garbage. A sender takes a
// NewFrame buffer, appends the payload with the message's AppendTo (or
// an Append function), and SendFrame writes header and payload in one
// call and returns the buffer to the pool. A receiver reads through a
// FrameReader, which buffers the connection (a small frame is one read
// call) and lands each payload in a pooled buffer that the receiver
// releases once it has decoded it. WriteFrame, ReadFrame and the Encode
// forms frame and encode the same bytes into memory of their own.
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
	"bufio"
	"context"
	"encoding/binary"
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

// maxHeaderLen is a frame header followed by its trace block: the
// room NewFrame reserves ahead of the payload.
const maxHeaderLen = frameHeaderLen + traceBlockLen

// NewFrame returns a pooled buffer for one outgoing frame: room for the
// largest header is reserved at its front, with capacity for about
// payloadHint bytes of payload after it. Encoders append the payload
// (the messages' AppendTo methods and the Append functions), then
// SendFrame fills in the header, writes the frame and recycles the
// buffer: one buffer, one Write call, and in steady state no
// allocation per frame.
func NewFrame(payloadHint int) *buf.Writer {
	f := buf.GetWriter(maxHeaderLen + payloadHint)
	f.Extend(maxHeaderLen)
	return f
}

// SendFrame completes a frame built by NewFrame — its header, and the
// trace block when tc names a trace (a zero tc produces a frame
// byte-identical to the pre-trace format) — writes it to w in one
// call, and recycles f, which the caller must not touch again. Callers
// serialize concurrent writers.
func SendFrame(w io.Writer, f *buf.Writer, typ uint8, id uint64, tc obs.TraceContext) error {
	defer buf.PutWriter(f)
	b := f.Bytes()
	n := len(b) - maxHeaderLen
	if n > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit", n)
	}
	if typ&FlagTrace != 0 {
		return fmt.Errorf("wire: message type %#x collides with the trace flag", typ)
	}
	off := traceBlockLen // an untraced header sits right before the payload
	if tc.Valid() {
		off, typ = 0, typ|FlagTrace
		blk := b[frameHeaderLen:maxHeaderLen]
		binary.LittleEndian.PutUint64(blk, tc.Hi)
		binary.LittleEndian.PutUint64(blk[8:], tc.Lo)
		binary.LittleEndian.PutUint64(blk[16:], tc.Span)
		blk[24] = 0
		if tc.Sampled {
			blk[24] = traceFlagSampled
		}
	}
	hdr := b[off:]
	binary.LittleEndian.PutUint32(hdr, uint32(n))
	hdr[4] = typ
	binary.LittleEndian.PutUint64(hdr[5:], id)
	_, err := w.Write(hdr)
	return err
}

// WriteFrame writes one frame with no trace context. Callers serialize
// concurrent writers.
func WriteFrame(w io.Writer, typ uint8, id uint64, payload []byte) error {
	return WriteFrameTrace(w, typ, id, obs.TraceContext{}, payload)
}

// WriteFrameTrace writes one frame around an encoded payload, attaching
// tc as a trace-context block when it names a trace. It copies payload
// into a NewFrame buffer; a caller that encodes can append to one
// directly instead.
func WriteFrameTrace(w io.Writer, typ uint8, id uint64, tc obs.TraceContext, payload []byte) error {
	f := NewFrame(len(payload))
	f.Raw(payload)
	return SendFrame(w, f, typ, id, tc)
}

// Frame is one received frame. A FrameReader's payload lives in a
// pooled buffer that belongs to the receiver until Release; the
// decoders copy whatever they keep, so a decoded message never aliases
// it.
type Frame struct {
	Type    uint8 // FlagTrace stripped
	ID      uint64
	Trace   obs.TraceContext // zero for a frame without a trace block
	Payload []byte
	pooled  *buf.Writer
}

// Release recycles the payload's buffer; Payload must not be used
// afterwards. Call it once per frame (a frame whose payload is not
// pooled may skip it).
func (f *Frame) Release() {
	buf.PutWriter(f.pooled)
	f.pooled, f.Payload = nil, nil
}

// FrameReader reads the frames of one connection. It reads through a
// buffer, so a small frame — header, trace block and payload — usually
// costs one read call rather than three, and it lands each payload of
// up to eagerFrame bytes in a pooled buffer the caller releases.
type FrameReader struct {
	r   *bufio.Reader
	hdr [maxHeaderLen]byte
}

// NewFrameReader wraps one connection's read side.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Next reads one frame; see Frame for who owns its payload.
func (fr *FrameReader) Next() (Frame, error) {
	return readFrame(fr.r, fr.hdr[:], true)
}

// ReadFrame reads one frame, allocating the payload. A trace-context
// block, if present, is consumed and discarded; use ReadFrameTrace to
// keep it.
func ReadFrame(r io.Reader) (typ uint8, id uint64, payload []byte, err error) {
	typ, id, _, payload, err = ReadFrameTrace(r)
	return typ, id, payload, err
}

// ReadFrameTrace reads one frame along with its trace context,
// allocating the payload. Frames without a trace block (the pre-trace
// format) return a zero context. The returned type has FlagTrace
// stripped.
func ReadFrameTrace(r io.Reader) (typ uint8, id uint64, tc obs.TraceContext, payload []byte, err error) {
	var hdr [maxHeaderLen]byte
	f, err := readFrame(r, hdr[:], false)
	return f.Type, f.ID, f.Trace, f.Payload, err
}

// readFrame reads one frame's header into hdr (maxHeaderLen bytes) and
// its payload: into a pooled buffer when pool is set and the payload is
// at most eagerFrame bytes, otherwise into memory of its own.
func readFrame(r io.Reader, hdr []byte, pool bool) (Frame, error) {
	if _, err := io.ReadFull(r, hdr[:frameHeaderLen]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit", n)
	}
	f := Frame{Type: hdr[4], ID: binary.LittleEndian.Uint64(hdr[5:])}
	if f.Type&FlagTrace != 0 {
		f.Type &^= FlagTrace
		blk := hdr[frameHeaderLen:maxHeaderLen]
		if _, err := io.ReadFull(r, blk); err != nil {
			return Frame{}, err
		}
		f.Trace = obs.TraceContext{
			Hi:      binary.LittleEndian.Uint64(blk),
			Lo:      binary.LittleEndian.Uint64(blk[8:]),
			Span:    binary.LittleEndian.Uint64(blk[16:]),
			Sampled: blk[24]&traceFlagSampled != 0,
		}
	}
	var err error
	if pool && n > 0 && n <= eagerFrame {
		f.pooled = buf.GetWriter(int(n))
		f.Payload = f.pooled.Extend(int(n))
		_, err = io.ReadFull(r, f.Payload)
	} else {
		f.Payload, err = readPayload(r, int(n))
	}
	if err != nil {
		f.Release()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a payload
		}
		return Frame{}, err
	}
	return f, nil
}

// readPayload reads an n-byte payload into memory of its own.
// Allocation tracks bytes received, not bytes announced: up to
// eagerFrame the payload is one exact allocation, past that the buffer
// doubles (never beyond n) each time the peer has filled it, so a
// header claiming a gigabyte costs nothing until the bytes come.
func readPayload(r io.Reader, n int) ([]byte, error) {
	payload := make([]byte, min(n, eagerFrame))
	for got := 0; ; {
		if _, err := io.ReadFull(r, payload[got:]); err != nil {
			return nil, err
		}
		if got = len(payload); got == n {
			return payload, nil
		}
		payload = append(payload, make([]byte, min(got, n-got))...)
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
	w := buf.NewWriter(6 + len(err.Error()))
	AppendError(w, err)
	return w.Bytes()
}

// AppendError is EncodeError appending to w.
func AppendError(w *buf.Writer, err error) {
	w.U16(uint16(CodeOf(err)))
	w.String32(err.Error())
}

// DecodeError parses a MsgErr payload back into an *Error.
func DecodeError(payload []byte) error {
	r := buf.NewReader(payload)
	code := Code(r.U16())
	msg := string(r.Bytes32())
	if err := r.End(); err != nil {
		return fmt.Errorf("wire: bad error payload: %w", err)
	}
	return &Error{Code: code, Msg: msg}
}
