package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/obs"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// writeCounter counts Write calls.
type writeCounter struct {
	bytes.Buffer
	calls int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(p)
}

// TestSendFrameOneWrite: a frame leaves in one Write call, traced or
// not, and a message appended to a NewFrame goes out byte-identical to
// its Encode framed by WriteFrameTrace.
func TestSendFrameOneWrite(t *testing.T) {
	q := &Query{Deadline: time.Second, Req: store.QueryRequest{Probe: mustCoords(t, 3, 1, 2, 3), AsOf: store.AsOfLatest}}
	for _, tc := range []obs.TraceContext{{}, {Hi: 1, Lo: 2, Span: 3, Sampled: true}} {
		var sent, legacy writeCounter
		f := NewFrame(0)
		q.AppendTo(f)
		if err := SendFrame(&sent, f, MsgQuery, 7, tc); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrameTrace(&legacy, MsgQuery, 7, tc, q.Encode()); err != nil {
			t.Fatal(err)
		}
		if sent.calls != 1 || legacy.calls != 1 {
			t.Errorf("trace %v: %d and %d Write calls per frame, want 1", tc.Valid(), sent.calls, legacy.calls)
		}
		if !bytes.Equal(sent.Bytes(), legacy.Bytes()) {
			t.Errorf("trace %v: appended frame differs from the encoded one:\n%x\n%x", tc.Valid(), sent.Bytes(), legacy.Bytes())
		}
	}
}

// repeatReader serves the same bytes forever.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestFramesReuseBuffers: in steady state a frame costs no allocation
// either way — the sender's buffer and the receiver's payload both come
// back to the pools.
func TestFramesReuseBuffers(t *testing.T) {
	res := &QueryResult{
		Result: &store.Result{Coords: mustCoords(t, 3, 4, 5, 6), Values: []float64{1.5}},
		Report: &store.ReadReport{Fragments: 3, Found: 1},
	}
	tc := obs.TraceContext{Hi: 1, Lo: 2, Span: 3, Sampled: true}
	send := testing.AllocsPerRun(200, func() {
		f := NewFrame(res.Size())
		res.AppendTo(f)
		if err := SendFrame(io.Discard, f, MsgOK, 9, tc); err != nil {
			t.Fatal(err)
		}
	})
	var stream bytes.Buffer
	if err := WriteFrameTrace(&stream, MsgOK, 9, tc, res.Encode()); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&repeatReader{b: stream.Bytes()})
	recv := testing.AllocsPerRun(200, func() {
		f, err := fr.Next()
		if err != nil || f.Type != MsgOK || f.ID != 9 || f.Trace != tc || !bytes.Equal(f.Payload, stream.Bytes()[maxHeaderLen:]) {
			t.Fatalf("frame %+v, err %v", f, err)
		}
		f.Release()
	})
	if !raceEnabled && (send != 0 || recv != 0) {
		t.Errorf("%.1f allocations to send a frame and %.1f to receive one, want 0 and 0", send, recv)
	}
}

// TestFrameReaderAllocatesForBytesReceived is ReadFrameTrace's bound
// through the pooled reader: a header announcing MaxFrame with nothing
// behind it allocates less than the eager megabyte twice over.
func TestFrameReaderAllocatesForBytesReceived(t *testing.T) {
	hdr := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(hdr, MaxFrame)
	hdr[4] = MsgQuery
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewFrameReader(bytes.NewReader(hdr)).Next()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("1 GiB header then EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("1 GiB header then EOF allocated %d bytes, want < 2 MiB", got)
	}
}

// TestHostileCountsAllocateNothing: an element count the payload cannot
// hold is refused as truncated before anything is allocated for it,
// and a point count whose product with dims wraps is not mistaken for
// a short one.
func TestHostileCountsAllocateNothing(t *testing.T) {
	claim := func(prefix int, n uint32) []byte {
		p := make([]byte, prefix+4)
		binary.LittleEndian.PutUint32(p[prefix:], n)
		return p
	}
	wrap := buf.NewWriter(64)
	(&Query{Req: store.QueryRequest{Probe: mustCoords(t, 2, 1, 2)}}).AppendTo(wrap)
	hostile := append([]byte(nil), wrap.Bytes()...)
	// The probe's count sits after deadline, flags, as-of, strategy,
	// workers and dims: 1<<63 two-dim points make n*dims wrap to 0.
	binary.LittleEndian.PutUint64(hostile[8+1+8+1+8+2:], 1<<63)
	cases := []struct {
		name   string
		decode func() error
	}{
		{"write batch", func() error { _, err := DecodeWriteBatch(claim(16, 1<<20)); return err }},
		{"report list", func() error { _, err := DecodeWriteReports(claim(0, 1<<20)); return err }},
		{"wrapping probe count", func() error { _, err := DecodeQuery(hostile); return err }},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, buf.ErrTruncated) {
			t.Errorf("%s: err = %v, want buf.ErrTruncated", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", c.name, got)
		}
	}
}

// codecs is every payload the protocol carries, each as "decode, then
// encode what was decoded" in the append form the serving path uses and
// in the Encode form. One table drives the fixed-point fuzz below.
var codecs = []struct {
	name string
	// appendForm and encodeForm decode payload and re-encode it; ok is
	// false when payload does not decode.
	appendForm, encodeForm func(payload []byte) (enc []byte, ok bool)
}{
	{"query",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeQuery, p, (*Query).AppendTo) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeQuery, p, (*Query).Encode) }},
	{"query result",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeQueryResult, p, (*QueryResult).AppendTo) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeQueryResult, p, (*QueryResult).Encode) }},
	{"write batch",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeWriteBatch, p, (*WriteBatch).AppendTo) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeWriteBatch, p, (*WriteBatch).Encode) }},
	{"write reports",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeWriteReports, p, swap(AppendWriteReports)) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeWriteReports, p, EncodeWriteReports) }},
	{"write report",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeWriteReport, p, swap(AppendWriteReport)) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeWriteReport, p, EncodeWriteReport) }},
	{"delete",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeDelete, p, (*Delete).AppendTo) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeDelete, p, (*Delete).Encode) }},
	{"kernel",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeKernel, p, (*Kernel).AppendTo) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeKernel, p, (*Kernel).Encode) }},
	{"kernel result",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeKernelResult, p, swap(AppendKernelResult)) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeKernelResult, p, EncodeKernelResult) }},
	{"info",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeInfo, p, (*Info).AppendTo) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeInfo, p, (*Info).Encode) }},
	{"deadline",
		func(p []byte) ([]byte, bool) { return appendDecoded(DecodeDeadline, p, swap(AppendDeadline)) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(DecodeDeadline, p, EncodeDeadline) }},
	{"error",
		func(p []byte) ([]byte, bool) { return appendDecoded(decodeErr, p, swap(AppendError)) },
		func(p []byte) ([]byte, bool) { return encodeDecoded(decodeErr, p, EncodeError) }},
}

// decodeErr gives DecodeError the decoders' shape: a payload that is
// not an error payload fails to decode.
func decodeErr(p []byte) (error, error) {
	err := DecodeError(p)
	if _, ok := err.(*Error); !ok {
		return nil, err
	}
	return err, nil
}

func swap[T any](appendTo func(*buf.Writer, T)) func(T, *buf.Writer) {
	return func(v T, w *buf.Writer) { appendTo(w, v) }
}

func appendDecoded[T any](decode func([]byte) (T, error), p []byte, appendTo func(T, *buf.Writer)) ([]byte, bool) {
	v, err := decode(p)
	if err != nil {
		return nil, false
	}
	f := NewFrame(len(p))
	defer buf.PutWriter(f)
	appendTo(v, f)
	return append([]byte(nil), f.Bytes()[maxHeaderLen:]...), true
}

func encodeDecoded[T any](decode func([]byte) (T, error), p []byte, encode func(T) []byte) ([]byte, bool) {
	v, err := decode(p)
	if err != nil {
		return nil, false
	}
	return encode(v), true
}

// FuzzDecoders: arbitrary bytes, offered to any of the protocol's
// decoders, either fail to decode or decode to a message whose encoding
// is a fixed point — decode → encode → decode → encode yields the same
// bytes (compared as bytes, so NaN values equal themselves) — and the
// append form and the Encode form of one decoded message agree byte for
// byte.
func FuzzDecoders(f *testing.F) {
	reg := tensor.Region{Start: []uint64{1, 2}, Size: []uint64{3, 4}}
	rep := &store.WriteReport{Build: 1, Reorg: 2, Write: 3, Others: 4, Bytes: 5, NNZ: 6, Name: "frag-7", Epoch: 8}
	seeds := map[string][]byte{
		"query":         (&Query{Deadline: time.Second, Req: store.QueryRequest{Probe: mustCoords(f, 2, 1, 2, 3, 4), Region: &reg, AsOf: store.AsOfLatest, Workers: 2}}).Encode(),
		"query result":  (&QueryResult{Result: &store.Result{Coords: mustCoords(f, 2, 1, 2), Values: []float64{math.NaN()}}, Report: &store.ReadReport{Found: 1, Epoch: 3}}).Encode(),
		"write batch":   (&WriteBatch{Deadline: 1, Workers: 2, Batches: []store.Batch{{Coords: mustCoords(f, 2, 5, 6), Values: []float64{7}}}}).Encode(),
		"write reports": EncodeWriteReports([]*store.WriteReport{rep, rep}),
		"write report":  EncodeWriteReport(rep),
		"delete":        (&Delete{Deadline: 3, Region: reg}).Encode(),
		"kernel":        (&Kernel{Req: store.KernelRequest{Op: store.KernelTTV, Mode: 1, Vec: []float64{1, 2}, Region: &reg}}).Encode(),
		"kernel result": EncodeKernelResult(&store.KernelResult{Values: []float64{1}, Shape: tensor.Shape{1}, Report: &store.PushReport{Cells: 4}}),
		"info":          (&Info{Kind: core.CSF, Shape: tensor.Shape{8, 8}, Tile: tensor.Shape{4, 4}, Fragments: 2, Epoch: 3, Tiles: 4}).Encode(),
		"deadline":      EncodeDeadline(time.Minute),
		"error":         EncodeError(ErrOverloaded),
	}
	for i, c := range codecs {
		f.Add(uint8(i), seeds[c.name])
		f.Add(uint8(i), []byte{})
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		c := codecs[int(which)%len(codecs)]
		enc, ok := c.appendForm(payload)
		if !ok {
			return
		}
		enc2, ok := c.appendForm(enc)
		if !ok {
			t.Fatalf("%s: re-decode of an encoded message failed", c.name)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: encoding is not a fixed point:\n%x\n%x", c.name, enc, enc2)
		}
		if legacy, _ := c.encodeForm(enc); !bytes.Equal(enc, legacy) {
			t.Fatalf("%s: append form and Encode disagree:\n%x\n%x", c.name, enc, legacy)
		}
	})
}
