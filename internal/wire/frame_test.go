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
	// The probe's count sits after deadline, flags, as-of, strategy
	// and dims: 1<<63 two-dim points make n*dims wrap to 0.
	binary.LittleEndian.PutUint64(hostile[8+1+8+1+2:], 1<<63)
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

// codecSeeds is one well-formed payload per entry of codecs, by name.
func codecSeeds(t testing.TB) map[string][]byte {
	reg := tensor.Region{Start: []uint64{1, 2}, Size: []uint64{3, 4}}
	rep := &store.WriteReport{Build: 1, Reorg: 2, Write: 3, Others: 4, Bytes: 5, NNZ: 6, Name: "frag-7", Epoch: 8}
	return map[string][]byte{
		"query":         (&Query{Deadline: time.Second, Req: store.QueryRequest{Probe: mustCoords(t, 2, 1, 2, 3, 4), Region: &reg, AsOf: store.AsOfLatest}}).Encode(),
		"query result":  (&QueryResult{Result: &store.Result{Coords: mustCoords(t, 2, 1, 2), Values: []float64{math.NaN()}}, Report: &store.ReadReport{Found: 1, Epoch: 3}}).Encode(),
		"write batch":   (&WriteBatch{Deadline: 1, Workers: 2, Batches: []store.Batch{{Coords: mustCoords(t, 2, 5, 6), Values: []float64{7}}}}).Encode(),
		"write reports": EncodeWriteReports([]*store.WriteReport{rep, rep}),
		"write report":  EncodeWriteReport(rep),
		"delete":        (&Delete{Deadline: 3, Region: reg}).Encode(),
		"kernel":        (&Kernel{Req: store.KernelRequest{Op: store.KernelTTV, Mode: 1, Vec: []float64{1, 2}, Region: &reg}}).Encode(),
		"kernel result": EncodeKernelResult(&store.KernelResult{Values: []float64{1}, Shape: tensor.Shape{1}, Report: &store.PushReport{Cells: 4}}),
		"info":          (&Info{Kind: core.CSF, Shape: tensor.Shape{8, 8}, Tile: tensor.Shape{4, 4}, Fragments: 2, Epoch: 3, Tiles: 4}).Encode(),
		"deadline":      EncodeDeadline(time.Minute),
		"error":         EncodeError(ErrOverloaded),
	}
}

// TestDecodersRefuseTrailingBytes: every decoder reads its payload to
// the end, so a well-formed payload with one more byte is refused as
// ErrTrailing — and so is a request framed by an older peer that still
// sent a fragment worker count in Query and Kernel.
func TestDecodersRefuseTrailingBytes(t *testing.T) {
	seeds := codecSeeds(t)
	for _, c := range codecs {
		if _, ok := c.appendForm(seeds[c.name]); !ok {
			t.Fatalf("%s: the seed does not decode", c.name)
		}
	}
	decoders := map[string]func([]byte) error{
		"query":         func(p []byte) error { _, err := DecodeQuery(p); return err },
		"query result":  func(p []byte) error { _, err := DecodeQueryResult(p); return err },
		"write batch":   func(p []byte) error { _, err := DecodeWriteBatch(p); return err },
		"write reports": func(p []byte) error { _, err := DecodeWriteReports(p); return err },
		"write report":  func(p []byte) error { _, err := DecodeWriteReport(p); return err },
		"delete":        func(p []byte) error { _, err := DecodeDelete(p); return err },
		"kernel":        func(p []byte) error { _, err := DecodeKernel(p); return err },
		"kernel result": func(p []byte) error { _, err := DecodeKernelResult(p); return err },
		"info":          func(p []byte) error { _, err := DecodeInfo(p); return err },
		"deadline":      func(p []byte) error { _, err := DecodeDeadline(p); return err },
		"error":         func(p []byte) error { _, err := decodeErr(p); return err },
	}
	if len(decoders) != len(codecs) {
		t.Fatalf("%d decoders for %d codecs", len(decoders), len(codecs))
	}
	for name, decode := range decoders {
		if err := decode(append(seeds[name], 0)); !errors.Is(err, buf.ErrTrailing) {
			t.Errorf("%s plus one byte: err = %v, want buf.ErrTrailing", name, err)
		}
	}
	for _, stale := range [][]byte{
		staleQuery(&Query{Req: store.QueryRequest{Probe: mustCoords(t, 2, 1, 2), AsOf: store.AsOfLatest}}, 0),
		staleQuery(&Query{Req: store.QueryRequest{Probe: mustCoords(t, 2, 1, 2), AsOf: store.AsOfLatest}}, 4),
		staleKernel(&Kernel{Req: store.KernelRequest{Op: store.KernelLiveNNZ}}, 0),
		staleKernel(&Kernel{Req: store.KernelRequest{Op: store.KernelTTV, Mode: 1, Vec: []float64{1, 2}}}, 4),
	} {
		if decoders["query"](stale) == nil && decoders["kernel"](stale) == nil {
			t.Errorf("a request carrying a worker count decoded: %x", stale)
		}
	}
}

// TestDecodersRefuseUnknownMarkers: a Query flag bit or a Kernel region
// marker the protocol does not define is refused, not dropped.
func TestDecodersRefuseUnknownMarkers(t *testing.T) {
	q := (&Query{Req: store.QueryRequest{Probe: mustCoords(t, 2, 1, 2), AsOf: store.AsOfLatest}}).Encode()
	q[8] |= 1 << 2 // the flags byte follows the deadline
	if _, err := DecodeQuery(q); err == nil {
		t.Error("a query with an unknown flag bit decoded")
	}
	k := (&Kernel{Req: store.KernelRequest{Op: store.KernelLiveNNZ}}).Encode()
	k[len(k)-1] = 2 // the region marker ends a region-less kernel payload
	if _, err := DecodeKernel(k); err == nil {
		t.Error("a kernel with region marker 2 decoded")
	}
}

// withWorkers is payload with a u64 fragment worker count inserted at
// off: the request layout of peers from before the count was dropped.
func withWorkers(payload []byte, off int, workers uint64) []byte {
	out := append([]byte(nil), payload[:off]...)
	out = binary.LittleEndian.AppendUint64(out, workers)
	return append(out, payload[off:]...)
}

// staleQuery is q as an older peer framed it: the worker count followed
// the deadline, flags, as-of and strategy.
func staleQuery(q *Query, workers uint64) []byte {
	return withWorkers(q.Encode(), 8+1+8+1, workers)
}

// staleKernel is k as an older peer framed it: the worker count
// followed the deadline, op and mode.
func staleKernel(k *Kernel, workers uint64) []byte {
	return withWorkers(k.Encode(), 8+1+8, workers)
}

// FuzzDecoders: arbitrary bytes, offered to any of the protocol's
// decoders, either fail to decode or decode to a message whose encoding
// is a fixed point — decode → encode → decode → encode yields the same
// bytes (compared as bytes, so NaN values equal themselves) — and the
// append form and the Encode form of one decoded message agree byte for
// byte; and a payload that decodes no longer does with a byte appended.
func FuzzDecoders(f *testing.F) {
	seeds := codecSeeds(f)
	for i, c := range codecs {
		f.Add(uint8(i), seeds[c.name])
		f.Add(uint8(i), append(seeds[c.name], 0))
		f.Add(uint8(i), []byte{})
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		c := codecs[int(which)%len(codecs)]
		enc, ok := c.appendForm(payload)
		if !ok {
			return
		}
		if _, ok := c.appendForm(append(payload[:len(payload):len(payload)], 0)); ok {
			t.Fatalf("%s: decoded with a trailing byte", c.name)
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
