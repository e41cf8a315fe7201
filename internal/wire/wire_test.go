package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	var b bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&b, MsgQuery, 42, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteFrame(&b, MsgOK, 43, nil); err != nil {
		t.Fatalf("write empty: %v", err)
	}
	typ, id, got, err := ReadFrame(&b)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != MsgQuery || id != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("frame mismatch: typ=%#x id=%d payload=%v", typ, id, got)
	}
	typ, id, got, err = ReadFrame(&b)
	if err != nil {
		t.Fatalf("read empty: %v", err)
	}
	if typ != MsgOK || id != 43 || len(got) != 0 {
		t.Fatalf("empty frame mismatch: typ=%#x id=%d payload=%v", typ, id, got)
	}
	if _, _, _, err := ReadFrame(&b); err == nil {
		t.Fatal("expected EOF on drained buffer")
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff, MsgQuery, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestErrorRoundTrip is the satellite-required decode test: every typed
// sentinel survives encode → decode losslessly — errors.Is still holds
// and the message is verbatim.
func TestErrorRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		want error // sentinel errors.Is must match after the round trip
		code Code
	}{
		{fmt.Errorf("store: %w: no target", store.ErrBadRequest), store.ErrBadRequest, CodeBadRequest},
		{fmt.Errorf("store: %w: 3-dim probe for 2-dim store", store.ErrShapeMismatch), store.ErrShapeMismatch, CodeShapeMismatch},
		{fmt.Errorf("serve: %w: 64 requests in flight", ErrOverloaded), ErrOverloaded, CodeOverloaded},
		{fmt.Errorf("router: %w: shard 2 (127.0.0.1:7102)", ErrShardUnavailable), ErrShardUnavailable, CodeShardUnavailable},
		{fmt.Errorf("read region: %w", context.DeadlineExceeded), context.DeadlineExceeded, CodeDeadlineExceeded},
		{fmt.Errorf("ingest: %w", context.Canceled), context.Canceled, CodeCanceled},
		{errors.New("disk on fire"), nil, CodeUnknown},
	}
	for _, tc := range cases {
		dec := DecodeError(EncodeError(tc.err))
		if dec.Error() != tc.err.Error() {
			t.Errorf("message not lossless: got %q want %q", dec.Error(), tc.err.Error())
		}
		var we *Error
		if !errors.As(dec, &we) {
			t.Fatalf("decoded error is %T, want *wire.Error", dec)
		}
		if we.Code != tc.code {
			t.Errorf("%q: code %d, want %d", tc.err, we.Code, tc.code)
		}
		if tc.want != nil && !errors.Is(dec, tc.want) {
			t.Errorf("%q: errors.Is lost through the wire", tc.err)
		}
		// A decoded error must not spuriously match the other sentinels.
		for _, other := range []error{
			store.ErrBadRequest, store.ErrShapeMismatch, ErrOverloaded,
			ErrShardUnavailable, context.DeadlineExceeded, context.Canceled,
		} {
			if other != tc.want && errors.Is(dec, other) {
				t.Errorf("%q: spuriously matches %v", tc.err, other)
			}
		}
	}
}

func TestCodeOfPrefersContext(t *testing.T) {
	// A canceled request that also wraps a store sentinel surfaces as
	// cancellation: that is what the client should branch on.
	err := fmt.Errorf("store: %w: %w", store.ErrBadRequest, context.Canceled)
	if got := CodeOf(err); got != CodeCanceled {
		t.Fatalf("CodeOf = %d, want CodeCanceled", got)
	}
}

func mustCoords(t *testing.T, dims int, flat ...uint64) *tensor.Coords {
	t.Helper()
	c, err := tensor.FromFlat(dims, flat)
	if err != nil {
		t.Fatalf("coords: %v", err)
	}
	return c
}

func TestQueryRoundTrip(t *testing.T) {
	reg := tensor.Region{Start: []uint64{5, 6}, Size: []uint64{10, 20}}
	cases := []Query{
		{Deadline: 250 * time.Millisecond, Req: store.QueryRequest{
			Probe: mustCoords(t, 2, 1, 2, 3, 4), AsOf: store.AsOfLatest, Workers: -1}},
		{Req: store.QueryRequest{Region: &reg, AsOf: store.AsOfLatest,
			Strategy: store.StrategyAuto, Workers: 4}},
		{Req: store.QueryRequest{Probe: mustCoords(t, 3, 0, 0, 0), AsOf: 7}},
	}
	for i, q := range cases {
		got, err := DecodeQuery(q.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Deadline != q.Deadline || got.Req.AsOf != q.Req.AsOf ||
			got.Req.Strategy != q.Req.Strategy || got.Req.Workers != q.Req.Workers {
			t.Fatalf("case %d: scalar mismatch: %+v", i, got)
		}
		if (got.Req.Probe == nil) != (q.Req.Probe == nil) {
			t.Fatalf("case %d: probe presence mismatch", i)
		}
		if q.Req.Probe != nil && !reflect.DeepEqual(got.Req.Probe.Flat(), q.Req.Probe.Flat()) {
			t.Fatalf("case %d: probe mismatch", i)
		}
		if q.Req.Region != nil && !reflect.DeepEqual(*got.Req.Region, *q.Req.Region) {
			t.Fatalf("case %d: region mismatch: %+v", i, got.Req.Region)
		}
	}
}

func TestQueryResultRoundTrip(t *testing.T) {
	res := &QueryResult{
		Result: &store.Result{
			Coords: mustCoords(t, 2, 1, 2, 3, 4, 5, 6),
			Values: []float64{1.5, -2.5, 3.25},
		},
		Report: &store.ReadReport{
			IO: time.Millisecond, Extract: 2 * time.Millisecond,
			Probe: 3 * time.Millisecond, Merge: 4 * time.Millisecond,
			Fragments: 5, Probed: 6, Found: 3, Scans: 1, Epoch: 9,
		},
	}
	got, err := DecodeQueryResult(res.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result.Coords.Flat(), res.Result.Coords.Flat()) ||
		!reflect.DeepEqual(got.Result.Values, res.Result.Values) {
		t.Fatalf("result mismatch: %+v", got.Result)
	}
	if !reflect.DeepEqual(got.Report, res.Report) {
		t.Fatalf("report mismatch: %+v", got.Report)
	}
}

func TestWriteAndBatchRoundTrip(t *testing.T) {
	wb := &WriteBatch{
		Deadline: 2 * time.Second,
		Workers:  3,
		Batches: []store.Batch{
			{Coords: mustCoords(t, 2, 0, 0), Values: []float64{9}},
			{Coords: mustCoords(t, 2, 5, 5, 6, 6), Values: []float64{1, 2}},
		},
	}
	gotB, err := DecodeWriteBatch(wb.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotB.Deadline != wb.Deadline || gotB.Workers != wb.Workers || len(gotB.Batches) != 2 {
		t.Fatalf("batch scalar mismatch: %+v", gotB)
	}
	for i := range wb.Batches {
		if !reflect.DeepEqual(gotB.Batches[i].Coords.Flat(), wb.Batches[i].Coords.Flat()) ||
			!reflect.DeepEqual(gotB.Batches[i].Values, wb.Batches[i].Values) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

func TestWriteReportRoundTrip(t *testing.T) {
	rep := &store.WriteReport{
		Build: time.Millisecond, Reorg: 2 * time.Millisecond,
		Write: 3 * time.Millisecond, Others: 4 * time.Millisecond,
		Bytes: 4096, NNZ: 100, Name: "f-000042", Epoch: 7,
	}
	got, err := DecodeWriteReport(EncodeWriteReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("mismatch: %+v", got)
	}
	reps, err := DecodeWriteReports(EncodeWriteReports([]*store.WriteReport{rep, rep}))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || !reflect.DeepEqual(reps[0], rep) || !reflect.DeepEqual(reps[1], rep) {
		t.Fatalf("list mismatch: %+v", reps)
	}
}

func TestDeleteKernelInfoRoundTrip(t *testing.T) {
	del := &Delete{Deadline: time.Second, Region: tensor.Region{Start: []uint64{1}, Size: []uint64{2}}}
	gotD, err := DecodeDelete(del.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotD.Deadline != del.Deadline || !reflect.DeepEqual(gotD.Region, del.Region) {
		t.Fatalf("delete mismatch: %+v", gotD)
	}

	reg := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{4, 4}}
	k := &Kernel{Deadline: time.Second, Req: store.KernelRequest{
		Op: store.KernelSumRegion, Region: &reg, Mode: 1,
		Vec: []float64{1, 2, 3}, Workers: 2,
	}}
	gotK, err := DecodeKernel(k.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gotK.Req.Op != k.Req.Op || gotK.Req.Mode != k.Req.Mode ||
		gotK.Req.Workers != k.Req.Workers ||
		!reflect.DeepEqual(gotK.Req.Vec, k.Req.Vec) ||
		!reflect.DeepEqual(*gotK.Req.Region, reg) {
		t.Fatalf("kernel mismatch: %+v", gotK)
	}

	kr := &store.KernelResult{
		Values: []float64{1, 2, 3},
		Shape:  tensor.Shape{3},
		Report: &store.PushReport{Fragments: 2, Cells: 30, Epoch: 4},
	}
	gotKR, err := DecodeKernelResult(EncodeKernelResult(kr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotKR, kr) {
		t.Fatalf("kernel result mismatch: %+v", gotKR)
	}

	info := &Info{
		Kind: core.CSF, Shape: tensor.Shape{100, 100}, Tile: tensor.Shape{32, 32},
		Fragments: 12, Epoch: 30, Tiles: 9,
	}
	gotI, err := DecodeInfo(info.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotI, info) {
		t.Fatalf("info mismatch: %+v", gotI)
	}

	d, err := DecodeDeadline(EncodeDeadline(5 * time.Second))
	if err != nil || d != 5*time.Second {
		t.Fatalf("deadline mismatch: %v %v", d, err)
	}
	if d, err := DecodeDeadline(nil); err != nil || d != 0 {
		t.Fatalf("empty deadline: %v %v", d, err)
	}
}

// FuzzDecodeKernel: arbitrary bytes either fail to decode or decode to
// a request whose encoding is a fixed point — decode → encode → decode
// → encode yields the same bytes (compared as bytes, so NaN operands
// count as equal to themselves).
func FuzzDecodeKernel(f *testing.F) {
	reg := tensor.Region{Start: []uint64{0, 3}, Size: []uint64{4, 1}}
	f.Add((&Kernel{Deadline: time.Second, Req: store.KernelRequest{Op: store.KernelSumRegion, Region: &reg, Workers: -1}}).Encode())
	f.Add((&Kernel{Req: store.KernelRequest{Op: store.KernelTTV, Mode: 2, Vec: []float64{1, math.NaN(), 3}}}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeKernel(payload)
		if err != nil {
			return
		}
		enc := m.Encode()
		m2, err := DecodeKernel(enc)
		if err != nil {
			t.Fatalf("re-decode of an encoded kernel failed: %v", err)
		}
		if enc2 := m2.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("kernel encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzDecodeKernelResult is the same fixed-point property for the
// MsgKernel reply.
func FuzzDecodeKernelResult(f *testing.F) {
	f.Add(EncodeKernelResult(&store.KernelResult{
		Values: []float64{1, 2, 3}, Shape: tensor.Shape{3},
		Report: &store.PushReport{Fragments: 2, Skipped: 1, Cells: 30, Shadowed: 4, Dead: 5, Epoch: 6},
	}))
	f.Add(EncodeKernelResult(&store.KernelResult{Values: []float64{math.Inf(-1)}, Report: &store.PushReport{}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := DecodeKernelResult(payload)
		if err != nil {
			return
		}
		if res.Report == nil {
			t.Fatal("decoded kernel result has no report")
		}
		enc := EncodeKernelResult(res)
		res2, err := DecodeKernelResult(enc)
		if err != nil {
			t.Fatalf("re-decode of an encoded kernel result failed: %v", err)
		}
		if enc2 := EncodeKernelResult(res2); !bytes.Equal(enc, enc2) {
			t.Fatalf("kernel result encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}
