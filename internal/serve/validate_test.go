package serve_test

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// kernelRunner is the compute surface Store, Chunked, Client and Router
// share.
type kernelRunner interface {
	Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error)
}

// TestKernelValidationOneWord: a malformed kernel request is refused
// with the same typed error and the same words by a flat store, a
// chunked store, a client of a served chunked store and a router —
// before any work, so no store answers a region-bearing sum or count
// with its whole-store value.
func TestKernelValidationOneWord(t *testing.T) {
	shape, tile := tensor.Shape{16, 16}, tensor.Shape{8, 8}
	flat, err := store.Create(fsim.NewPerlmutterSim(), "flat", core.CSF, shape)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := store.NewChunked(fsim.NewPerlmutterSim(), "chunked", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	served, err := store.NewChunked(fsim.NewPerlmutterSim(), "served", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	_, client, _ := startServer(t, serve.ChunkedBackend(served), serve.Config{})
	addrs := []string{newShard(t, core.CSF, shape, tile), newShard(t, core.CSF, shape, tile)}
	router, err := serve.NewRouter(addrs, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	ctx := context.Background()
	points := mustCoords(t, 2, 1, 1, 12, 12)
	if _, err := flat.Write(points, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := chunked.Write(points, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []batchWriter{client, router} {
		if _, err := writeOne(ctx, w, points, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	runners := map[string]kernelRunner{"flat": flat, "chunked": chunked, "served": client, "routed": router}

	window := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{4, 4}}
	deep := tensor.Region{Start: []uint64{0, 0, 0}, Size: []uint64{4, 4, 4}}
	cases := []struct {
		name string
		req  store.KernelRequest
		want error
	}{
		{"sum with a region", store.KernelRequest{Op: store.KernelSumAll, Region: &window}, store.ErrBadRequest},
		{"nnz with a region", store.KernelRequest{Op: store.KernelLiveNNZ, Region: &window}, store.ErrBadRequest},
		{"nnz_slice with a region", store.KernelRequest{Op: store.KernelNNZPerSlice, Region: &window}, store.ErrBadRequest},
		{"sum_region without one", store.KernelRequest{Op: store.KernelSumRegion}, store.ErrBadRequest},
		{"nnz_slice past the modes", store.KernelRequest{Op: store.KernelNNZPerSlice, Mode: 2}, store.ErrBadRequest},
		{"nnz_slice negative mode", store.KernelRequest{Op: store.KernelNNZPerSlice, Mode: -1}, store.ErrBadRequest},
		{"op 0", store.KernelRequest{}, store.ErrBadRequest},
		{"op 99", store.KernelRequest{Op: 99}, store.ErrBadRequest},
		{"3-dim region", store.KernelRequest{Op: store.KernelSumRegion, Region: &deep}, store.ErrShapeMismatch},
	}
	for _, c := range cases {
		want := c.req.Validate(shape.Dims())
		if !errors.Is(want, c.want) {
			t.Fatalf("%s: Validate = %v, want %v", c.name, want, c.want)
		}
		for name, r := range runners {
			res, err := r.Kernel(ctx, c.req)
			if !errors.Is(err, c.want) {
				t.Errorf("%s on %s: answered %v, err %v; want %v", c.name, name, res, err, c.want)
				continue
			}
			if err.Error() != want.Error() {
				t.Errorf("%s on %s: %q, Validate says %q", c.name, name, err, want)
			}
		}
	}
	// The well-formed forms still answer alike.
	for name, r := range runners {
		res, err := r.Kernel(ctx, store.KernelRequest{Op: store.KernelSumRegion, Region: &window})
		if err != nil || len(res.Values) != 1 || res.Values[0] != 1 {
			t.Errorf("sum_region on %s: %v, %v; want 1", name, res, err)
		}
	}
}

// TestTrailingBytesRefused: a request of any type whose payload runs
// past its message is refused as a bad request, not half-read, and the
// connection keeps serving. So is a Query or Kernel framed by an older
// peer that still sent a fragment worker count.
func TestTrailingBytesRefused(t *testing.T) {
	st, err := store.Create(fsim.NewPerlmutterSim(), "s", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	probe := mustCoords(t, 2, 1, 1)
	if _, err := st.Write(probe, []float64{5}); err != nil {
		t.Fatal(err)
	}
	_, _, addr := startServer(t, serve.StoreBackend(st), serve.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) // a hang fails the test, not the suite

	region := tensor.Region{Start: []uint64{0, 0}, Size: []uint64{4, 4}}
	query := (&wire.Query{Req: store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest}}).Encode()
	kernel := (&wire.Kernel{Req: store.KernelRequest{Op: store.KernelLiveNNZ}}).Encode()
	withWorkers := func(p []byte, off int) []byte {
		out := append([]byte(nil), p[:off]...)
		out = binary.LittleEndian.AppendUint64(out, 4)
		return append(out, p[off:]...)
	}
	frames := []struct {
		name    string
		typ     uint8
		payload []byte
	}{
		{"query", wire.MsgQuery, append(query, 0)},
		{"write batch", wire.MsgWriteBatch, append((&wire.WriteBatch{Workers: 1, Batches: []store.Batch{{Coords: probe, Values: []float64{9}}}}).Encode(), 0)},
		{"delete", wire.MsgDelete, append((&wire.Delete{Region: region}).Encode(), 0)},
		{"kernel", wire.MsgKernel, append(kernel, 0)},
		{"info", wire.MsgInfo, append(wire.EncodeDeadline(0), 0)},
		{"obs", wire.MsgObs, append(wire.EncodeDeadline(0), 0)},
		{"ping", wire.MsgPing, append(wire.EncodeDeadline(0), 0)},
		{"query with a worker count", wire.MsgQuery, withWorkers(query, 8+1+8+1)},
		{"kernel with a worker count", wire.MsgKernel, withWorkers(kernel, 8+1+8)},
	}
	for i, f := range frames {
		id := uint64(10 + i)
		if err := wire.WriteFrame(conn, f.typ, id, f.payload); err != nil {
			t.Fatal(err)
		}
		typ, got, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: no reply: %v", f.name, err)
		}
		if typ != wire.MsgErr || got != id {
			t.Fatalf("%s: reply type %#x id %d, want MsgErr id %d", f.name, typ, got, id)
		}
		if rerr := wire.DecodeError(payload); !errors.Is(rerr, store.ErrBadRequest) || wire.CodeOf(rerr) != wire.CodeBadRequest {
			t.Fatalf("%s: reply error = %v, want CodeBadRequest", f.name, rerr)
		}
	}
	if st.Fragments() != 1 {
		t.Fatalf("refused mutations left %d fragments, want the 1 written", st.Fragments())
	}

	if err := wire.WriteFrame(conn, wire.MsgQuery, 99, query); err != nil {
		t.Fatal(err)
	}
	typ, id, payload, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgOK || id != 99 {
		t.Fatalf("query after the refusals: type %#x id %d err %v", typ, id, err)
	}
	res, err := wire.DecodeQueryResult(payload)
	if err != nil || len(res.Result.Values) != 1 || res.Result.Values[0] != 5 {
		t.Fatalf("query after the refusals: %v, %v", res, err)
	}
}
