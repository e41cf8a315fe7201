package serve

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"sparseart/internal/buf"
	"sparseart/internal/obs"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// Client drives one wire-protocol connection. It is safe for
// concurrent use: requests pipeline on the single connection, matched
// to responses by request id, so N goroutines sharing one Client see N
// requests in flight at once. A request goes out as one pooled frame in
// one write, and its reply is decoded out of a pooled buffer that is
// recycled as soon as the decoder returns.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan wire.Frame
	readErr error // set once the read loop dies; nil while healthy
	done    chan struct{}
}

// replyChans recycles the one-slot channels a reply is handed over on.
// A channel goes back only after its reply was received, so a late
// reply to an abandoned call never lands in a channel another call
// owns.
var replyChans = sync.Pool{New: func() any { return make(chan wire.Frame, 1) }}

// Dial connects to a wire-protocol server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: map[uint64]chan wire.Frame{},
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	return c.conn.Close()
}

// readLoop dispatches response frames to their waiting calls.
func (c *Client) readLoop() {
	fr := wire.NewFrameReader(c.conn)
	for {
		f, err := fr.Next()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			close(c.done)
			return
		}
		c.mu.Lock()
		ch := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if ch == nil {
			f.Release() // the call gave up waiting
			continue
		}
		ch <- f
	}
}

// call sends the request frame f (built by wire.NewFrame; call owns it
// from here) and decodes the reply's payload with dec, recycling the
// payload's buffer once dec returns.
func call[T any](ctx context.Context, c *Client, typ uint8, f *buf.Writer, dec func([]byte) (T, error)) (T, error) {
	resp, err := c.roundTrip(ctx, typ, f)
	if err != nil {
		var zero T
		return zero, err
	}
	defer resp.Release()
	return dec(resp.Payload)
}

// roundTrip sends one request frame and waits for its reply or ctx.
// When ctx carries a sampled trace, a client.request{op} span wraps the
// round trip and its trace context rides the frame to the server, so
// the remote serve.request span links back to this one.
func (c *Client) roundTrip(ctx context.Context, typ uint8, f *buf.Writer) (wire.Frame, error) {
	sp, ctx := obs.Global().StartCtx(ctx, opOf(typ).clientSpan)
	tc := sp.TraceContext()
	if !tc.Valid() {
		// No local client span (global obs disabled) — still forward the
		// trace riding ctx so downstream processes keep recording.
		tc, _ = obs.TraceFrom(ctx)
	}
	resp, err := c.roundTripTrace(ctx, typ, tc, f)
	if err != nil && sp.Sampled() {
		sp.SetAttrStr("err", err.Error())
	}
	sp.End()
	return resp, err
}

// roundTripTrace writes the request frame carrying tc and waits for
// the matching reply or ctx. An error reply comes back decoded as the
// error.
func (c *Client) roundTripTrace(ctx context.Context, typ uint8, tc obs.TraceContext, f *buf.Writer) (wire.Frame, error) {
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		buf.PutWriter(f)
		return wire.Frame{}, connErr(err)
	}
	ch := replyChans.Get().(chan wire.Frame)
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := wire.SendFrame(c.conn, f, typ, id, tc)
	c.wmu.Unlock()
	if err != nil {
		c.forget(id)
		return wire.Frame{}, connErr(err)
	}

	select {
	case resp := <-ch:
		return received(ch, resp)
	case <-ctx.Done():
		c.forget(id)
		return wire.Frame{}, ctx.Err()
	case <-c.done:
		// The read loop may have delivered just before dying.
		select {
		case resp := <-ch:
			return received(ch, resp)
		default:
		}
		c.forget(id)
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return wire.Frame{}, connErr(err)
	}
}

// received recycles the drained reply channel and turns an error reply
// into its decoded error.
func received(ch chan wire.Frame, resp wire.Frame) (wire.Frame, error) {
	replyChans.Put(ch)
	if resp.Type == wire.MsgErr {
		err := wire.DecodeError(resp.Payload)
		resp.Release()
		return wire.Frame{}, err
	}
	return resp, nil
}

// forget abandons a pending request id.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// connErr types a dead-connection failure so the router can classify
// it as shard unavailability.
func connErr(err error) error {
	return fmt.Errorf("serve: %w: connection: %v", wire.ErrShardUnavailable, err)
}

// deadlineOf extracts the relative deadline a request should carry.
func deadlineOf(ctx context.Context) (time.Duration, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, nil
	}
	d := time.Until(dl)
	if d <= 0 {
		return 0, context.DeadlineExceeded
	}
	return d, nil
}

// Query answers a store.QueryRequest remotely.
func (c *Client) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, nil, err
	}
	f := wire.NewFrame(64)
	(&wire.Query{Deadline: d, Req: req}).AppendTo(f)
	res, err := call(ctx, c, wire.MsgQuery, f, wire.DecodeQueryResult)
	if err != nil {
		return nil, nil, err
	}
	return res.Result, res.Report, nil
}

// WriteBatch runs the batched ingest remotely: one report per batch.
func (c *Client) WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	m := &wire.WriteBatch{Deadline: d, Workers: workers, Batches: batches}
	f := wire.NewFrame(m.Size())
	m.AppendTo(f)
	return call(ctx, c, wire.MsgWriteBatch, f, wire.DecodeWriteReports)
}

// DeleteRegion commits a region tombstone.
func (c *Client) DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	f := wire.NewFrame(64)
	(&wire.Delete{Deadline: d, Region: region}).AppendTo(f)
	return call(ctx, c, wire.MsgDelete, f, wire.DecodeWriteReport)
}

// Kernel runs a push-down kernel remotely.
func (c *Client) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	f := wire.NewFrame(64 + 8*len(req.Vec))
	(&wire.Kernel{Deadline: d, Req: req}).AppendTo(f)
	return call(ctx, c, wire.MsgKernel, f, wire.DecodeKernelResult)
}

// deadlineFrame is the request frame of the deadline-only ops.
func deadlineFrame(ctx context.Context) (*buf.Writer, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	f := wire.NewFrame(8)
	wire.AppendDeadline(f, d)
	return f, nil
}

// Info fetches the backend's identity.
func (c *Client) Info(ctx context.Context) (*wire.Info, error) {
	f, err := deadlineFrame(ctx)
	if err != nil {
		return nil, err
	}
	return call(ctx, c, wire.MsgInfo, f, wire.DecodeInfo)
}

// ObsSnapshot fetches and decodes the backend's telemetry snapshot.
func (c *Client) ObsSnapshot(ctx context.Context) (*obs.Snapshot, error) {
	f, err := deadlineFrame(ctx)
	if err != nil {
		return nil, err
	}
	return call(ctx, c, wire.MsgObs, f, obs.DecodeSnapshot)
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	f, err := deadlineFrame(ctx)
	if err != nil {
		return err
	}
	_, err = call(ctx, c, wire.MsgPing, f, func([]byte) (struct{}, error) { return struct{}{}, nil })
	return err
}
