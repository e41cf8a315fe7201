package serve

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"sparseart/internal/obs"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// Client drives one wire-protocol connection. It is safe for
// concurrent use: requests pipeline on the single connection, matched
// to responses by request id, so N goroutines sharing one Client see N
// requests in flight at once.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan clientResp
	readErr error // set once the read loop dies; nil while healthy
	done    chan struct{}
}

type clientResp struct {
	typ     uint8
	payload []byte
}

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
		pending: map[uint64]chan clientResp{},
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
	for {
		typ, id, payload, err := wire.ReadFrame(c.conn)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			close(c.done)
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- clientResp{typ: typ, payload: payload}
		}
	}
}

// roundTrip sends one request and waits for its response or ctx. When
// ctx carries a sampled trace, a client.request{op} span wraps the
// round trip and its trace context rides the frame to the server, so
// the remote serve.request span links back to this one.
func (c *Client) roundTrip(ctx context.Context, typ uint8, payload []byte) ([]byte, error) {
	sp, ctx := obs.Global().StartCtx(ctx, obs.Name("client.request", "op", opName(typ)))
	tc := sp.TraceContext()
	if !tc.Valid() {
		// No local client span (global obs disabled) — still forward the
		// trace riding ctx so downstream processes keep recording.
		tc, _ = obs.TraceFrom(ctx)
	}
	resp, err := c.roundTripTrace(ctx, typ, tc, payload)
	if err != nil && sp.Sampled() {
		sp.SetAttrStr("err", err.Error())
	}
	sp.End()
	return resp, err
}

// roundTripTrace writes the request frame carrying tc and waits for
// the matching response or ctx.
func (c *Client) roundTripTrace(ctx context.Context, typ uint8, tc obs.TraceContext, payload []byte) ([]byte, error) {
	ch := make(chan clientResp, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, connErr(err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := wire.WriteFrameTrace(c.conn, typ, id, tc, payload)
	c.wmu.Unlock()
	if err != nil {
		c.forget(id)
		return nil, connErr(err)
	}

	select {
	case resp := <-ch:
		if resp.typ == wire.MsgErr {
			return nil, wire.DecodeError(resp.payload)
		}
		return resp.payload, nil
	case <-ctx.Done():
		c.forget(id)
		return nil, ctx.Err()
	case <-c.done:
		// The read loop may have delivered just before dying.
		select {
		case resp := <-ch:
			if resp.typ == wire.MsgErr {
				return nil, wire.DecodeError(resp.payload)
			}
			return resp.payload, nil
		default:
		}
		c.forget(id)
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return nil, connErr(err)
	}
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
	payload, err := c.roundTrip(ctx, wire.MsgQuery, (&wire.Query{Deadline: d, Req: req}).Encode())
	if err != nil {
		return nil, nil, err
	}
	res, err := wire.DecodeQueryResult(payload)
	if err != nil {
		return nil, nil, err
	}
	return res.Result, res.Report, nil
}

// WriteBatch runs the streaming ingest remotely.
func (c *Client) WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	payload, err := c.roundTrip(ctx, wire.MsgWriteBatch, (&wire.WriteBatch{Deadline: d, Workers: workers, Batches: batches}).Encode())
	if err != nil {
		return nil, err
	}
	return wire.DecodeWriteReports(payload)
}

// DeleteRegion commits a region tombstone.
func (c *Client) DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	payload, err := c.roundTrip(ctx, wire.MsgDelete, (&wire.Delete{Deadline: d, Region: region}).Encode())
	if err != nil {
		return nil, err
	}
	return wire.DecodeWriteReport(payload)
}

// Kernel runs a push-down kernel remotely.
func (c *Client) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	payload, err := c.roundTrip(ctx, wire.MsgKernel, (&wire.Kernel{Deadline: d, Req: req}).Encode())
	if err != nil {
		return nil, err
	}
	return wire.DecodeKernelResult(payload)
}

// Info fetches the backend's identity.
func (c *Client) Info(ctx context.Context) (*wire.Info, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	payload, err := c.roundTrip(ctx, wire.MsgInfo, wire.EncodeDeadline(d))
	if err != nil {
		return nil, err
	}
	return wire.DecodeInfo(payload)
}

// ObsSnapshot fetches and decodes the backend's telemetry snapshot.
func (c *Client) ObsSnapshot(ctx context.Context) (*obs.Snapshot, error) {
	d, err := deadlineOf(ctx)
	if err != nil {
		return nil, err
	}
	payload, err := c.roundTrip(ctx, wire.MsgObs, wire.EncodeDeadline(d))
	if err != nil {
		return nil, err
	}
	return obs.DecodeSnapshot(payload)
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	d, err := deadlineOf(ctx)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(ctx, wire.MsgPing, wire.EncodeDeadline(d))
	return err
}
