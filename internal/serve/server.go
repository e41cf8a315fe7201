package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sparseart/internal/buf"
	"sparseart/internal/obs"
	"sparseart/internal/store"
	"sparseart/internal/wire"
)

// DefaultMaxInFlight bounds concurrently executing requests when the
// config leaves MaxInFlight zero.
const DefaultMaxInFlight = 64

// Config tunes a Server.
type Config struct {
	// MaxInFlight bounds requests executing concurrently across all
	// connections; a request arriving with the window full is rejected
	// immediately with wire.ErrOverloaded (back-pressure, not
	// queueing). 0 means DefaultMaxInFlight.
	MaxInFlight int
	// Obs receives the server's own metrics (serve.* families); nil
	// uses the process-global registry.
	Obs *obs.Registry
	// TraceSample is the probability [0,1] that a request arriving
	// without a trace context starts a new sampled trace. Requests that
	// already carry a context keep the sender's sampling decision.
	// Zero or negative: the server starts no traces of its own.
	TraceSample float64
}

// Server answers wire-protocol requests against one Backend. Each
// connection pipelines: requests are read sequentially, executed
// concurrently (subject to the in-flight bound), and answered in
// completion order tagged with the request id.
type Server struct {
	backend   Backend
	sem       chan struct{}
	reg       *obs.Registry
	inflight  *obs.Gauge // serve.inflight, resolved once
	traceRate float64

	ctx    context.Context // canceled by Close; parent of every request ctx
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a Server over backend.
func NewServer(backend Backend, cfg Config) *Server {
	inflight := cfg.MaxInFlight
	if inflight <= 0 {
		inflight = DefaultMaxInFlight
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Global()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		backend:   backend,
		sem:       make(chan struct{}, inflight),
		reg:       reg,
		inflight:  reg.Gauge("serve.inflight"),
		traceRate: cfg.TraceSample,
		ctx:       ctx,
		cancel:    cancel,
		conns:     map[net.Conn]struct{}{},
	}
}

// Serve accepts connections on ln until Close (or a fatal accept
// error). It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("serve: server closed")
	}
	s.mu.Unlock()
	go func() {
		<-s.ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		if !s.track(conn) {
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// track registers a live connection; false means the server closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.reg.Gauge("serve.conns").Add(1)
	return true
}

// untrack forgets a finished connection.
func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.reg.Gauge("serve.conns").Add(-1)
	}
	s.mu.Unlock()
}

// Close stops accepting, cancels every in-flight request's context,
// closes live connections, and waits for handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// connWriter serializes response frames on one connection.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

// send writes one reply frame built by wire.NewFrame and recycles it.
func (cw *connWriter) send(f *buf.Writer, typ uint8, id uint64) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return wire.SendFrame(cw.conn, f, typ, id, obs.TraceContext{})
}

// sendErr answers one request with a typed error.
func (cw *connWriter) sendErr(id uint64, err error) error {
	f := wire.NewFrame(64)
	wire.AppendError(f, err)
	return cw.send(f, wire.MsgErr, id)
}

// serveConn reads requests off one connection until EOF or close.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	cw := &connWriter{conn: conn}
	fr := wire.NewFrameReader(conn)
	var reqs sync.WaitGroup
	defer reqs.Wait()
	for {
		req, err := fr.Next()
		if err != nil {
			return // EOF, peer reset, or Close — nothing to answer
		}
		o := opOf(req.Type)
		if o.name == "" {
			// Unknown or retired (0x02, 0x03) opcode: a typed error, counted
			// like any failed request, and the connection lives on.
			req.Release()
			s.fail(cw, req.ID, "unknown", errUnsupportedOp(fmt.Sprintf("unknown message type %#x", req.Type)))
			continue
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// Window full: reject now rather than queue — the client
			// sees typed back-pressure it can retry against.
			req.Release()
			s.reg.Counter("serve.rejected", "op", o.name).Inc()
			cw.sendErr(req.ID, fmt.Errorf("serve: %w: %d requests in flight", wire.ErrOverloaded, cap(s.sem)))
			continue
		}
		if !req.Trace.Valid() && req.Type != wire.MsgObs && req.Type != wire.MsgPing && obs.Sample(s.traceRate) {
			// No caller context: this server is the trace root. Telemetry
			// and liveness ops are never minted a trace — a scrape's own
			// sub-requests would parent to a serve.request span that is
			// still open when the snapshot it serves is cut, littering
			// every stitched trace with unresolvable links.
			req.Trace = obs.NewTrace(true)
		}
		s.inflight.Add(1)
		reqs.Add(1)
		go s.respond(cw, &reqs, o, req)
	}
}

// respond executes one admitted request and writes its reply, encoded
// straight into its frame.
func (s *Server) respond(cw *connWriter, reqs *sync.WaitGroup, o op, req wire.Frame) {
	defer reqs.Done()
	defer func() {
		s.inflight.Add(-1)
		<-s.sem
	}()
	// The span's End feeds the same serve.request{op} histogram the
	// server has always kept; sampled requests additionally record a
	// trace span carrying the caller's trace identity.
	sp := s.reg.StartRemote(req.Trace, o.serveSpan)
	out, err := s.handle(&req, sp.TraceContext())
	if err != nil && sp.Sampled() {
		sp.SetAttrStr("err", err.Error())
	}
	sp.End()
	if err != nil {
		s.fail(cw, req.ID, o.name, err)
		return
	}
	cw.send(out, wire.MsgOK, req.ID)
}

// fail counts one failed request and answers it with the typed error.
func (s *Server) fail(cw *connWriter, id uint64, op string, err error) {
	s.reg.Counter("serve.request.errors", "op", op, "code", fmt.Sprint(uint16(wire.CodeOf(err)))).Inc()
	cw.sendErr(id, err)
}

// op is one request type as metrics see it: its label and its span
// names, rendered once rather than per request.
type op struct {
	name       string // "" for an unknown or retired type
	serveSpan  string // serve.request{op=name}
	clientSpan string // client.request{op=name}
}

// ops indexes the request types (all below 0x40) by message type.
var ops = func() (t [0x40]op) {
	for typ, name := range map[uint8]string{
		wire.MsgQuery:      "query",
		wire.MsgWriteBatch: "write_batch",
		wire.MsgDelete:     "delete",
		wire.MsgKernel:     "kernel",
		wire.MsgInfo:       "info",
		wire.MsgObs:        "obs",
		wire.MsgPing:       "ping",
	} {
		t[typ] = op{name, obs.Name("serve.request", "op", name), obs.Name("client.request", "op", name)}
	}
	return t
}()

// opOf looks a request type up; the zero op means unknown.
func opOf(typ uint8) op {
	if int(typ) < len(ops) {
		return ops[typ]
	}
	return op{}
}

// reqCtx derives the request context from the server lifetime, the
// request's relative deadline, and its trace context — backend spans
// started under it join the request's trace. A request without a
// deadline runs under the server's own context (Close cancels it), so
// it costs no context of its own.
func (s *Server) reqCtx(d time.Duration, tc obs.TraceContext) (context.Context, context.CancelFunc) {
	ctx := s.ctx
	if tc.Valid() {
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// handle decodes and executes one request, returning its reply frame
// (built by wire.NewFrame) on success. It releases the request's
// payload buffer when done.
func (s *Server) handle(req *wire.Frame, tc obs.TraceContext) (*buf.Writer, error) {
	defer req.Release()
	switch req.Type {
	case wire.MsgQuery:
		q, err := wire.DecodeQuery(req.Payload)
		if err != nil {
			return nil, badPayload(err)
		}
		ctx, cancel := s.reqCtx(q.Deadline, tc)
		defer cancel()
		res, rep, err := s.backend.Query(ctx, q.Req)
		if err != nil {
			return nil, err
		}
		qr := wire.QueryResult{Result: res, Report: rep}
		out := wire.NewFrame(qr.Size())
		qr.AppendTo(out)
		return out, nil

	case wire.MsgWriteBatch:
		m, err := wire.DecodeWriteBatch(req.Payload)
		if err != nil {
			return nil, badPayload(err)
		}
		ctx, cancel := s.reqCtx(m.Deadline, tc)
		defer cancel()
		reps, err := s.backend.WriteBatch(ctx, m.Batches, m.Workers)
		if err != nil {
			return nil, err
		}
		out := wire.NewFrame(96 * (1 + len(reps)))
		wire.AppendWriteReports(out, reps)
		return out, nil

	case wire.MsgDelete:
		m, err := wire.DecodeDelete(req.Payload)
		if err != nil {
			return nil, badPayload(err)
		}
		ctx, cancel := s.reqCtx(m.Deadline, tc)
		defer cancel()
		rep, err := s.backend.DeleteRegion(ctx, m.Region)
		if err != nil {
			return nil, err
		}
		out := wire.NewFrame(96)
		wire.AppendWriteReport(out, rep)
		return out, nil

	case wire.MsgKernel:
		m, err := wire.DecodeKernel(req.Payload)
		if err != nil {
			return nil, badPayload(err)
		}
		ctx, cancel := s.reqCtx(m.Deadline, tc)
		defer cancel()
		res, err := s.backend.Kernel(ctx, m.Req)
		if err != nil {
			return nil, err
		}
		out := wire.NewFrame(96 + 8*len(res.Values))
		wire.AppendKernelResult(out, res)
		return out, nil

	case wire.MsgInfo:
		d, err := wire.DecodeDeadline(req.Payload)
		if err != nil {
			return nil, badPayload(err)
		}
		ctx, cancel := s.reqCtx(d, tc)
		defer cancel()
		info, err := s.backend.Info(ctx)
		if err != nil {
			return nil, err
		}
		out := wire.NewFrame(64)
		info.AppendTo(out)
		return out, nil

	case wire.MsgObs:
		d, err := wire.DecodeDeadline(req.Payload)
		if err != nil {
			return nil, badPayload(err)
		}
		ctx, cancel := s.reqCtx(d, tc)
		defer cancel()
		snap, err := s.backend.ObsSnapshot(ctx)
		if err != nil {
			return nil, err
		}
		out := wire.NewFrame(len(snap))
		out.Raw(snap)
		return out, nil

	case wire.MsgPing:
		return wire.NewFrame(0), nil

	default:
		return nil, errUnsupportedOp(fmt.Sprintf("unknown message type %#x", req.Type))
	}
}

// badPayload wraps a decode failure as a typed bad request.
func badPayload(err error) error {
	return fmt.Errorf("serve: %w: %v", store.ErrBadRequest, err)
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

var _ io.Closer = (*Server)(nil)
